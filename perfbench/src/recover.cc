/**
 * @file
 * Workload "recover": full serial beer::Session::run() recoveries of
 * simulated chips, the paper's end-to-end use.
 *
 * One pass recovers each chip of a fixed list once, every time from a
 * freshly constructed chip with the same seed, so every repetition of
 * a chip is the identical unit of work (the serial schedule is
 * deterministic per chip seed). The timed unit runs from Session
 * construction to the unique function.
 *
 * The chips' ECC functions are a fixed panel and the workload seed
 * draws the retention errors each chip shows (which cells fail in
 * which refresh pause), the randomness a tester meets when it re-runs
 * a chip. Recovery cost depends far more on the function than on the
 * errors: over sixty seed-drawn vendor-A/C k=32 functions, recoveries
 * took 22 to 69 ms, while a vendor-B chip (whose canonical function
 * does not depend on the seed) stayed within 29.0 to 29.4 ms.
 *
 * The traced run alternates untraced and traced passes. A traced pass
 * wraps each chip in a forwarding MemoryInterface that times every
 * chip call and stamps session stages from outside through
 * SessionConfig::onProgress; it must reproduce the untraced pass's
 * experiment and pattern counts exactly.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "beer/session.hh"
#include "beer/solver.hh"
#include "common.hh"
#include "dram/chip.hh"

using namespace beer;

namespace perfbench
{

namespace
{

struct ChipSpec
{
    char vendor;
    std::size_t k;
    /** Seed makeVendorConfig() draws the chip's ECC function from. */
    std::uint64_t panelSeed;
};

/** Vendor B k=32 first: its cold recovery ends setup_s. */
constexpr ChipSpec kChips[] = {
    {'B', 32, 1}, {'A', 32, 1}, {'A', 32, 2}, {'B', 32, 2},
    {'C', 32, 1}, {'C', 32, 2}, {'B', 64, 1},
};
constexpr std::size_t kNumChips = sizeof(kChips) / sizeof(kChips[0]);
constexpr std::size_t kRows = 64;
constexpr std::size_t kRepeats = 25;
constexpr std::size_t kMinPasses = 4;

dram::ChipConfig
chipConfig(const ChipSpec &spec, std::uint64_t run_seed, std::size_t index)
{
    dram::ChipConfig config =
        dram::makeVendorConfig(spec.vendor, spec.k, spec.panelSeed);
    config.seed = run_seed * 1000 + 17 * (index + 1); // retention errors
    config.map.rows = kRows;
    config.iidErrors = true;
    return config;
}

/** The measurement plan of bench/session_speedup: three pauses at BER
 *  0.05/0.15/0.3, 25 repeats, threshold 1e-4. */
MeasureConfig
measurePlan(const dram::SimulatedChip &chip)
{
    MeasureConfig measure;
    for (double ber : {0.05, 0.15, 0.3})
        measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    measure.repeatsPerPause = kRepeats;
    measure.thresholdProbability = 1e-4;
    return measure;
}

/** Time the chip interface spends per call class. */
struct ChipTimes
{
    double fillMs = 0.0;
    double pauseMs = 0.0;
    double readMs = 0.0;
    std::uint64_t wordsRead = 0;

    double totalMs() const { return fillMs + pauseMs + readMs; }
};

/** Forwarding MemoryInterface that times every call into the chip. */
class TimedMemory final : public dram::MemoryInterface
{
  public:
    explicit TimedMemory(dram::MemoryInterface &inner) : inner_(inner) {}

    const dram::AddressMap &addressMap() const override
    {
        return inner_.addressMap();
    }
    std::size_t datawordBits() const override
    {
        return inner_.datawordBits();
    }
    void writeDataword(std::size_t word, const gf2::BitVec &data) override
    {
        timed(times_.fillMs, [&] { inner_.writeDataword(word, data); });
    }
    gf2::BitVec readDataword(std::size_t word) override
    {
        gf2::BitVec out;
        timed(times_.readMs, [&] { out = inner_.readDataword(word); });
        ++times_.wordsRead;
        return out;
    }
    void writeDatawordsBroadcast(const std::size_t *words, std::size_t count,
                                 const gf2::BitVec &data) override
    {
        timed(times_.fillMs, [&] {
            inner_.writeDatawordsBroadcast(words, count, data);
        });
    }
    void readDatawords(const std::size_t *words, std::size_t count,
                       std::vector<gf2::BitVec> &out) override
    {
        timed(times_.readMs,
              [&] { inner_.readDatawords(words, count, out); });
        times_.wordsRead += count;
    }
    bool readDatawordsPlanar(const std::size_t *words, std::size_t count,
                             dram::PlanarReadBatch &out) override
    {
        bool served = false;
        timed(times_.readMs, [&] {
            served = inner_.readDatawordsPlanar(words, count, out);
        });
        if (served)
            times_.wordsRead += count;
        return served;
    }
    void writeByte(std::size_t addr, std::uint8_t value) override
    {
        timed(times_.fillMs, [&] { inner_.writeByte(addr, value); });
    }
    std::uint8_t readByte(std::size_t addr) override
    {
        std::uint8_t out = 0;
        timed(times_.readMs, [&] { out = inner_.readByte(addr); });
        return out;
    }
    void fill(std::uint8_t value) override
    {
        timed(times_.fillMs, [&] { inner_.fill(value); });
    }
    void pauseRefresh(double seconds, double temp_c) override
    {
        timed(times_.pauseMs,
              [&] { inner_.pauseRefresh(seconds, temp_c); });
    }

    const ChipTimes &times() const { return times_; }
    /** Start of the first chip call since the last clearFirstCall(). */
    const std::optional<Clock::time_point> &firstCall() const
    {
        return firstCall_;
    }
    void clearFirstCall() { firstCall_.reset(); }

  private:
    template <class F>
    void timed(double &acc_ms, F &&call)
    {
        const Clock::time_point start = Clock::now();
        if (!firstCall_)
            firstCall_ = start;
        call();
        acc_ms += msBetween(start, Clock::now());
    }

    dram::MemoryInterface &inner_;
    ChipTimes times_;
    std::optional<Clock::time_point> firstCall_;
};

/**
 * Session stage spans stamped from outside: the interval that ends at
 * a Measure notification is split into pattern selection (before the
 * first chip call), chip calls and mismatch counting (the rest); the
 * interval ending at a Solve notification is the solve stage.
 */
struct StageSpans
{
    double selectMs = 0.0;
    double countMs = 0.0;
    double solveMs = 0.0;
};

class StageClock
{
  public:
    explicit StageClock(TimedMemory &mem) : mem_(mem) {}

    void onStage(SessionStage stage)
    {
        const Clock::time_point now = Clock::now();
        const double interval = msBetween(last_, now);
        const double chip = mem_.times().totalMs() - chipAtLast_;
        if (stage == SessionStage::Measure) {
            const double select =
                mem_.firstCall() ? msBetween(last_, *mem_.firstCall())
                                 : interval - chip;
            spans_.selectMs += select;
            spans_.countMs += interval - select - chip;
        } else if (stage == SessionStage::Solve) {
            spans_.solveMs += interval;
        }
        last_ = now;
        chipAtLast_ = mem_.times().totalMs();
        mem_.clearFirstCall();
    }

    void start() { last_ = Clock::now(); }
    const StageSpans &spans() const { return spans_; }

  private:
    TimedMemory &mem_;
    Clock::time_point last_ = Clock::now();
    double chipAtLast_ = 0.0;
    StageSpans spans_;
};

/** One recovery: its unit time, report, and (traced) layer spans. */
/**
 * The solver layer on its own: the session's final thresholded profile
 * solved again from scratch by an IncrementalSolver, outside the timed
 * unit (traced passes only).
 */
struct SolverSpans
{
    double buildMs = 0.0;
    double encodeMs = 0.0;
    double searchMs = 0.0;
    double arenaMib = 0.0;
    bool unique = false;
};

SolverSpans
resolveProfile(const MiscorrectionProfile &profile, std::size_t parity)
{
    SolverSpans out;
    BeerSolverConfig config;
    config.maxSolutions = 2; // the function plus a uniqueness proof
    const Clock::time_point build = Clock::now();
    IncrementalSolver solver(profile.k, parity, config);
    const Clock::time_point encode = Clock::now();
    solver.addProfile(profile);
    const Clock::time_point search = Clock::now();
    const BeerSolveResult result = solver.solve();
    const Clock::time_point done = Clock::now();
    out.buildMs = msBetween(build, encode);
    out.encodeMs = msBetween(encode, search);
    out.searchMs = msBetween(search, done);
    out.arenaMib = (double)result.memoryBytes / (1024.0 * 1024.0);
    out.unique = result.unique();
    return out;
}

struct Recovery
{
    double seconds = 0.0;
    RecoveryReport report;
    ChipTimes chip;
    StageSpans stages;
    SolverSpans solver;
};

Recovery
recoverOnce(const dram::ChipConfig &config, bool traced)
{
    dram::SimulatedChip chip(config);
    SessionConfig session_config;
    session_config.measure = measurePlan(chip);
    session_config.wordsUnderTest = dram::trueCellWords(chip);

    Recovery out;
    if (!traced) {
        const Clock::time_point start = Clock::now();
        Session session(chip, session_config);
        out.report = session.run();
        out.seconds = secondsSince(start);
        return out;
    }
    TimedMemory mem(chip);
    StageClock stages(mem);
    session_config.onProgress = [&stages](const SessionProgress &p) {
        stages.onStage(p.stage);
    };
    const Clock::time_point start = Clock::now();
    stages.start();
    Session session(mem, session_config);
    out.report = session.run();
    out.seconds = secondsSince(start);
    out.chip = mem.times();
    out.stages = stages.spans();
    if (out.report.succeeded())
        out.solver = resolveProfile(out.report.profile,
                                    config.code.numParityBits());
    return out;
}

/** Simulated refresh-pause time of a recovery on a real tester, h. */
double
testerHours(const RecoveryReport &report, const MeasureConfig &plan)
{
    double pause_sum = 0.0;
    for (double pause : plan.pausesSeconds)
        pause_sum += pause;
    return (double)report.stats.patternsMeasured *
           (double)plan.repeatsPerPause * pause_sum / 3600.0;
}

/** Deterministic per-chip figures every repetition must reproduce. */
struct ChipCounts
{
    std::uint64_t experiments = 0;
    std::size_t patterns = 0;
    std::size_t rounds = 0;

    bool operator==(const ChipCounts &other) const = default;
};

ChipCounts
countsOf(const RecoveryReport &report)
{
    return {report.stats.patternMeasurements, report.stats.patternsMeasured,
            report.stats.measureRounds};
}

} // anonymous namespace

RunResult
runRecover(const RunOptions &options)
{
    RunResult result;
    std::vector<dram::ChipConfig> configs;
    for (std::size_t i = 0; i < kNumChips; ++i)
        configs.push_back(chipConfig(kChips[i], options.seed, i));

    std::vector<std::optional<ChipCounts>> expected(kNumChips);
    std::vector<double> tester_h(kNumChips, 0.0);
    FastestPerUnit untraced(kNumChips);
    FastestPerUnit traced(kNumChips);
    std::vector<Recovery> best_traced(kNumChips);
    double fastest_pass = -1.0;
    double setup_s = 0.0;

    // Checks one recovery; false iff the program reported failure.
    auto check = [&](std::size_t i, const Recovery &rec,
                     const dram::ChipConfig &config, bool traced) {
        ++result.attempted;
        if (!rec.report.succeeded()) {
            ++result.failed;
            std::fprintf(stderr,
                         "perfbench: chip %zu (vendor %c, k=%zu): %s\n",
                         i, kChips[i].vendor, kChips[i].k,
                         rec.report.diagnosis.detail.c_str());
            return false;
        }
        if (!sameFunction(rec.report.recoveredCode(), config.code))
            result.wrong("recover: chip " + std::to_string(i) +
                         " recovered a function not equivalent to its "
                         "ground truth");
        if (traced && !rec.solver.unique)
            result.wrong("recover: chip " + std::to_string(i) +
                         "'s final profile did not solve uniquely again");
        const ChipCounts counts = countsOf(rec.report);
        if (!expected[i])
            expected[i] = counts;
        else if (!(*expected[i] == counts))
            result.wrong("recover: chip " + std::to_string(i) +
                         " measured a different experiment/pattern count "
                         "than its first repetition");
        return true;
    };

    ClockProbe probe;
    const Clock::time_point work_start = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
        const bool traced_pass = options.trace && pass % 2 == 1;
        double pass_s = 0.0;
        bool pass_ok = true;
        for (std::size_t i = 0; i < kNumChips; ++i) {
            const Recovery rec = recoverOnce(configs[i], traced_pass);
            if (pass == 0 && i == 0)
                setup_s = secondsSince(processStart());
            probe.probe();
            pass_s += rec.seconds;
            if (!check(i, rec, configs[i], traced_pass)) {
                pass_ok = false;
                continue;
            }
            if (!traced_pass) {
                untraced.offer(i, rec.seconds);
                if (pass == 0) {
                    const dram::SimulatedChip chip(configs[i]);
                    tester_h[i] = testerHours(rec.report, measurePlan(chip));
                }
            } else if (traced.values()[i] < 0.0 ||
                       rec.seconds < traced.values()[i]) {
                traced.offer(i, rec.seconds);
                best_traced[i] = rec;
            }
        }
        if (pass_ok && !traced_pass &&
            (fastest_pass < 0.0 || pass_s < fastest_pass))
            fastest_pass = pass_s;
        if (pass + 1 >= kMinPasses &&
            secondsSince(work_start) >= options.seconds)
            break;
    }

    if (!untraced.complete() || (options.trace && !traced.complete())) {
        result.wrong("recover: some chip never recovered");
        return result;
    }
    const std::vector<double> &unit = untraced.values();
    for (std::size_t i = 0; i < kNumChips; ++i)
        std::fprintf(stderr,
                     "perfbench: recover chip %zu (vendor %c, k=%zu): "
                     "fastest %.1f ms, %zu patterns, %llu experiments\n",
                     i, kChips[i].vendor, kChips[i].k, 1e3 * unit[i],
                     expected[i]->patterns,
                     (unsigned long long)expected[i]->experiments);
    if (!options.trace) {
        addEndToEnd(result, {unit, kNumChips, fastest_pass, setup_s}, probe);
        return result;
    }

    // Per-layer figures: mean per chip over each chip's fastest traced
    // repetition; counts are summed over one pass (all chips).
    LayerMetrics layers;
    double covered_ms = 0.0;
    double wall_ms = 0.0;
    double read_s = 0.0;
    std::uint64_t words_read = 0;
    sat::SolverStats sat;
    for (std::size_t i = 0; i < kNumChips; ++i) {
        const Recovery &rec = best_traced[i];
        layers.add("dram.fill_ms", rec.chip.fillMs / kNumChips);
        layers.add("dram.pause_ms", rec.chip.pauseMs / kNumChips);
        layers.add("dram.read_ms", rec.chip.readMs / kNumChips);
        layers.add("session.select_ms", rec.stages.selectMs / kNumChips);
        layers.add("measure.count_ms", rec.stages.countMs / kNumChips);
        layers.add("session.solve_ms", rec.stages.solveMs / kNumChips);
        layers.add("session.tester_time_h", tester_h[i] / kNumChips);
        layers.add("solver.build_ms", rec.solver.buildMs / kNumChips);
        layers.add("solver.encode_ms", rec.solver.encodeMs / kNumChips);
        layers.add("solver.search_ms", rec.solver.searchMs / kNumChips);
        layers.add("solver.arena_mib", rec.solver.arenaMib / kNumChips);
        const ChipCounts c = countsOf(rec.report);
        layers.add("session.experiments", (double)c.experiments);
        layers.add("session.patterns", (double)c.patterns);
        layers.add("session.rounds", (double)c.rounds);
        covered_ms += rec.chip.totalMs() + rec.stages.selectMs +
                      rec.stages.countMs + rec.stages.solveMs;
        wall_ms += 1e3 * rec.seconds;
        read_s += rec.chip.readMs / 1e3;
        words_read += rec.chip.wordsRead;
        sat.accumulate(rec.report.stats.sat);
        for (const SolveRoundStats &round : rec.report.stats.solveRounds)
            sat.addedClauses += round.clausesAdded;
    }
    layers.set("dram.read_mwords_per_s",
               read_s > 0.0 ? (double)words_read / read_s / 1e6 : 0.0);
    layers.setSat(sat);
    layers.setTracing(mean(traced.values()), mean(unit),
                      covered_ms / wall_ms);
    layers.set("host.clock_ms", probe.fastestMs());
    layers.emit(result);
    return result;
}

} // namespace perfbench
