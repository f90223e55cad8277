/**
 * @file
 * Workload "solve": offline BEER solves of exhaustive 1-CHARGED
 * profiles at k=128 through beer::IncrementalSolver, the paper's
 * Figure 6 regime. SAT encoding and search do all of the work; no chip
 * is involved.
 *
 * A unit is one code: construct the solver (the structural CNF), add
 * the profile, and solve with maxSolutions = 2, which finds the
 * function and proves it unique. The unit time is addProfile + solve;
 * construction is reported on its own (setup_s takes the first, cold
 * one).
 *
 * The codes are a fixed panel. CDCL search cost is chaotic in the
 * instance: at k=128, solves of fifteen seed-drawn codes took 0.28 to
 * 1.18 s, and merely permuting one code's data columns or the order of
 * its profile entries spread its solve time as widely. A seed-drawn
 * panel would measure the draw, not the solver. The workload seed
 * only rotates the order in which a pass visits the codes.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "beer/patterns.hh"
#include "beer/solver.hh"
#include "common.hh"
#include "ecc/hamming.hh"
#include "util/rng.hh"

using namespace beer;

namespace perfbench
{

namespace
{

constexpr std::size_t kDataBits = 128;
constexpr std::size_t kCodes = 3;
/** Seed of the generator the code panel is drawn from. */
constexpr std::uint64_t kPanelSeed = 2;
constexpr std::size_t kMinPasses = 3;

struct Input
{
    ecc::LinearCode code;
    MiscorrectionProfile profile;
};

/** One timed solve of one code. */
struct Solve
{
    double buildMs = 0.0;
    double encodeMs = 0.0;
    double searchMs = 0.0;
    BeerSolveResult result;
    sat::SolverStats sat;

    double unitSeconds() const { return (encodeMs + searchMs) / 1e3; }
};

BeerSolverConfig
solverConfig()
{
    BeerSolverConfig config;
    config.maxSolutions = 2; // the function plus a uniqueness proof
    return config;
}

/** Encode and search on an already constructed solver. */
void
solveOn(IncrementalSolver &solver, const Input &input, Solve &out)
{
    const Clock::time_point encode = Clock::now();
    solver.addProfile(input.profile);
    const Clock::time_point search = Clock::now();
    out.result = solver.solve();
    const Clock::time_point done = Clock::now();
    out.encodeMs = msBetween(encode, search);
    out.searchMs = msBetween(search, done);
    out.sat = solver.satSolver().stats();
}

} // anonymous namespace

RunResult
runSolve(const RunOptions &options)
{
    RunResult result;
    util::Rng rng(kPanelSeed);
    const std::vector<TestPattern> patterns = chargedPatterns(kDataBits, 1);
    std::vector<Input> inputs;
    for (std::size_t i = 0; i < kCodes; ++i) {
        ecc::LinearCode code = ecc::randomSecCode(kDataBits, rng);
        MiscorrectionProfile profile = exhaustiveProfile(code, patterns);
        inputs.push_back({std::move(code), std::move(profile)});
    }
    const std::size_t parity = ecc::parityBitsForDataBits(kDataBits);

    // Set-up ends with the first (cold) solver construction.
    Clock::time_point start = Clock::now();
    std::optional<IncrementalSolver> first(std::in_place, kDataBits, parity,
                                           solverConfig());
    const double first_build_ms = msBetween(start, Clock::now());
    const double setup_s = secondsSince(processStart());

    FastestPerUnit unit(kCodes);
    FastestPerUnit build(kCodes);
    std::vector<Solve> best(kCodes);
    double fastest_pass = -1.0;

    ClockProbe probe;
    const Clock::time_point work_start = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
        double pass_s = 0.0;
        bool pass_ok = true;
        for (std::size_t n = 0; n < kCodes; ++n) {
            const std::size_t i = (n + options.seed) % kCodes;
            Solve s;
            if (first) {
                s.buildMs = first_build_ms;
                solveOn(*first, inputs[i], s);
                first.reset();
            } else {
                start = Clock::now();
                IncrementalSolver solver(kDataBits, parity, solverConfig());
                s.buildMs = msBetween(start, Clock::now());
                solveOn(solver, inputs[i], s);
            }
            pass_s += s.buildMs / 1e3 + s.unitSeconds();
            probe.probe();
            ++result.attempted;
            if (!s.result.unique()) {
                ++result.failed;
                pass_ok = false;
                std::fprintf(stderr,
                             "perfbench: solve code %zu: %zu solutions, "
                             "complete %d\n",
                             i, s.result.solutions.size(),
                             (int)s.result.complete);
                continue;
            }
            const ecc::LinearCode &found = s.result.solutions.front();
            if (!sameFunction(found, inputs[i].code))
                result.wrong("solve: code " + std::to_string(i) +
                             " solved to a function not equivalent to "
                             "the generating code");
            else if (!reproducesProfile(found, inputs[i].profile))
                result.wrong("solve: code " + std::to_string(i) +
                             " solution does not reproduce the input "
                             "profile");
            build.offer(i, s.buildMs);
            if (best[i].result.solutions.empty() ||
                s.unitSeconds() < best[i].unitSeconds())
                best[i] = std::move(s);
            unit.offer(i, best[i].unitSeconds());
        }
        if (pass_ok && (fastest_pass < 0.0 || pass_s < fastest_pass))
            fastest_pass = pass_s;
        if (pass + 1 >= kMinPasses &&
            secondsSince(work_start) >= options.seconds)
            break;
    }

    if (!unit.complete()) {
        result.wrong("solve: some code never solved");
        return result;
    }
    for (std::size_t i = 0; i < kCodes; ++i)
        std::fprintf(stderr,
                     "perfbench: solve code %zu: fastest %.1f ms "
                     "(build %.1f, encode %.1f, search %.1f), "
                     "%llu conflicts\n",
                     i, 1e3 * unit.values()[i], build.values()[i],
                     best[i].encodeMs, best[i].searchMs,
                     (unsigned long long)best[i].sat.conflicts);

    if (!options.trace) {
        addEndToEnd(result, {unit.values(), kCodes, fastest_pass, setup_s},
                    probe);
        return result;
    }

    // The solve workload has no instrumentation beyond its own clocks,
    // so traced and untraced units are the same timings.
    LayerMetrics layers;
    sat::SolverStats sat;
    double arena = 0.0;
    for (std::size_t i = 0; i < kCodes; ++i) {
        layers.add("solver.build_ms", build.values()[i] / kCodes);
        layers.add("solver.encode_ms", best[i].encodeMs / kCodes);
        layers.add("solver.search_ms", best[i].searchMs / kCodes);
        arena += (double)best[i].result.memoryBytes / (1024.0 * 1024.0) /
                 kCodes;
        sat.accumulate(best[i].sat);
    }
    layers.set("solver.arena_mib", arena);
    layers.setSat(sat);
    layers.setTracing(mean(unit.values()), mean(unit.values()), 1.0);
    layers.set("host.clock_ms", probe.fastestMs());
    layers.emit(result);
    return result;
}

} // namespace perfbench
