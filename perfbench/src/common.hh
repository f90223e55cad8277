/**
 * @file
 * Shared plumbing of the BEER performance benchmark: run options, the
 * result record every workload fills, clocks, statistics and the
 * answer checks.
 *
 * Every workload times whole passes over a fixed list of units (a
 * chip, a code, a job) until the run's time is spent, and reports for
 * each unit its fastest repetition: on a host whose speed drifts, the
 * fastest of many identical repetitions repeats from run to run where
 * a per-run median does not.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <string>
#include <vector>

#include "beer/profile.hh"
#include "sat/solver.hh"
#include "ecc/linear_code.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to now. */
double secondsSince(Clock::time_point start);

/** Milliseconds between two time points. */
double msBetween(Clock::time_point start, Clock::time_point end);

/** Time point of the process start (static initialization). */
Clock::time_point processStart();

/** Peak resident set of this process, MiB. */
double peakRssMib();

/** Options of one benchmark run. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    /** Private scratch directory for files the run writes. */
    std::string tmpdir;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct RunResult
{
    /** False iff some answer was wrong (see fail()/wrong()). */
    bool correct = true;
    /** Operations (units of work) attempted. */
    std::uint64_t attempted = 0;
    /** Operations the program reported as failed. */
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Set when the run could not be set up; no result is printed. */
    std::string setupError;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Record a wrong answer (the run stays, correct turns false). */
    void wrong(const std::string &why);

    /** The one-line JSON object the driver reads. */
    std::string toJson() const;
};

/**
 * The per-layer metrics of a traced run. Every traced run prints every
 * one of them, in a fixed order, with 0 for layers its workload does
 * not pass through (the solve workload has no chip, for instance).
 */
class LayerMetrics
{
  public:
    /** Set @p name, which must be one of the known layer metrics. */
    void set(const std::string &name, double value);
    /** Add to @p name (starting from 0). */
    void add(const std::string &name, double value);
    /** The sat.* counters. */
    void setSat(const beer::sat::SolverStats &stats);
    /**
     * The tracing figures: @p traced_unit_s and @p untraced_unit_s are
     * the mean per-unit fastest times of the traced and untraced
     * repetitions of the same run, @p coverage the share of the traced
     * units' independently clocked wall time the layer spans cover.
     */
    void setTracing(double traced_unit_s, double untraced_unit_s,
                    double coverage);
    /** Append all layer metrics to @p result. */
    void emit(RunResult &result) const;

  private:
    std::vector<std::pair<std::string, double>> values_;
};

/**
 * Host clock-state probe. This host switches between clock states for
 * minutes at a time (a fixed integer loop runs 1.00, 1.07 or 1.16 ms),
 * long enough that a whole run lands in one state and even the fastest
 * repetition moves with it. probe() times a fixed 500k-step xorshift
 * loop; the fastest probe of a run names the state the run saw, and
 * scale() converts the run's times to the reference state in which the
 * loop takes kReferenceMs.
 */
class ClockProbe
{
  public:
    static constexpr double kReferenceMs = 1.0;

    /** Time the loop once (about 1 ms). */
    void probe();
    /** Fastest probe so far, ms. */
    double fastestMs() const { return fastestMs_; }
    /** Factor from this run's clock state to the reference state. */
    double scale() const { return kReferenceMs / fastestMs_; }

  private:
    double fastestMs_ = 1e300;
};

/** A workload's untraced measurements, before scaling. */
struct EndToEnd
{
    /** Per unit: its fastest repetition, seconds. */
    std::vector<double> unitSeconds;
    /** Units (jobs) in one pass and the fastest whole pass, seconds. */
    std::size_t jobsPerPass = 0;
    double fastestPassSeconds = 0.0;
    /** Process start to the end of the cold set-up, seconds. */
    double setupSeconds = 0.0;
};

/** Append the end-to-end metrics, host times at the reference clock
 *  state of @p probe. */
void addEndToEnd(RunResult &result, const EndToEnd &e2e,
                 const ClockProbe &probe);

/** Quantile @p q of @p xs (linear interpolation); 0 if empty. */
double quantile(std::vector<double> xs, double q);

/** Arithmetic mean; 0 if empty. */
double mean(const std::vector<double> &xs);

/**
 * Per-unit fastest repetition: slot i keeps the smallest value ever
 * offered for unit i.
 */
class FastestPerUnit
{
  public:
    explicit FastestPerUnit(std::size_t units) : best_(units, -1.0) {}

    void offer(std::size_t unit, double value)
    {
        if (best_[unit] < 0.0 || value < best_[unit])
            best_[unit] = value;
    }
    /** True iff every unit has at least one value. */
    bool complete() const;
    const std::vector<double> &values() const { return best_; }

  private:
    std::vector<double> best_;
};

// ---- answer checks (computed apart from the solver) -----------------

/**
 * True iff @p recovered is equivalent to @p truth up to the parity-row
 * relabeling on-die ECC cannot expose (ecc::equivalent).
 */
bool sameFunction(const beer::ecc::LinearCode &recovered,
                  const beer::ecc::LinearCode &truth);

/**
 * True iff the exhaustive 1-CHARGED-style profile of @p recovered over
 * @p input's patterns reproduces @p input entry for entry.
 */
bool reproducesProfile(const beer::ecc::LinearCode &recovered,
                       const beer::MiscorrectionProfile &input);

/** Expected service counters for one pass of the serve workload. */
struct ServeTally
{
    std::uint64_t exactHits = 0;
    std::uint64_t nearHits = 0;
    std::uint64_t satSolves = 0;

    bool operator==(const ServeTally &other) const = default;
};

/** Empty iff the service's counters @p seen equal the benchmark's own
 *  tally @p expected; otherwise a message naming both. */
std::string tallyMismatch(const ServeTally &seen,
                          const ServeTally &expected);

/** Parse rows of a standard-form H = [P | I] ("1 0 1 ...", one row
 *  per line) into a code with @p k data bits; nullopt if malformed. */
std::optional<beer::ecc::LinearCode> parseCodeRows(const std::string &rows,
                                                   std::size_t k);

/** Run the self-tests of the checks above; 0 iff all pass. */
int runSelfTests();

// ---- workloads -------------------------------------------------------

/** Serial Session::run() recoveries of simulated chips. */
RunResult runRecover(const RunOptions &options);
/** Offline k=128 IncrementalSolver solves of exhaustive profiles. */
RunResult runSolve(const RunOptions &options);
/** A k=16 fleet served by RecoveryService behind HttpServer. */
RunResult runServe(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
