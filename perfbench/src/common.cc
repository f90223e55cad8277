#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "beer/patterns.hh"
#include "ecc/code_equiv.hh"
#include "gf2/matrix.hh"

namespace perfbench
{

namespace
{

const Clock::time_point kProcessStart = Clock::now();

} // anonymous namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

Clock::time_point
processStart()
{
    return kProcessStart;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return (double)usage.ru_maxrss / 1024.0; // ru_maxrss is KiB
}

void
RunResult::wrong(const std::string &why)
{
    if (correct)
        std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", why.c_str());
    correct = false;
}

std::string
RunResult::toJson() const
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

namespace
{

struct LayerSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in print order. */
constexpr LayerSpec kLayers[] = {
    // chip interface (recover)
    {"dram.fill_ms", "ms/chip"},
    {"dram.pause_ms", "ms/chip"},
    {"dram.read_ms", "ms/chip"},
    {"dram.read_mwords_per_s", "Mwords/s"},
    // session stages and measurement (recover)
    {"session.select_ms", "ms/chip"},
    {"measure.count_ms", "ms/chip"},
    {"session.solve_ms", "ms/chip"},
    {"session.experiments", "count"},
    {"session.patterns", "count"},
    {"session.rounds", "count"},
    {"session.tester_time_h", "h/chip"},
    // BEER solver (solve)
    {"solver.build_ms", "ms/code"},
    {"solver.encode_ms", "ms/code"},
    {"solver.search_ms", "ms/code"},
    {"solver.arena_mib", "MiB"},
    // SAT core (recover, solve)
    {"sat.added_clauses", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.decisions", "count"},
    // service (serve)
    {"http.submit_ms", "ms/job"},
    {"http.result_ms", "ms/job"},
    {"svc.queue_ms", "ms/job"},
    {"svc.hit_ms", "ms/job"},
    {"svc.near_ms", "ms/job"},
    {"svc.cold_ms", "ms/job"},
    {"svc.trace_ms", "ms/job"},
    {"trace.load_ms", "ms/file"},
    {"trace.replay_ms", "ms/file"},
    {"svc.start_ms", "ms"},
    {"cache.exact_hits", "count"},
    {"cache.near_hits", "count"},
    {"svc.sat_solves", "count"},
    {"journal.bytes", "count"},
    // host clock state and tracing itself (all)
    {"host.clock_ms", "ms"},
    {"traced.unit_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
};

const LayerSpec *
findLayer(const std::string &name)
{
    for (const LayerSpec &spec : kLayers)
        if (name == spec.name)
            return &spec;
    return nullptr;
}

} // anonymous namespace

void
LayerMetrics::set(const std::string &name, double value)
{
    if (!findLayer(name)) {
        std::fprintf(stderr, "perfbench: unknown layer metric %s\n",
                     name.c_str());
        std::abort();
    }
    for (auto &entry : values_)
        if (entry.first == name) {
            entry.second = value;
            return;
        }
    values_.emplace_back(name, value);
}

void
LayerMetrics::add(const std::string &name, double value)
{
    for (auto &entry : values_)
        if (entry.first == name) {
            entry.second += value;
            return;
        }
    set(name, value);
}

void
LayerMetrics::setSat(const beer::sat::SolverStats &stats)
{
    set("sat.added_clauses", (double)stats.addedClauses);
    set("sat.conflicts", (double)stats.conflicts);
    set("sat.propagations", (double)stats.propagations);
    set("sat.decisions", (double)stats.decisions);
}

void
LayerMetrics::setTracing(double traced_unit_s, double untraced_unit_s,
                         double coverage)
{
    set("traced.unit_ms", 1e3 * traced_unit_s);
    set("trace.overhead_pct",
        untraced_unit_s > 0.0
            ? 100.0 * (traced_unit_s - untraced_unit_s) / untraced_unit_s
            : 0.0);
    set("trace.coverage_pct", 100.0 * coverage);
}

void
LayerMetrics::emit(RunResult &result) const
{
    for (const LayerSpec &spec : kLayers) {
        double value = 0.0;
        for (const auto &entry : values_)
            if (entry.first == spec.name)
                value = entry.second;
        result.add(spec.name, value, spec.unit);
    }
}

void
ClockProbe::probe()
{
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 500000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const double ms = msBetween(start, Clock::now());
    volatile std::uint64_t sink = x;
    (void)sink;
    fastestMs_ = std::min(fastestMs_, ms);
}

void
addEndToEnd(RunResult &result, const EndToEnd &e2e, const ClockProbe &probe)
{
    const double scale = probe.scale();
    std::vector<double> unit_ms;
    for (double s : e2e.unitSeconds)
        unit_ms.push_back(1e3 * s * scale);
    result.add("time_to_function_s", mean(unit_ms) / 1e3, "s");
    result.add("job_p50_ms", quantile(unit_ms, 0.5), "ms");
    result.add("job_p90_ms", quantile(unit_ms, 0.9), "ms");
    result.add("jobs_per_s",
               (double)e2e.jobsPerPass / (e2e.fastestPassSeconds * scale),
               "jobs/s");
    result.add("setup_s", e2e.setupSeconds * scale, "s");
    result.add("peak_rss_mib", peakRssMib(), "MiB");
    std::fprintf(stderr,
                 "perfbench: clock probe %.4f ms (scale %.4f); unscaled "
                 "time_to_function_s %.6f\n",
                 probe.fastestMs(), scale, mean(e2e.unitSeconds));
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * (double)(xs.size() - 1);
    const auto lo = (std::size_t)std::floor(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - (double)lo) * (xs[hi] - xs[lo]);
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / (double)xs.size();
}

bool
FastestPerUnit::complete() const
{
    return std::all_of(best_.begin(), best_.end(),
                       [](double v) { return v >= 0.0; });
}

bool
sameFunction(const beer::ecc::LinearCode &recovered,
             const beer::ecc::LinearCode &truth)
{
    return recovered.k() == truth.k() &&
           recovered.numParityBits() == truth.numParityBits() &&
           beer::ecc::equivalent(recovered, truth);
}

bool
reproducesProfile(const beer::ecc::LinearCode &recovered,
                  const beer::MiscorrectionProfile &input)
{
    if (recovered.k() != input.k)
        return false;
    std::vector<beer::TestPattern> patterns;
    patterns.reserve(input.patterns.size());
    for (const beer::PatternProfile &entry : input.patterns)
        patterns.push_back(entry.pattern);
    return beer::exhaustiveProfile(recovered, patterns) == input;
}

std::string
tallyMismatch(const ServeTally &seen, const ServeTally &expected)
{
    if (seen == expected)
        return "";
    auto text = [](const ServeTally &t) {
        return std::to_string(t.exactHits) + " exact hits, " +
               std::to_string(t.nearHits) + " near hits, " +
               std::to_string(t.satSolves) + " SAT solves";
    };
    return "the service counted " + text(seen) +
           "; the submitted job list holds " + text(expected);
}

std::optional<beer::ecc::LinearCode>
parseCodeRows(const std::string &rows, std::size_t k)
{
    std::vector<std::vector<bool>> bits;
    std::istringstream in(rows);
    std::string line;
    while (std::getline(in, line)) {
        std::vector<bool> row;
        for (char c : line) {
            if (c == '0' || c == '1')
                row.push_back(c == '1');
            else if (c != ' ')
                return std::nullopt;
        }
        if (row.empty())
            continue;
        if (row.size() <= k || (!bits.empty() && row.size() != bits[0].size()))
            return std::nullopt;
        bits.push_back(std::move(row));
    }
    if (bits.empty() || bits[0].size() != k + bits.size())
        return std::nullopt;
    const std::size_t p = bits.size();
    beer::gf2::Matrix pm(p, k);
    for (std::size_t r = 0; r < p; ++r) {
        for (std::size_t c = 0; c < k; ++c)
            pm.set(r, c, bits[r][c]);
        // The parity part must be the identity of standard form.
        for (std::size_t c = 0; c < p; ++c)
            if (bits[r][k + c] != (r == c))
                return std::nullopt;
    }
    return beer::ecc::LinearCode(std::move(pm));
}

} // namespace perfbench
