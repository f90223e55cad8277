/**
 * @file
 * Workload "serve": a k=16 fleet served by svc::RecoveryService behind
 * a started svc::HttpServer on an ephemeral loopback port, with the
 * job journal on and two scheduler workers.
 *
 * Set-up solves a fleet into a fingerprint-cache file and records v2
 * measurement traces of further chips. Each pass then starts a fresh
 * service from a copy of that cache file and an empty journal, and two
 * closed-loop client threads run a fixed job list:
 *
 *   - hit:   exact repeats of cached chips' profiles (POST /v1/jobs);
 *   - near:  cached chips' profiles with some patterns removed, which
 *            the cache answers by warm-starting a solve;
 *   - cold:  new chips' profiles sent with ?no-cache=1;
 *   - trace: recorded v2 traces through submitTraceFile(), also
 *            bypassing the cache, so they replay and solve every time.
 *
 * Each client submits, waits for completion (waitForJob), then fetches
 * the result with GET /v1/jobs/<id>; the job's latency is submit to
 * result. Every answer is checked against the code that generated its
 * payload or trace, and the service's counters against the job kinds
 * submitted. Clients (2), workers (2) and the HTTP thread stay within
 * four cores: a client blocks while its job runs.
 *
 * The ECC functions are a fixed panel (solve cost is chaotic in the
 * instance; see solve.cc). The workload seed orders the job list and
 * draws the retention errors recorded in the traces.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "common.hh"
#include "dram/chip.hh"
#include "dram/trace.hh"
#include "ecc/hamming.hh"
#include "svc/http.hh"
#include "svc/service.hh"
#include "util/rng.hh"

using namespace beer;

namespace perfbench
{

namespace
{

constexpr std::size_t kDataBits = 16;
constexpr std::size_t kFleet = 16;
constexpr std::size_t kHitJobs = 64;
constexpr std::size_t kNearJobs = 8;
constexpr std::size_t kColdJobs = 8;
constexpr std::size_t kTraceChips = 4;
constexpr std::size_t kTraceRepeats = 5;
/** 2-CHARGED entries a near sibling lacks relative to its cached chip. */
constexpr std::size_t kRemovedPatterns = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kTraceRows = 64;
constexpr std::size_t kTraceRepeatsPerPause = 25;
constexpr std::size_t kMinPasses = 3;
/** Seed of the generator the fleet's codes are drawn from. */
constexpr std::uint64_t kPanelSeed = 16;

enum class Kind
{
    Hit,
    Near,
    Cold,
    Trace,
};

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Hit:
        return "hit";
    case Kind::Near:
        return "near";
    case Kind::Cold:
        return "cold";
    case Kind::Trace:
        return "trace";
    }
    return "?";
}

/** The cache outcome the service must report for a job kind. */
const char *
expectedCache(Kind kind)
{
    switch (kind) {
    case Kind::Hit:
        return "exact";
    case Kind::Near:
        return "near";
    default:
        return "none";
    }
}

struct Job
{
    Kind kind = Kind::Hit;
    /** Profile payload (hit, near, cold). */
    std::string payload;
    /** Trace file (trace). */
    std::string tracePath;
    /** The code that generated the payload or trace. */
    const ecc::LinearCode *truth = nullptr;
};

/** Client-side clocks of one job. */
struct JobTiming
{
    double submitMs = 0.0;
    double waitMs = 0.0;
    double resultMs = 0.0;
    /** Job body time the service reports ("seconds"), ms. */
    double bodyMs = 0.0;

    double totalMs() const { return submitMs + waitMs + resultMs; }
};

struct HttpReply
{
    int status = 0;
    std::string body;
};

/** One HTTP/1.1 request over a fresh loopback connection. */
std::optional<HttpReply>
httpRequest(std::uint16_t port, const std::string &method,
            const std::string &target, const std::string &body)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return std::nullopt;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, (const sockaddr *)&addr, sizeof(addr)) != 0) {
        ::close(fd);
        return std::nullopt;
    }
    std::string request = method + " " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            ::close(fd);
            return std::nullopt;
        }
        sent += (std::size_t)n;
    }
    std::string response;
    char buf[4096];
    while (true) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        response.append(buf, (std::size_t)n);
    }
    ::close(fd);
    const std::size_t header_end = response.find("\r\n\r\n");
    if (response.rfind("HTTP/1.1 ", 0) != 0 ||
        header_end == std::string::npos)
        return std::nullopt;
    HttpReply reply;
    reply.status = std::atoi(response.c_str() + 9);
    reply.body = response.substr(header_end + 4);
    return reply;
}

/**
 * The value of top-level @p key in a flat JSON object: a string's
 * unescaped content, or a number/literal token; nullopt if absent.
 */
std::optional<std::string>
jsonField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return std::nullopt;
    std::size_t pos = at + needle.size();
    if (pos < json.size() && json[pos] == '"') {
        std::string out;
        for (++pos; pos < json.size() && json[pos] != '"'; ++pos) {
            if (json[pos] == '\\' && pos + 1 < json.size()) {
                const char esc = json[++pos];
                out += esc == 'n' ? '\n' : esc == 't' ? '\t' : esc;
            } else {
                out += json[pos];
            }
        }
        return out;
    }
    const std::size_t end = json.find_first_of(",}", pos);
    return json.substr(pos, end == std::string::npos ? std::string::npos
                                                     : end - pos);
}

/** A started service + HTTP server; stopped and drained on destruction. */
class Server
{
  public:
    Server(const std::string &cache_path, const std::string &journal_path)
        : service_(config(cache_path, journal_path)), http_(service_)
    {
        if (http_.start())
            thread_ = std::thread([this] { http_.serve(); });
    }
    ~Server()
    {
        http_.stop();
        if (thread_.joinable())
            thread_.join();
        service_.shutdown();
    }
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    bool started() const { return thread_.joinable(); }
    std::uint16_t port() const { return http_.port(); }
    svc::RecoveryService &service() { return service_; }

  private:
    static svc::ServiceConfig config(const std::string &cache_path,
                                     const std::string &journal_path)
    {
        svc::ServiceConfig config;
        config.threads = kWorkers;
        config.cache.path = cache_path;
        config.journalPath = journal_path;
        return config;
    }

    svc::RecoveryService service_;
    svc::HttpServer http_;
    std::thread thread_;
};

/** The measurement plan the traces record (the recover plan). */
MeasureConfig
tracePlan(const dram::SimulatedChip &chip)
{
    MeasureConfig measure;
    for (double ber : {0.05, 0.15, 0.3})
        measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    measure.repeatsPerPause = kTraceRepeatsPerPause;
    measure.thresholdProbability = 1e-4;
    return measure;
}

/** Everything set-up prepares. */
struct Fleet
{
    std::vector<ecc::LinearCode> codes;
    std::vector<Job> jobs;
    std::vector<std::string> traceFiles;
    std::string cacheFile;
    std::string passCache;
    std::string passJournal;
    ServeTally expected;
};

/** Build the job list, record the traces and solve the fleet into the
 *  cache file. Returns an error message, empty on success. */
std::string
prepare(const RunOptions &options, Fleet &fleet)
{
    namespace fs = std::filesystem;
    const auto patterns = chargedPatternUnion(kDataBits, {1, 2});
    util::Rng panel(kPanelSeed);
    const std::size_t new_chips = kColdJobs + kTraceChips;
    // Reserve up front: jobs keep pointers into codes.
    fleet.codes.reserve(kFleet + new_chips);
    for (std::size_t i = 0; i < kFleet + new_chips; ++i)
        fleet.codes.push_back(ecc::randomSecCode(kDataBits, panel));

    std::vector<MiscorrectionProfile> fleet_profiles;
    for (std::size_t i = 0; i < kFleet; ++i)
        fleet_profiles.push_back(
            exhaustiveProfile(fleet.codes[i], patterns));

    for (std::size_t i = 0; i < kHitJobs; ++i)
        fleet.jobs.push_back({Kind::Hit,
                              serializeProfile(fleet_profiles[i % kFleet]),
                              "", &fleet.codes[i % kFleet]});
    for (std::size_t i = 0; i < kNearJobs; ++i) {
        MiscorrectionProfile sibling = fleet_profiles[i % kFleet];
        sibling.patterns.resize(sibling.patterns.size() - kRemovedPatterns);
        fleet.jobs.push_back({Kind::Near, serializeProfile(sibling), "",
                              &fleet.codes[i % kFleet]});
    }
    for (std::size_t i = 0; i < kColdJobs; ++i) {
        const ecc::LinearCode &code = fleet.codes[kFleet + i];
        fleet.jobs.push_back({Kind::Cold,
                              serializeProfile(
                                  exhaustiveProfile(code, patterns)),
                              "", &code});
    }

    for (std::size_t i = 0; i < kTraceChips; ++i) {
        const ecc::LinearCode &code = fleet.codes[kFleet + kColdJobs + i];
        dram::ChipConfig config = dram::makeVendorConfig('A', kDataBits, 1);
        config.code = code;
        config.seed = options.seed * 1000 + 31 * (i + 1); // errors
        config.map.rows = kTraceRows;
        config.iidErrors = true;
        dram::SimulatedChip chip(config);
        const std::string path = (fs::path(options.tmpdir) /
                                  ("chip" + std::to_string(i) + ".trace"))
                                     .string();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out)
            return "cannot write " + path;
        recordProfileTrace(chip, patterns, tracePlan(chip),
                           dram::trueCellWords(chip), out,
                           dram::TraceWriteOptions{});
        out.close();
        if (!out)
            return "cannot write " + path;
        fleet.traceFiles.push_back(path);
        for (std::size_t r = 0; r < kTraceRepeats; ++r)
            fleet.jobs.push_back({Kind::Trace, "", path, &code});
    }

    // The seed fixes the order the clients submit in.
    util::Rng order(options.seed * 0x9e3779b97f4a7c15ULL + 16);
    for (std::size_t i = fleet.jobs.size() - 1; i > 0; --i)
        std::swap(fleet.jobs[i], fleet.jobs[order.below(i + 1)]);

    fleet.expected.exactHits = kHitJobs;
    fleet.expected.nearHits = kNearJobs;
    fleet.expected.satSolves =
        kNearJobs + kColdJobs + kTraceChips * kTraceRepeats;

    // Solve the fleet once and persist it: every pass loads this file.
    fleet.cacheFile = (fs::path(options.tmpdir) / "fleet.cache").string();
    fleet.passCache = (fs::path(options.tmpdir) / "pass.cache").string();
    fleet.passJournal = (fs::path(options.tmpdir) / "pass.journal").string();
    std::error_code ec;
    fs::remove(fleet.cacheFile, ec);
    svc::ServiceConfig config;
    config.threads = kWorkers;
    config.cache.path = fleet.cacheFile;
    svc::RecoveryService builder(config);
    for (const MiscorrectionProfile &profile : fleet_profiles)
        if (!builder.submitProfile(profile).accepted)
            return "fleet submission rejected";
    builder.drain();
    const svc::HealthReport health = builder.health();
    if (health.satSolves != kFleet || health.jobStates.done != kFleet)
        return "fleet did not solve into the cache";
    builder.shutdown();
    return "";
}

/** Reset the pass state: the pristine cache file, no journal. */
bool
resetPassFiles(const Fleet &fleet)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::remove(fleet.passJournal, ec);
    fs::remove(fleet.passJournal + ".tmp", ec);
    fs::copy_file(fleet.cacheFile, fleet.passCache,
                  fs::copy_options::overwrite_existing, ec);
    return !ec;
}

/** Outcome of one job's checks. */
struct JobCheck
{
    bool failed = false;
    std::string wrong;
};

/** Run job @p job against @p server; fill @p timing. */
JobCheck
runJob(Server &server, const Job &job, JobTiming &timing)
{
    JobCheck check;
    const Clock::time_point t0 = Clock::now();
    svc::JobId id = 0;
    if (job.kind == Kind::Trace) {
        svc::SubmitOptions submit;
        submit.bypassCache = true;
        const svc::SubmitOutcome outcome =
            server.service().submitTraceFile(job.tracePath, submit);
        if (!outcome.accepted) {
            check.failed = true;
            check.wrong = "trace submission rejected: " + outcome.error;
            return check;
        }
        id = outcome.id;
    } else {
        const auto reply = httpRequest(
            server.port(), "POST",
            job.kind == Kind::Cold ? "/v1/jobs?no-cache=1" : "/v1/jobs",
            job.payload);
        const auto field =
            reply ? jsonField(reply->body, "job_id") : std::nullopt;
        if (!reply || reply->status != 202 || !field) {
            check.failed = true;
            check.wrong = "submission failed";
            return check;
        }
        id = (svc::JobId)std::strtoull(field->c_str(), nullptr, 10);
    }
    const Clock::time_point t1 = Clock::now();
    server.service().waitForJob(id);
    const Clock::time_point t2 = Clock::now();
    const auto reply = httpRequest(server.port(), "GET",
                                   "/v1/jobs/" + std::to_string(id), "");
    const Clock::time_point t3 = Clock::now();
    timing.submitMs = msBetween(t0, t1);
    timing.waitMs = msBetween(t1, t2);
    timing.resultMs = msBetween(t2, t3);

    if (!reply || reply->status != 200) {
        check.failed = true;
        check.wrong = "result fetch failed";
        return check;
    }
    const std::string &body = reply->body;
    if (jsonField(body, "state") != "done" ||
        jsonField(body, "succeeded") != "true") {
        check.failed = true;
        check.wrong = "job did not succeed: " + body;
        return check;
    }
    if (const auto seconds = jsonField(body, "seconds"))
        timing.bodyMs = 1e3 * std::strtod(seconds->c_str(), nullptr);
    const auto code_rows = jsonField(body, "code");
    const auto code =
        code_rows ? parseCodeRows(*code_rows, kDataBits) : std::nullopt;
    if (!code || !sameFunction(*code, *job.truth))
        check.wrong = std::string(kindName(job.kind)) +
                      " job answered a function not equivalent to its "
                      "generating code";
    else if (jsonField(body, "cache") != expectedCache(job.kind))
        check.wrong = std::string(kindName(job.kind)) +
                      " job reported cache outcome " +
                      jsonField(body, "cache").value_or("?");
    return check;
}

/** Median of a few direct trace loads and replays per file, ms. */
void
timeTraceLayer(const Fleet &fleet, LayerMetrics &layers)
{
    constexpr int kReps = 5;
    for (const std::string &path : fleet.traceFiles) {
        FastestPerUnit load(1);
        FastestPerUnit replay(1);
        for (int r = 0; r < kReps; ++r) {
            const Clock::time_point t0 = Clock::now();
            dram::TraceReplayBackend trace(path);
            const Clock::time_point t1 = Clock::now();
            const ProfileCounts counts = replayProfileTrace(trace);
            const Clock::time_point t2 = Clock::now();
            (void)counts;
            load.offer(0, msBetween(t0, t1));
            replay.offer(0, msBetween(t1, t2));
        }
        layers.add("trace.load_ms", load.values()[0] / kTraceChips);
        layers.add("trace.replay_ms", replay.values()[0] / kTraceChips);
    }
}

} // anonymous namespace

RunResult
runServe(const RunOptions &options)
{
    RunResult result;
    Fleet fleet;
    const std::string error = prepare(options, fleet);
    if (!error.empty()) {
        result.setupError = error;
        return result;
    }
    const std::size_t jobs = fleet.jobs.size();

    FastestPerUnit latency(jobs);
    std::vector<JobTiming> best(jobs);
    double fastest_pass = -1.0;
    double fastest_start_ms = -1.0;
    double setup_s = 0.0;
    svc::HealthReport last_health;

    ClockProbe probe;
    const Clock::time_point work_start = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
        if (!resetPassFiles(fleet)) {
            result.setupError = "cannot reset the pass cache file";
            return result;
        }
        const Clock::time_point start = Clock::now();
        Server server(fleet.passCache, fleet.passJournal);
        const double start_ms = msBetween(start, Clock::now());
        if (pass == 0)
            setup_s = secondsSince(processStart());
        if (!server.started()) {
            result.setupError = "HTTP server did not start";
            return result;
        }
        if (fastest_start_ms < 0.0 || start_ms < fastest_start_ms)
            fastest_start_ms = start_ms;

        std::vector<JobTiming> timings(jobs);
        std::vector<JobCheck> checks(jobs);
        const Clock::time_point pass_start = Clock::now();
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                for (std::size_t i = c; i < jobs; i += kClients)
                    checks[i] = runJob(server, fleet.jobs[i], timings[i]);
            });
        for (std::thread &client : clients)
            client.join();
        const double pass_s = secondsSince(pass_start);
        for (int q = 0; q < 20; ++q)
            probe.probe();

        bool pass_ok = true;
        for (std::size_t i = 0; i < jobs; ++i) {
            ++result.attempted;
            if (checks[i].failed) {
                ++result.failed;
                pass_ok = false;
                std::fprintf(stderr, "perfbench: serve job %zu (%s): %s\n",
                             i, kindName(fleet.jobs[i].kind),
                             checks[i].wrong.c_str());
                continue;
            }
            if (!checks[i].wrong.empty())
                result.wrong("serve: " + checks[i].wrong);
            if (latency.values()[i] < 0.0 ||
                timings[i].totalMs() < latency.values()[i]) {
                latency.offer(i, timings[i].totalMs());
                best[i] = timings[i];
            }
        }
        last_health = server.service().health();
        if (pass_ok) {
            const ServeTally seen{last_health.cache.exactHits,
                                  last_health.cache.nearHits,
                                  last_health.satSolves};
            const std::string mismatch =
                tallyMismatch(seen, fleet.expected);
            if (!mismatch.empty())
                result.wrong("serve: " + mismatch);
            if (fastest_pass < 0.0 || pass_s < fastest_pass)
                fastest_pass = pass_s;
        }
        if (pass + 1 >= kMinPasses &&
            secondsSince(work_start) >= options.seconds)
            break;
    }

    if (!latency.complete() || fastest_pass <= 0.0) {
        result.wrong("serve: some job never completed");
        return result;
    }
    const std::vector<double> &job_ms = latency.values();
    for (Kind kind : {Kind::Hit, Kind::Near, Kind::Cold, Kind::Trace}) {
        std::vector<double> of_kind;
        for (std::size_t i = 0; i < jobs; ++i)
            if (fleet.jobs[i].kind == kind)
                of_kind.push_back(job_ms[i]);
        std::fprintf(stderr,
                     "perfbench: serve %-5s %3zu jobs, fastest latency "
                     "min %.2f / median %.2f / max %.2f ms\n",
                     kindName(kind), of_kind.size(), quantile(of_kind, 0),
                     quantile(of_kind, 0.5), quantile(of_kind, 1));
    }

    if (!options.trace) {
        std::vector<double> job_s;
        for (double ms : job_ms)
            job_s.push_back(ms / 1e3);
        addEndToEnd(result, {job_s, jobs, fastest_pass, setup_s}, probe);
        return result;
    }

    LayerMetrics layers;
    double covered = 0.0;
    double wall = 0.0;
    double kind_count[4] = {0, 0, 0, 0};
    for (const Job &job : fleet.jobs)
        ++kind_count[(int)job.kind];
    const char *kind_metric[4] = {"svc.hit_ms", "svc.near_ms",
                                  "svc.cold_ms", "svc.trace_ms"};
    for (std::size_t i = 0; i < jobs; ++i) {
        const JobTiming &t = best[i];
        const int kind = (int)fleet.jobs[i].kind;
        layers.add("http.submit_ms", t.submitMs / (double)jobs);
        layers.add("http.result_ms", t.resultMs / (double)jobs);
        layers.add("svc.queue_ms",
                   std::max(0.0, t.waitMs - t.bodyMs) / (double)jobs);
        layers.add(kind_metric[kind],
                   (t.submitMs + t.waitMs) / kind_count[kind]);
        covered += t.submitMs + std::min(t.bodyMs, t.waitMs) + t.resultMs;
        wall += t.totalMs();
    }
    timeTraceLayer(fleet, layers);
    layers.set("svc.start_ms", fastest_start_ms);
    layers.set("cache.exact_hits", (double)last_health.cache.exactHits);
    layers.set("cache.near_hits", (double)last_health.cache.nearHits);
    layers.set("svc.sat_solves", (double)last_health.satSolves);
    layers.set("journal.bytes", (double)last_health.journal.bytes);
    layers.set("host.clock_ms", probe.fastestMs());
    // The client clocks are taken in untraced passes too, so the
    // traced unit is the untraced one.
    layers.setTracing(mean(job_ms) / 1e3, mean(job_ms) / 1e3,
                      wall > 0.0 ? covered / wall : 0.0);
    layers.emit(result);
    return result;
}

} // namespace perfbench
