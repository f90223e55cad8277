/**
 * @file
 * BEER performance benchmark driver.
 *
 *   perfbench --workload recover|solve|serve --seed N --seconds S
 *             --trace 0|1 --tmpdir DIR
 *   perfbench --selftest
 *
 * Prints progress to stderr and, as the last line of stdout, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
 * report the end-to-end metrics, traced runs the per-layer ones (see
 * perfbench/README.md). Normally started through perfbench/run.py,
 * which builds this binary and provides the temporary directory.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    beer::util::Cli cli("BEER performance benchmark (see perfbench/README.md)");
    cli.addOption("workload", "", "recover, solve or serve");
    cli.addOption("seed", "1", "workload seed (all inputs derive from it)");
    cli.addOption("seconds", "50", "measured seconds (whole passes)");
    cli.addOption("trace", "0", "1 = traced run (per-layer metrics)");
    cli.addOption("tmpdir", "", "private directory for the run's files");
    cli.addFlag("selftest", "check that the answer checks reject "
                            "wrong answers, then exit");
    cli.parse(argc, argv);

    if (cli.getBool("selftest"))
        return perfbench::runSelfTests();

    perfbench::RunOptions options;
    const std::int64_t seed = cli.getInt("seed");
    const std::int64_t seconds = cli.getInt("seconds");
    if (seed < 0 || seconds < 1 || seconds > 120) {
        std::fprintf(stderr, "perfbench: --seed must be >= 0 and "
                             "--seconds in 1..120\n");
        return 2;
    }
    options.seed = (std::uint64_t)seed;
    options.seconds = (double)seconds;
    options.trace = cli.getInt("trace") != 0;
    options.tmpdir = cli.getString("tmpdir");

    const std::string workload = cli.getString("workload");
    perfbench::RunResult result;
    if (workload == "recover") {
        result = perfbench::runRecover(options);
    } else if (workload == "solve") {
        result = perfbench::runSolve(options);
    } else if (workload == "serve") {
        if (options.tmpdir.empty()) {
            std::fprintf(stderr, "perfbench: serve needs --tmpdir\n");
            return 2;
        }
        result = perfbench::runServe(options);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    if (!result.setupError.empty()) {
        std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                     workload.c_str(), result.setupError.c_str());
        return 1;
    }
    std::cout << result.toJson() << std::endl;
    return 0;
}
