/**
 * @file
 * Layer-budget benchmark: runs one workload and prints its result.
 *
 *   layerbench --workload replay|serve|fleet --seed N --seconds S
 *              --trace 0|1
 *
 * Runs one workload, checks its outputs, and prints as its last
 * stdout line one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * metrics of the traced run with --trace 1. Traces are
 * CLAP_TRACE_INSTS instructions long (default 200000). Exit 0 when
 * the run completed (even with failed checks, which read
 * correct=false), 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hh"

namespace
{

using namespace clap::layerbench;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload replay|serve|fleet [--seed N] "
                 "[--seconds S] [--trace 0|1]\n",
                 argv0);
    return 2;
}

bool
parse(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                options.workload = value;
            else if (arg == "--seed")
                options.seed = std::stoull(value);
            else if (arg == "--seconds")
                options.seconds = std::stod(value);
            else if (arg == "--trace")
                options.trace = std::stoi(value) != 0;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    const std::string &w = options.workload;
    return (w == "replay" || w == "serve" || w == "fleet") &&
        options.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parse(argc, argv, options))
        return usage(argv[0]);

    // Before any thread or child process starts, so all inherit it.
    std::printf("%s: pinned to cpu %d\n", options.workload.c_str(),
                pinToOneCpu());

    RunResult result;
    if (options.workload == "replay")
        runReplay(options, result);
    else if (options.workload == "serve")
        runServe(options, result);
    else
        runFleet(options, result);

    const double failedFrac = result.attempted == 0
        ? 0.0
        : static_cast<double>(result.failed) /
            static_cast<double>(result.attempted);
    result.metrics.set("ops_failed_frac", failedFrac, "ratio");
    result.check(result.attempted > 0, "no operation was attempted");

    const MetricNames &names =
        options.trace ? perLayerMetrics() : endToEndMetrics();
    for (const std::string &problem : result.metrics.problems(names))
        result.check(false, problem);
    std::printf("%s: not measured on this workload:",
                options.workload.c_str());
    for (const std::string &name : result.metrics.skipped(names))
        std::printf(" %s", name.c_str());
    std::printf("\n");
    for (const std::string &problem : result.problems)
        std::printf("CHECK FAILED: %s\n", problem.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                result.metrics.json(names).c_str());
    std::fflush(stdout);
    return 0;
}
