/**
 * @file
 * Shared helpers for the benchmark harnesses. Each bench binary
 * reproduces one table/figure of the paper: it runs its sweeps once
 * and prints a paper-style result table, annotated with the values
 * the paper reports.
 *
 * All harnesses route their sweeps through the resilient runner
 * (runner/sweep.hh) and share one flag layer (a harness strips its
 * own flags first; any flag left over is an error, exit code 2):
 *
 *   --jobs=N        worker threads (default 1 = serial order)
 *   --timeout-ms=N  per-job wall-clock budget (0 = no watchdog)
 *   --retries=N     retry budget for transient failures (default 2)
 *   --backoff-ms=N  retry backoff base; retry r sleeps base << r
 *   --journal=PATH  checkpoint completed jobs to PATH (JSONL+CRC)
 *   --resume        replay the journal, re-run only missing jobs
 *                   (default journal: BENCH_<name>.journal)
 *   --out=PATH      result JSON path (default BENCH_<name>.json)
 *   --no-json       skip writing the result JSON
 *
 * Results additionally land in BENCH_<name>.json (written atomically
 * via temp-file + rename): every printed table plus any failed jobs.
 * The JSON contains no run-dependent counters, so an interrupted +
 * resumed sweep produces a byte-identical file to an uninterrupted
 * one.
 */

#ifndef CLAP_BENCH_BENCH_UTIL_HH
#define CLAP_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cap_predictor.hh"
#include "core/config.hh"
#include "obs/trace_events.hh"
#include "core/hybrid_predictor.hh"
#include "core/last_address_predictor.hh"
#include "core/stride_predictor.hh"
#include "runner/sweep.hh"
#include "sim/experiment.hh"
#include "trace/trace_store.hh"
#include "util/atomic_file.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace clap::bench
{

/** Factory for the paper's baseline enhanced-stride predictor. */
inline PredictorFactory
strideFactory(bool pipelined = false)
{
    return [pipelined] {
        StridePredictorConfig config;
        config.pipelined = pipelined;
        return std::make_unique<StridePredictor>(config);
    };
}

/** Factory for the baseline stand-alone CAP predictor. */
inline PredictorFactory
capFactory(bool pipelined = false)
{
    return [pipelined] {
        CapPredictorConfig config;
        config.pipelined = pipelined;
        return std::make_unique<CapPredictor>(config);
    };
}

/** Factory for the baseline hybrid CAP/stride predictor. */
inline PredictorFactory
hybridFactory(bool pipelined = false)
{
    return [pipelined] {
        HybridConfig config;
        config.pipelined = pipelined;
        return std::make_unique<HybridPredictor>(config);
    };
}

/** Factory for the prior-art last-address predictor. */
inline PredictorFactory
lastAddressFactory()
{
    return [] {
        return std::make_unique<LastAddressPredictor>(
            LastAddressConfig{});
    };
}

/** Parsed sweep flags (see file header). */
struct SweepOptions
{
    unsigned jobs = 1;
    std::uint64_t timeoutMs = 0;
    unsigned retries = 2;
    std::uint64_t backoffMs = 10;
    std::string journalPath; ///< resolved; empty = no checkpointing
    bool resume = false;
    std::string outPath; ///< resolved result JSON path
    bool noJson = false;
};

/** Process-wide bench harness state (one bench binary = one state). */
struct BenchState
{
    std::string name; ///< e.g. "fig05_predictors"
    SweepOptions options;

    /// Printed tables in print order (title, formatted cells).
    std::vector<std::pair<std::string, Table>> tables;

    /// Jobs that ended in a structured error, across all sweeps.
    struct Failure
    {
        std::string key;
        std::string error;
    };
    std::vector<Failure> failures;

    RunnerCounters counters; ///< accumulated over all sweeps
    std::size_t journalBadLines = 0;

    /// Trace-store counters accumulated over all sweeps. Printed in
    /// the stdout summary only — the result JSON must stay free of
    /// run-dependent counters (journal hits skip generations, so a
    /// resumed run reports different hit/miss totals).
    TraceStoreStats traceStore;

    static BenchState &
    instance()
    {
        static BenchState state;
        return state;
    }
};

/** Runner built from the bench flags. Journalling benches always run
 *  the runner in resume mode: benchMain() truncates the journal once
 *  at startup for fresh runs, so the several sweeps of one binary
 *  (e.g. the stride and hybrid columns of a figure) append to — and
 *  on --resume replay from — a single shared journal. */
inline SweepRunner
makeSweepRunner()
{
    const SweepOptions &options = BenchState::instance().options;
    RunnerConfig config;
    config.threads = options.jobs;
    config.timeoutMs = options.timeoutMs;
    config.maxRetries = options.retries;
    config.backoffBaseMs = options.backoffMs;
    config.journalPath = options.journalPath;
    config.resume = !options.journalPath.empty();
    return SweepRunner(config);
}

/** Fold one sweep's report into the bench state. */
inline void
recordSweepReport(const SweepReport &report)
{
    BenchState &state = BenchState::instance();
    if (!report.status) {
        std::fprintf(stderr, "sweep error: %s\n",
                     report.status.error().str().c_str());
        state.failures.push_back(
            {"(sweep)", report.status.error().str()});
    }
    for (const auto &outcome : report.outcomes) {
        if (!outcome.ok)
            state.failures.push_back(
                {outcome.key, outcome.error.str()});
    }
    state.counters.executed += report.counters.executed;
    state.counters.journalHits += report.counters.journalHits;
    state.counters.retries += report.counters.retries;
    state.counters.timeouts += report.counters.timeouts;
    state.counters.failures += report.counters.failures;
    state.counters.backoffs += report.counters.backoffs;
    state.counters.backoffMs += report.counters.backoffMs;
    state.journalBadLines += report.journalBadLines;
    state.traceStore.hits += report.traceStore.hits;
    state.traceStore.misses += report.traceStore.misses;
    state.traceStore.evictions += report.traceStore.evictions;
    state.traceStore.bytesGenerated += report.traceStore.bytesGenerated;
    state.traceStore.bytesCached = report.traceStore.bytesCached;
    state.traceStore.bytesPeak = report.traceStore.bytesPeak;
}

/** Resilient runPerTrace under the bench flags. */
inline std::vector<TraceStatsResult>
sweepPerTrace(const std::string &label,
              const std::vector<TraceSpec> &specs,
              const PredictorFactory &factory,
              const PredictorSimConfig &sim_config, std::size_t len)
{
    auto output = runPerTraceResilient(label, specs, factory,
                                       sim_config, len,
                                       makeSweepRunner());
    recordSweepReport(output.report);
    return std::move(output.results);
}

/** Resilient runPerSuite under the bench flags. */
inline std::vector<SuiteStats>
sweepPerSuite(const std::string &label, const PredictorFactory &factory,
              const PredictorSimConfig &sim_config, std::size_t len)
{
    return aggregateBySuite(
        sweepPerTrace(label, buildCatalog(), factory, sim_config, len));
}

/** Resilient runSpeedup under the bench flags. */
inline std::vector<SpeedupResult>
sweepSpeedup(const std::string &label,
             const std::vector<TraceSpec> &specs,
             const PredictorFactory &factory,
             const TimingConfig &config, std::size_t len)
{
    auto output = runSpeedupResilient(label, specs, factory, config,
                                      len, makeSweepRunner());
    recordSweepReport(output.report);
    return std::move(output.results);
}

/** Custom job batch (fault sweeps etc.) under the bench flags. */
inline SweepReport
runSweepJobs(const std::vector<SweepJob> &jobs)
{
    SweepReport report = makeSweepRunner().run(jobs);
    recordSweepReport(report);
    return report;
}

/** Print a titled table to stdout and register it for the JSON. */
inline void
printTable(const std::string &title, const Table &table)
{
    std::printf("\n=== %s ===\n", title.c_str());
    table.print(std::cout);
    std::fflush(stdout);
    BenchState::instance().tables.emplace_back(title, table);
}

/** Serialise the bench state to its result JSON (deterministic). */
inline std::string
benchJson()
{
    const BenchState &state = BenchState::instance();
    std::string json = "{\n  \"bench\": \"";
    json += jsonEscape(state.name);
    json += "\",\n  \"tables\": [";
    for (std::size_t t = 0; t < state.tables.size(); ++t) {
        if (t != 0)
            json += ',';
        json += "\n    {\"title\": \"";
        json += jsonEscape(state.tables[t].first);
        json += "\", \"rows\": [";
        const auto &rows = state.tables[t].second.rows();
        for (std::size_t r = 0; r < rows.size(); ++r) {
            if (r != 0)
                json += ',';
            json += "\n      [";
            for (std::size_t c = 0; c < rows[r].size(); ++c) {
                if (c != 0)
                    json += ", ";
                json += '"';
                json += jsonEscape(rows[r][c]);
                json += '"';
            }
            json += ']';
        }
        json += "\n    ]}";
    }
    json += "\n  ],\n  \"failedJobs\": [";
    for (std::size_t f = 0; f < state.failures.size(); ++f) {
        if (f != 0)
            json += ',';
        json += "\n    {\"key\": \"";
        json += jsonEscape(state.failures[f].key);
        json += "\", \"error\": \"";
        json += jsonEscape(state.failures[f].error);
        json += "\"}";
    }
    json += "\n  ]\n}\n";
    return json;
}

/** Print "bench flags: <message>" and exit 2: the one way a bench
 *  binary rejects its command line, before any sweep runs. */
[[noreturn]] inline void
badFlags(const std::string &message)
{
    std::fprintf(stderr, "bench flags: %s\n", message.c_str());
    std::exit(2);
}

/** If @p arg is `<prefix><value>`, store the value and return true. */
inline bool
flagValue(const std::string &arg, const std::string &prefix,
          std::string &value)
{
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

/**
 * Strict unsigned value of @p flag: all of @p text must be digits.
 * Base 10 by default; base 0 also takes hex (0x...) and octal
 * (0...), as for seeds. Anything else exits via badFlags().
 */
inline std::uint64_t
parseFlagUint(const std::string &flag, const std::string &text,
              int base = 10)
{
    // stoull skips leading blanks and negates a leading '-'.
    if (!text.empty() &&
        std::isdigit(static_cast<unsigned char>(text[0]))) {
        try {
            std::size_t end = 0;
            const unsigned long long value =
                std::stoull(text, &end, base);
            if (end == text.size())
                return value;
        } catch (const std::exception &) {
        }
    }
    badFlags("bad value '" + text + "' for " + flag);
}

/** Strict finite, non-negative value of @p flag (a rate). */
inline double
parseFlagRate(const std::string &flag, const std::string &text)
{
    if (!text.empty() &&
        (std::isdigit(static_cast<unsigned char>(text[0])) ||
         text[0] == '.')) {
        try {
            std::size_t end = 0;
            const double value = std::stod(text, &end);
            if (end == text.size() && std::isfinite(value))
                return value;
        } catch (const std::exception &) {
        }
    }
    badFlags("bad value '" + text + "' for " + flag);
}

/**
 * Remove a harness's own flags from argv before benchMain, which
 * rejects every flag it does not know. @p take sees each argument
 * and returns true when it consumed it (parsing its value with the
 * strict parsers above).
 */
inline void
stripHarnessFlags(int &argc, char **argv,
                  const std::function<bool(const std::string &)> &take)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (!take(argv[i]))
            argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;
}

/** Parse the bench sweep flags; prints the error and exits 2 on a
 *  bad value or an unknown flag. */
inline void
parseSweepFlags(int argc, char **argv, SweepOptions &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (flagValue(arg, "--jobs=", value)) {
            options.jobs = static_cast<unsigned>(
                parseFlagUint("--jobs", value));
            if (options.jobs == 0)
                badFlags("--jobs must be >= 1");
        } else if (flagValue(arg, "--timeout-ms=", value)) {
            options.timeoutMs = parseFlagUint("--timeout-ms", value);
        } else if (flagValue(arg, "--retries=", value)) {
            options.retries = static_cast<unsigned>(
                parseFlagUint("--retries", value));
        } else if (flagValue(arg, "--backoff-ms=", value)) {
            options.backoffMs = parseFlagUint("--backoff-ms", value);
        } else if (flagValue(arg, "--journal=", value)) {
            options.journalPath = value;
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (flagValue(arg, "--out=", value)) {
            options.outPath = value;
        } else if (arg == "--no-json") {
            options.noJson = true;
        } else {
            badFlags("unknown flag " + arg);
        }
    }
}

/**
 * Shared main() of every bench binary: parse the sweep flags, print
 * the figure via @p printFn (which runs the sweeps the first time it
 * asks for their results), then write the result JSON atomically.
 */
inline int
benchMain(const std::string &name, int argc, char **argv,
          const std::function<void()> &printFn)
{
    BenchState &state = BenchState::instance();
    state.name = name;
    parseSweepFlags(argc, argv, state.options);

    // Resolve defaults that depend on the bench name.
    if (state.options.resume && state.options.journalPath.empty())
        state.options.journalPath = "BENCH_" + name + ".journal";
    if (state.options.outPath.empty())
        state.options.outPath = "BENCH_" + name + ".json";

    // Fresh journalled run: truncate once here, then every sweep of
    // this process appends (the runner itself always resumes).
    if (!state.options.journalPath.empty() && !state.options.resume) {
        std::ofstream truncate(state.options.journalPath,
                               std::ios::trunc);
        if (!truncate) {
            std::fprintf(stderr, "cannot create journal %s\n",
                         state.options.journalPath.c_str());
            return 1;
        }
    }

    printFn();

    const RunnerCounters &counters = state.counters;
    if (counters.executed != 0 || counters.journalHits != 0) {
        std::printf("\nsweep: %llu executed, %llu from journal, "
                    "%llu retries, %llu timeouts, %llu failed",
                    static_cast<unsigned long long>(counters.executed),
                    static_cast<unsigned long long>(
                        counters.journalHits),
                    static_cast<unsigned long long>(counters.retries),
                    static_cast<unsigned long long>(counters.timeouts),
                    static_cast<unsigned long long>(counters.failures));
        if (counters.backoffs != 0)
            std::printf(", %llu backoffs (%llu ms slept)",
                        static_cast<unsigned long long>(
                            counters.backoffs),
                        static_cast<unsigned long long>(
                            counters.backoffMs));
        if (state.journalBadLines != 0)
            std::printf(", %llu journal lines salvaged",
                        static_cast<unsigned long long>(
                            state.journalBadLines));
        std::printf("\n");
    }
    if (state.traceStore.hits != 0 || state.traceStore.misses != 0) {
        const TraceStoreStats &ts = state.traceStore;
        std::printf("trace store: %llu hits, %llu generated "
                    "(%.1f MiB), %llu evicted, peak %.1f MiB, "
                    "%.1f MiB resident\n",
                    static_cast<unsigned long long>(ts.hits),
                    static_cast<unsigned long long>(ts.misses),
                    static_cast<double>(ts.bytesGenerated) /
                        (1024.0 * 1024.0),
                    static_cast<unsigned long long>(ts.evictions),
                    static_cast<double>(ts.bytesPeak) /
                        (1024.0 * 1024.0),
                    static_cast<double>(ts.bytesCached) /
                        (1024.0 * 1024.0));
    }
    for (const auto &failure : state.failures)
        std::fprintf(stderr, "failed job %s: %s\n",
                     failure.key.c_str(), failure.error.c_str());

    if (!state.options.noJson) {
        if (auto written =
                writeFileAtomic(state.options.outPath, benchJson());
            !written) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         state.options.outPath.c_str(),
                         written.error().str().c_str());
            return 1;
        }
    }

    // Spans flush again at exit; flushing here surfaces write errors
    // while we can still report them, and prints the path once.
    if (obs::traceEventsEnabled()) {
        if (auto flushed = obs::flushTraceEvents(); !flushed) {
            std::fprintf(stderr, "cannot write trace events: %s\n",
                         flushed.error().str().c_str());
            return 1;
        }
        std::printf("trace events: wrote %s\n",
                    obs::traceEventsPath().c_str());
    }
    return state.failures.empty() ? 0 : 3;
}

} // namespace clap::bench

#endif // CLAP_BENCH_BENCH_UTIL_HH
