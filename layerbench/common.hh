/**
 * @file
 * Shared pieces of the layer-budget benchmark: clocks, percentiles,
 * process resource readings, the metric sink, the seed-derived trace
 * inputs, the timing wrapper around the predictor (core layer) and
 * the in-memory span log of the traced run.
 *
 * Everything here measures the program from outside: it times calls
 * into public functions and reads counters the program already
 * exports. Nothing is added inside src/.
 */

#ifndef CLAP_LAYERBENCH_COMMON_HH
#define CLAP_LAYERBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "obs/metrics.hh"
#include "sim/metrics.hh"
#include "trace/trace.hh"
#include "workloads/composer.hh"

namespace clap::layerbench
{

/** The seed at which every trace keeps its catalog seed, so the
 *  benchmark reproduces the committed paper figures. */
constexpr std::uint64_t kDefaultSeed = 0;

/** Share of the client-observed predict time by which the layers'
 *  self times may over-claim before the conservation check fails. */
constexpr double kConservationTolerance = 0.05;

/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetupReps = 7;

/** Command-line options shared by every workload. Each trace is
 *  defaultTraceLength() instructions long (CLAP_TRACE_INSTS). */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;

    /** Length of each measured window. A traced run measures two in
     *  its time, untraced and then traced. */
    double window() const { return trace ? seconds / 2 : seconds; }
};

/** Where the traced run of @p workload writes its spans, as JSON
 *  lines: .bench_run/<workload>.spans.jsonl (the directory is made). */
std::string spansPath(const std::string &workload);

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Cost of one back-to-back nowNs() pair: the median of many pairs
 *  read now. Timings subtract it to report the timed call alone. */
double measureClockPairNs();

/** @p value minus the clock cost @p clock_ns, never below 0. */
inline double
netOfClock(double value, double clock_ns)
{
    return value > clock_ns ? value - clock_ns : 0.0;
}

/** Nearest-rank percentile of @p samples (copied; 0 when empty). */
double percentile(std::vector<std::uint32_t> samples, double q);
double percentileD(std::vector<double> samples, double q);
inline double median(std::vector<double> v) { return percentileD(std::move(v), 0.5); }

/** Print each set-up time of @p workload and return their median. */
double reportSetups(const char *workload, const std::vector<double> &setups);

/**
 * Exact distribution of nanosecond timings in fixed memory: one
 * counter per nanosecond below 65536 ns, a list above. Unlike a
 * growing sample vector, its footprint does not depend on how many
 * samples a run takes, so it leaves peak_rss_mb alone.
 */
class NsHistogram
{
  public:
    void
    add(const std::vector<std::uint32_t> &samples)
    {
        for (std::uint32_t ns : samples) {
            if (ns < counts_.size())
                ++counts_[ns];
            else
                overflow_.push_back(ns);
        }
        total_ += samples.size();
    }

    /** Percentile (0 when empty). Below 65536 ns it interpolates
     *  within the 1-ns bucket, since the clock truncates each timing
     *  to whole nanoseconds; above, nearest rank. */
    double percentile(double q) const;

    std::uint64_t count() const { return total_; }

  private:
    std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(1u << 16);
    std::vector<std::uint32_t> overflow_;
    std::uint64_t total_ = 0;
};

/**
 * Pin this process, and so every thread and child process it starts
 * later, to one CPU: the highest-numbered one it may run on. Returns
 * that CPU, or -1 when the affinity cannot be read or set.
 *
 * On a virtual machine a thread hand-off to a thread on another,
 * idle vCPU wakes that vCPU through the hypervisor, and what that
 * costs depends on the rest of the host. On one CPU every hand-off
 * is a plain context switch, so the service workloads measure the
 * program's own cost per load.
 */
int pinToOneCpu();

/** User+system CPU seconds of this process, all threads. */
double selfCpuSeconds();
/** CPU seconds of the calling thread. */
double threadCpuSeconds();
/** User+system CPU seconds of a live child process (0 if gone). */
double childCpuSeconds(int pid);
/** Peak resident set of this process in MB. */
double selfPeakRssMb();
/** Peak resident set (VmHWM) of a live child process in MB. */
double childPeakRssMb(int pid);

using MetricNames = std::vector<std::pair<std::string, std::string>>;

/**
 * Ordered name -> (value, unit) sink the result line is built from.
 * Every named metric must be set by the workload, or declared not
 * measured on it because its layer does no work there.
 */
class MetricSink
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        values_[name] = {value, unit};
    }
    double get(const std::string &name) const;

    /** Declare every metric whose name starts with one of @p prefixes
     *  not measured on this workload; it prints 0. */
    void notMeasured(std::vector<std::string> prefixes);

    /** The names in @p names declared not measured. */
    std::vector<std::string> skipped(const MetricNames &names) const;

    /** What is wrong with @p names: a metric neither set nor declared
     *  not measured, one both set and declared, or a value that is not
     *  finite. Empty when all is well. */
    std::vector<std::string> problems(const MetricNames &names) const;

    /** JSON object of the named metrics; the ones not set read 0. */
    std::string json(const MetricNames &names) const;

  private:
    bool isSkipped(const std::string &name) const;

    std::map<std::string, std::pair<double, std::string>> values_;
    std::vector<std::string> skippedPrefixes_;
};

/** Every end-to-end metric (trace 0) and per-layer metric (trace 1),
 *  by name and unit, in BENCHMARK.json order. */
const MetricNames &endToEndMetrics();
const MetricNames &perLayerMetrics();

/** Result of one workload run, printed as the last stdout line. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0; ///< predicts + trains attempted
    std::uint64_t failed = 0;    ///< ... that failed or were refused
    std::vector<std::string> problems; ///< failed output checks
    MetricSink metrics;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            problems.push_back(what);
        }
    }
};

/// @name Seed-derived inputs
/// @{

/** A catalog trace seed under workload seed @p seed (identity at
 *  kDefaultSeed). */
std::uint64_t deriveTraceSeed(std::uint64_t catalog_seed,
                              std::uint64_t seed);

/** The whole catalog with seeds derived from @p seed. */
std::vector<TraceSpec> catalogSpecs(std::uint64_t seed);

/** The first member of each named suite with derived seeds, in a
 *  client order dealt by @p seed (suite order at kDefaultSeed). */
std::vector<TraceSpec> clientSpecs(const std::vector<std::string> &suites,
                                   std::uint64_t seed);

/** Generated inputs of one set-up. */
struct Inputs
{
    std::vector<std::shared_ptr<const Trace>> traces;
    double generateSeconds = 0.0;
    std::uint64_t bytesPeak = 0;
};

/** Generate @p specs at defaultTraceLength() instructions each
 *  through a private TraceStore. Callers release the previous
 *  set-up's inputs first. */
Inputs generateInputs(const std::vector<TraceSpec> &specs);

/**
 * Prediction quality of the traces a service workload serves, exact
 * per seed: a deterministic @p shards-shard service replay of every
 * whole trace, checked bit for bit against PredictorSim (immediate
 * model), and the PredictorSim gap-8 statistics of the same traces.
 * The live window's own tallies depend on how far each client got,
 * so they are not used.
 */
struct Quality
{
    PredictionStats immediate;
    PredictionStats gap;
};
Quality serviceQuality(const Inputs &inputs, unsigned shards,
                       RunResult &result);

/** Set spec_rate / spec_accuracy / gap_spec_* from @p quality. */
void reportQuality(MetricSink &sink, const Quality &quality);
/// @}

/**
 * Forwarding AddressPredictor that times the wrapped predictor's
 * predict() and update() calls (the core layer). One call of each
 * kind in @p sample_every is timed and kept as a sample, clock reads
 * included; coreNs() takes them out and scales the timed calls up to
 * all calls, so the clock reads cost a share of a call each. Not thread-safe: one
 * wrapper per predictor, called under whatever lock guards it.
 */
class TimedPredictor final : public AddressPredictor
{
  public:
    TimedPredictor(std::unique_ptr<AddressPredictor> inner,
                   unsigned sample_every)
        : inner_(std::move(inner)), sampleEvery_(sample_every)
    {
    }

    Prediction
    predict(const LoadInfo &info) override
    {
        if (!predict_.due(sampleEvery_))
            return inner_->predict(info);
        const std::uint64_t begin = nowNs();
        Prediction pred = inner_->predict(info);
        predict_.record(nowNs() - begin);
        return pred;
    }

    void
    update(const LoadInfo &info, std::uint64_t actual_addr,
           const Prediction &pred) override
    {
        if (!update_.due(sampleEvery_)) {
            inner_->update(info, actual_addr, pred);
            return;
        }
        const std::uint64_t begin = nowNs();
        inner_->update(info, actual_addr, pred);
        update_.record(nowNs() - begin);
    }

    std::string name() const override { return inner_->name(); }
    Expected<void> audit() const override { return inner_->audit(); }
    PredictorTelemetry
    snapshotTelemetry() const override
    {
        return inner_->snapshotTelemetry();
    }

    /** Estimated time in the wrapped predictor over all calls, given
     *  the clock cost @p clock_ns of one timing. */
    std::uint64_t
    coreNs(double clock_ns) const
    {
        return predict_.estimateNs(clock_ns) + update_.estimateNs(clock_ns);
    }
    const std::vector<std::uint32_t> &predictSamples() const { return predict_.samples; }
    const std::vector<std::uint32_t> &updateSamples() const { return update_.samples; }

  private:
    struct Calls
    {
        std::uint64_t calls = 0;
        unsigned untilTimed = 1; ///< countdown to the next timed call
        std::uint64_t timedNs = 0;
        std::vector<std::uint32_t> samples;

        /** Count a call; true when it is one to time. */
        bool
        due(unsigned every)
        {
            ++calls;
            if (--untilTimed != 0)
                return false;
            untilTimed = every;
            return true;
        }

        void
        record(std::uint64_t ns)
        {
            timedNs += ns;
            samples.push_back(static_cast<std::uint32_t>(
                std::min<std::uint64_t>(ns, UINT32_MAX)));
        }

        std::uint64_t
        estimateNs(double clock_ns) const
        {
            if (samples.empty())
                return 0;
            const double n = static_cast<double>(samples.size());
            const double net = netOfClock(static_cast<double>(timedNs),
                                          clock_ns * n);
            return static_cast<std::uint64_t>(
                net * static_cast<double>(calls) / n);
        }
    };

    std::unique_ptr<AddressPredictor> inner_;
    unsigned sampleEvery_;
    Calls predict_;
    Calls update_;
};

/**
 * The traced run's spans, kept in memory and written at the end. A
 * span is (name, trace id, span id, parent id, start, end); spans of
 * one request share a trace id. Beyond the capacity spans are
 * counted as dropped, never stored.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t traceId = 0;
        std::uint64_t spanId = 0;
        std::uint64_t parentId = 0; ///< 0 = root
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };

    explicit SpanLog(std::size_t capacity = 1u << 16) : capacity_(capacity) {}

    /** Open a span; returns its id (0 if dropped). */
    std::uint64_t open(std::string name, std::uint64_t trace_id,
                       std::uint64_t parent_id, std::uint64_t start_ns);

    /** Close span @p span_id (a dropped span's id 0 is ignored). */
    void close(std::uint64_t span_id, std::uint64_t end_ns);

    /** Record a finished span; returns its id (0 if dropped). */
    std::uint64_t
    add(std::string name, std::uint64_t trace_id, std::uint64_t parent_id,
        std::uint64_t start_ns, std::uint64_t end_ns)
    {
        const std::uint64_t id =
            open(std::move(name), trace_id, parent_id, start_ns);
        close(id, end_ns);
        return id;
    }

    /** Sum, over every span named @p name, of its duration minus the
     *  part of it its children cover (union of their intervals). */
    std::uint64_t selfNsByName(const std::string &name) const;

    /** Sum of the durations of every span named @p name. */
    std::uint64_t totalNsByName(const std::string &name) const;

    std::uint64_t dropped() const { return dropped_; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as JSON lines to @p path (appended to it
     *  with @p append). */
    bool write(const std::string &path, bool append = false) const;

  private:
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    std::vector<Span> spans_; ///< spans_[id - 1]
};

/** Per-bucket difference of two snapshots of one log2 histogram. */
obs::HistogramSnapshot histogramDelta(const obs::HistogramSnapshot &after,
                                      const obs::HistogramSnapshot &before);

/** Mean of a histogram's values (0 when empty). */
double meanOf(const obs::HistogramSnapshot &hist);

/** Mean of samples (0 when empty). */
double meanOf(const std::vector<std::uint32_t> &samples);

/** A registry histogram of this process by name (empty if absent). */
obs::HistogramSnapshot localHistogram(const std::string &name);

/** Set @p prefix.p50 / .p99 from a histogram (values in its unit). */
void setQuantiles(MetricSink &sink, const std::string &prefix,
                  const obs::HistogramSnapshot &hist,
                  const std::string &unit);

/** Fold a predictor's telemetry into the core.* counts. */
struct CoreCounts
{
    PredictionStats stats;
    std::uint64_t ltLinkWrites = 0;
    std::uint64_t ltPfRejected = 0;
    std::uint64_t capConfVetoes = 0;
    std::uint64_t capTagVetoes = 0;
    std::uint64_t capPathVetoes = 0;

    void addTelemetry(const PredictorTelemetry &t);
    void report(MetricSink &sink) const;
};

/// @name Workloads (each fills @p result; traced runs fill per-layer)
/// @{
void runReplay(const Options &options, RunResult &result);
void runServe(const Options &options, RunResult &result);
void runFleet(const Options &options, RunResult &result);
/// @}

} // namespace clap::layerbench

#endif // CLAP_LAYERBENCH_COMMON_HH
