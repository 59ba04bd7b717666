/**
 * @file
 * `replay`: the paper sweep as its users run it. All catalog traces,
 * the hybrid predictor, a fresh predictor per replay, one thread
 * through the sweep runner; each trace runs once in the immediate
 * model and once at gap 8. A sweep is the unit of work: the run
 * repeats sweeps until its time is up. Its rate is that of a sweep
 * whose every job takes the best of its repetitions in the run.
 */

#include <cstdio>
#include <functional>
#include <memory>

#include "common.hh"
#include "core/hybrid_predictor.hh"
#include "runner/runner.hh"
#include "sim/predictor_sim.hh"
#include "workloads/suites.hh"

namespace clap::layerbench
{

namespace
{

constexpr unsigned kGapCycles = 8;   ///< Fig. 11 headline gap
constexpr unsigned kSampleEvery = 8; ///< traced run: calls per timed call
constexpr unsigned kProbeEvery = 5;  ///< latency probe: calls per timed call

/** What a traced job leaves behind (filled on the runner thread). */
struct JobTrace
{
    std::uint64_t jobStart = 0;
    std::uint64_t simStart = 0;
    std::uint64_t simEnd = 0;
    std::uint64_t jobEnd = 0;
    std::uint64_t coreNs = 0;
    PredictorTelemetry telemetry;
};

/** Wall and thread-CPU time of one untraced job in the last sweep. */
struct JobClock
{
    std::uint64_t wallNs = 0;
    double cpuSeconds = 0.0;
};

/** Per-run traced state: one slot per job, plus the core timings. */
struct Tracing
{
    double clockNs = 0.0; ///< cost of one timing, taken out of core time
    std::vector<JobTrace> jobs;
    NsHistogram predictNs;
    NsHistogram updateNs;
};

std::unique_ptr<AddressPredictor>
hybrid(bool pipelined)
{
    HybridConfig config;
    config.pipelined = pipelined;
    return std::make_unique<HybridPredictor>(config);
}

/** The sweep: jobs [0, n) immediate, [n, 2n) gap 8. Untraced jobs
 *  time themselves into @p clocks; traced ones into @p tracing. */
std::vector<SweepJob>
makeJobs(const Inputs &inputs, std::vector<JobClock> *clocks,
         Tracing *tracing)
{
    const std::size_t n = inputs.traces.size();
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < 2 * n; ++i) {
        const bool gap = i >= n;
        std::shared_ptr<const Trace> trace = inputs.traces[i % n];
        SweepJob job;
        job.key = (gap ? "gap8/" : "immediate/") + trace->name();
        job.run = [trace, gap, clocks, tracing,
                   i](const JobContext &ctx) -> Expected<JobResult> {
            JobTrace *slot = tracing ? &tracing->jobs[i] : nullptr;
            if (slot)
                slot->jobStart = nowNs();
            PredictorSimConfig sim;
            sim.gapCycles = gap ? kGapCycles : 0;
            sim.cancel = ctx.cancel;
            JobResult result;
            result.hasStats = true;
            if (!slot) {
                JobClock &clock = (*clocks)[i];
                const double cpu0 = threadCpuSeconds();
                const std::uint64_t begin = nowNs();
                auto predictor = hybrid(gap);
                result.stats = runPredictorSim(*trace, *predictor, sim);
                clock.wallNs = nowNs() - begin;
                clock.cpuSeconds = threadCpuSeconds() - cpu0;
                return result;
            }
            TimedPredictor predictor(hybrid(gap), kSampleEvery);
            slot->simStart = nowNs();
            result.stats = runPredictorSim(*trace, predictor, sim);
            slot->simEnd = nowNs();
            slot->coreNs = predictor.coreNs(tracing->clockNs);
            slot->telemetry = predictor.snapshotTelemetry();
            tracing->predictNs.add(predictor.predictSamples());
            tracing->updateNs.add(predictor.updateSamples());
            slot->jobEnd = nowNs();
            return result;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

struct SweepOutcome
{
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t loads = 0;
    std::uint64_t failedJobs = 0;
    double cpuSeconds = 0.0;
    std::vector<PredictionStats> perJob; ///< zeroed for failed jobs
    std::vector<JobClock> clocks;        ///< untraced sweeps only

    double seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

SweepOutcome
runSweep(const std::vector<SweepJob> &jobs,
         const std::vector<JobClock> *clocks)
{
    RunnerConfig config;
    config.threads = 1;
    SweepRunner runner(config);
    SweepOutcome out;
    const double cpu0 = selfCpuSeconds();
    out.startNs = nowNs();
    const SweepReport report = runner.run(jobs);
    out.endNs = nowNs();
    out.cpuSeconds = selfCpuSeconds() - cpu0;
    if (clocks)
        out.clocks = *clocks;
    for (const JobOutcome &outcome : report.outcomes) {
        out.perJob.push_back(outcome.ok ? outcome.result.stats
                                        : PredictionStats{});
        if (outcome.ok)
            out.loads += outcome.result.stats.loads;
        else
            ++out.failedJobs;
    }
    if (!report.status)
        out.failedJobs += jobs.size() - report.outcomes.size();
    return out;
}

std::uint64_t
countLoads(const Trace &trace)
{
    std::uint64_t loads = 0;
    for (const TraceRecord &rec : trace.records())
        loads += rec.isLoad() ? 1 : 0;
    return loads;
}

/** Sweeps until @p seconds have passed (at least one sweep), calling
 *  @p between after each one, outside its timing but inside the
 *  window. */
std::vector<SweepOutcome>
sweepFor(const std::vector<SweepJob> &jobs,
         const std::vector<JobClock> *clocks, double seconds,
         const std::function<void(const SweepOutcome &)> &between)
{
    std::vector<SweepOutcome> sweeps;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
        sweeps.push_back(runSweep(jobs, clocks));
        between(sweeps.back());
    } while (nowNs() < deadline);
    return sweeps;
}

/** The core layer's per-call latency: one immediate pass over every
 *  trace through a timing wrapper, which must leave the statistics of
 *  @p sweep unchanged. */
void
probeLatency(const Inputs &inputs, const SweepOutcome &sweep,
             NsHistogram &predictNs, NsHistogram &updateNs,
             RunResult &result)
{
    for (std::size_t t = 0; t < inputs.traces.size(); ++t) {
        TimedPredictor predictor(hybrid(false), kProbeEvery);
        const PredictionStats stats =
            runPredictorSim(*inputs.traces[t], predictor);
        result.check(stats == sweep.perJob[t],
                     "replay: timed predictor changed the stats");
        predictNs.add(predictor.predictSamples());
        updateNs.add(predictor.updateSamples());
    }
}

/** Wall and CPU seconds of a sweep whose every job takes the best of
 *  its repetitions in @p sweeps. The host's interference only adds
 *  time, and it comes and goes within seconds, so a job's fastest
 *  repetition is the one nearest its own cost. The runner's share,
 *  sweep time minus job time, is the median over the sweeps. */
struct BestSweep
{
    double seconds = 0.0;
    double cpuSeconds = 0.0;
};

BestSweep
bestSweep(const std::vector<SweepOutcome> &sweeps)
{
    BestSweep best;
    const std::size_t jobs = sweeps.front().clocks.size();
    for (std::size_t j = 0; j < jobs; ++j) {
        std::uint64_t wall = UINT64_MAX;
        double cpu = 1e300;
        for (const SweepOutcome &s : sweeps) {
            wall = std::min(wall, s.clocks[j].wallNs);
            cpu = std::min(cpu, s.clocks[j].cpuSeconds);
        }
        best.seconds += static_cast<double>(wall) * 1e-9;
        best.cpuSeconds += cpu;
    }
    std::vector<double> runnerWall;
    std::vector<double> runnerCpu;
    for (const SweepOutcome &s : sweeps) {
        double wall = s.seconds();
        double cpu = s.cpuSeconds;
        for (const JobClock &clock : s.clocks) {
            wall -= static_cast<double>(clock.wallNs) * 1e-9;
            cpu -= clock.cpuSeconds;
        }
        runnerWall.push_back(std::max(wall, 0.0));
        runnerCpu.push_back(std::max(cpu, 0.0));
    }
    best.seconds += median(runnerWall);
    best.cpuSeconds += median(runnerCpu);
    return best;
}

double
medianRate(const std::vector<SweepOutcome> &sweeps)
{
    std::vector<double> rates;
    for (const SweepOutcome &s : sweeps)
        rates.push_back(static_cast<double>(s.loads) / s.seconds());
    return median(rates);
}

/** Output checks and op counts over a window of sweeps. The first
 *  sweep ever run is the reference every later one must repeat. */
void
checkSweeps(const std::vector<SweepOutcome> &sweeps,
            const std::vector<PredictionStats> &reference,
            const std::vector<std::uint64_t> &jobLoads, RunResult &result)
{
    for (const SweepOutcome &s : sweeps) {
        for (std::size_t j = 0; j < s.perJob.size(); ++j) {
            // Each load is one predict and one update.
            result.attempted += 2 * jobLoads[j];
            if (s.perJob[j].loads != jobLoads[j])
                result.failed += 2 * jobLoads[j];
        }
        result.check(s.failedJobs == 0, "replay: a sweep job failed");
        result.check(s.perJob == reference,
                     "replay: stats differ between sweeps of one seed");
    }
}

PredictionStats
merged(const std::vector<PredictionStats> &perJob, std::size_t from,
       std::size_t to)
{
    PredictionStats total;
    for (std::size_t j = from; j < to; ++j)
        total.merge(perJob[j]);
    return total;
}

} // namespace

void
runReplay(const Options &options, RunResult &result)
{
    MetricSink &m = result.metrics;
    // No service, wire or replica runs here.
    m.notMeasured({"serve.", "net.", "replica.", "obs.joined_spans",
                   "obs.conservation.", "obs.unattributed_frac"});
    const std::vector<TraceSpec> specs = catalogSpecs(options.seed);

    // Set-up: trace generation, repeated; the last set-up is kept.
    Inputs inputs;
    std::vector<double> setups;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        inputs = Inputs{};
        inputs = generateInputs(specs);
        setups.push_back(inputs.generateSeconds);
    }
    const std::size_t n = inputs.traces.size();
    std::vector<std::uint64_t> jobLoads;
    for (std::size_t j = 0; j < 2 * n; ++j)
        jobLoads.push_back(countLoads(*inputs.traces[j % n]));

    // Untraced runs probe the core layer's per-call latency between
    // sweeps, so the probe samples the host across the whole window
    // while the sweep timings exclude it.
    std::vector<JobClock> clocks(2 * n);
    const std::vector<SweepJob> plainJobs = makeJobs(inputs, &clocks, nullptr);
    NsHistogram probePredictNs;
    NsHistogram probeUpdateNs;
    const std::vector<SweepOutcome> sweeps = sweepFor(
        plainJobs, &clocks, options.window(), [&](const SweepOutcome &sweep) {
            if (!options.trace)
                probeLatency(inputs, sweep, probePredictNs, probeUpdateNs,
                             result);
        });
    const std::vector<PredictionStats> reference = sweeps.front().perJob;
    checkSweeps(sweeps, reference, jobLoads, result);
    const double untracedRate = medianRate(sweeps);

    const PredictionStats immediate = merged(reference, 0, n);
    const PredictionStats gapped = merged(reference, n, 2 * n);
    std::printf("replay: %zu traces x %zu insts, %zu sweeps, immediate "
                "spec %llu / %llu loads (correct %llu), gap8 spec %llu "
                "(correct %llu)\n",
                n, defaultTraceLength(), sweeps.size(),
                static_cast<unsigned long long>(immediate.spec),
                static_cast<unsigned long long>(immediate.loads),
                static_cast<unsigned long long>(immediate.specCorrect),
                static_cast<unsigned long long>(gapped.spec),
                static_cast<unsigned long long>(gapped.specCorrect));

    const double generate = reportSetups("replay", setups);
    m.set("setup_s", generate, "s");
    m.set("workloads.generate_s", generate, "s");
    m.set("trace.bytes_peak", static_cast<double>(inputs.bytesPeak),
          "bytes");

    if (!options.trace) {
        const BestSweep best = bestSweep(sweeps);
        const double loads = static_cast<double>(sweeps.front().loads);
        std::printf("replay: best-of-%zu sweep %.3f s wall, %.3f s cpu; "
                    "median sweep %.3f s\n",
                    sweeps.size(), best.seconds, best.cpuSeconds,
                    loads / untracedRate);
        m.set("loads_per_s", loads / best.seconds, "1/s");
        m.set("cpu_us_per_load", best.cpuSeconds * 1e6 / loads, "us");
        m.set("spec_rate", immediate.predictionRate(), "ratio");
        m.set("spec_accuracy", immediate.accuracy(), "ratio");
        m.set("gap_spec_rate", gapped.predictionRate(), "ratio");
        m.set("gap_spec_accuracy", gapped.accuracy(), "ratio");

        // As timed, over every probe pass, with the clock pair's own
        // cost (~40 ns) included: that cost is spread too widely for
        // its median to be taken out of a ~100 ns call without adding
        // run-to-run noise.
        auto us = [](const NsHistogram &h, double q) {
            return h.percentile(q) / 1e3;
        };
        m.set("predict_p50_us", us(probePredictNs, 0.50), "us");
        m.set("predict_p99_us", us(probePredictNs, 0.99), "us");
        m.set("train_p99_us", us(probeUpdateNs, 0.99), "us");
        std::printf("replay: latency probe timed %llu predicts, %llu "
                    "updates\n",
                    static_cast<unsigned long long>(probePredictNs.count()),
                    static_cast<unsigned long long>(probeUpdateNs.count()));
        m.set("peak_rss_mb", selfPeakRssMb(), "MB");
        return;
    }

    // Traced window: the same sweeps with each layer boundary in a
    // span: runner.sweep > runner.job > sim.{immediate,gap} > core.
    Tracing tracing;
    tracing.clockNs = median({measureClockPairNs(), measureClockPairNs(),
                              measureClockPairNs()});
    tracing.jobs.resize(2 * n);
    const std::vector<SweepJob> tracedJobs =
        makeJobs(inputs, nullptr, &tracing);
    SpanLog spans;
    CoreCounts core;
    std::uint64_t traceId = 0;
    const std::vector<SweepOutcome> traced = sweepFor(
        tracedJobs, nullptr, options.window(), [&](const SweepOutcome &s) {
            ++traceId;
            const std::uint64_t sweepSpan =
                spans.add("runner.sweep", traceId, 0, s.startNs, s.endNs);
            for (std::size_t j = 0; j < tracing.jobs.size(); ++j) {
                const JobTrace &jt = tracing.jobs[j];
                const std::uint64_t jobSpan =
                    spans.add("runner.job", traceId, sweepSpan,
                              jt.jobStart, jt.jobEnd);
                const std::uint64_t simSpan =
                    spans.add(j < n ? "sim.immediate" : "sim.gap", traceId,
                              jobSpan, jt.simStart, jt.simEnd);
                // The core calls interleave with the sim loop; their
                // union is their summed time, placed at the sim start.
                spans.add("core", traceId, simSpan, jt.simStart,
                          jt.simStart + jt.coreNs);
                if (traceId == 1)
                    core.addTelemetry(jt.telemetry);
            }
        });
    checkSweeps(traced, reference, jobLoads, result);

    const double sweepsRun = static_cast<double>(traced.size());
    const double tracedRate = medianRate(traced);
    core.stats = merged(reference, 0, 2 * n);
    core.report(m);
    auto ns = [&](const NsHistogram &h, double q) {
        return netOfClock(h.percentile(q), tracing.clockNs);
    };
    m.set("core.predict_ns.p50", ns(tracing.predictNs, 0.50), "ns");
    m.set("core.predict_ns.p99", ns(tracing.predictNs, 0.99), "ns");
    m.set("core.update_ns.p50", ns(tracing.updateNs, 0.50), "ns");
    m.set("core.update_ns.p99", ns(tracing.updateNs, 0.99), "ns");
    auto perSweepSeconds = [&](std::uint64_t ns) {
        return static_cast<double>(ns) * 1e-9 / sweepsRun;
    };
    m.set("sim.self_s", perSweepSeconds(spans.selfNsByName("sim.immediate")),
          "s");
    m.set("sim.gap_self_s", perSweepSeconds(spans.selfNsByName("sim.gap")),
          "s");
    m.set("runner.overhead_s",
          perSweepSeconds(spans.selfNsByName("runner.sweep")), "s");
    m.set("runner.sweep_s",
          perSweepSeconds(spans.totalNsByName("runner.sweep")), "s");
    m.set("obs.untraced_loads_per_s", untracedRate, "1/s");
    m.set("obs.trace_overhead_frac", 1.0 - tracedRate / untracedRate,
          "ratio");
    m.set("obs.spans_dropped", static_cast<double>(spans.dropped()),
          "count");
    const std::string path = spansPath("replay");
    result.check(spans.write(path), "replay: cannot write " + path);
}

} // namespace clap::layerbench
