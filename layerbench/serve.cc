/**
 * @file
 * `serve`: an in-process PredictionService with 4 shards and the
 * Block overload policy; 4 client threads each replay one
 * representative trace (INT, MM, TPC, NT) as predict-then-train, the
 * same number of loads each. The shard handoff dominates; net and
 * replica are bypassed.
 */

#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "clients.hh"
#include "core/hybrid_predictor.hh"
#include "serve/service.hh"
#include "workloads/suites.hh"

namespace clap::layerbench
{

namespace
{

constexpr unsigned kShards = 4;
constexpr std::uint64_t kRoundLoads = 4096;  ///< per client per round
constexpr std::uint64_t kProbeLoads = 1024;  ///< per client, probes

struct ServeApi
{
    ClientSession session;

    Expected<Prediction>
    predict(const TraceRecord &rec)
    {
        return session.predict(rec.pc, rec.immOffset);
    }
    Expected<void>
    train(const TraceRecord &rec, const Prediction &pred)
    {
        return session.train(rec.pc, rec.immOffset, rec.effAddr, pred);
    }
    void branch(bool taken) { session.observeBranch(taken); }
    void call(std::uint64_t pc) { session.observeCall(pc); }
};

ServiceConfig
serviceConfig()
{
    ServiceConfig config;
    config.shards = kShards;
    config.overload = OverloadPolicy::Block;
    return config;
}

std::unique_ptr<AddressPredictor>
hybrid()
{
    return std::make_unique<HybridPredictor>(HybridConfig{});
}

/** Wait until the shards have applied every train the clients sent. A
 *  train returns once queued, so the shards may still be behind. */
void
awaitTrains(const PredictionService &service,
            const std::vector<FrontEnd<ServeApi> *> &clients)
{
    std::uint64_t sent = 0;
    for (const auto *c : clients)
        sent += c->trainsOk;
    for (;;) {
        std::uint64_t applied = 0;
        for (const ShardSnapshot &snap : service.snapshot())
            applied += snap.trains;
        if (applied >= sent)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** One measured window against a fresh service. */
struct Window
{
    std::vector<RoundSample> rounds;
    std::uint64_t roundLoads = 0; ///< all clients
};

/**
 * Measure one window. @p timed wraps every shard predictor in a
 * TimedPredictor and records the traced run's per-layer metrics.
 */
Window
measure(const Options &options, const Inputs &inputs, bool timed,
        RunResult &result)
{
    std::mutex wrappersMutex;
    std::vector<TimedPredictor *> wrappers; // owned by the service
    PredictorFactory factory = [&]() -> std::unique_ptr<AddressPredictor> {
        if (!timed)
            return hybrid();
        auto wrapper = std::make_unique<TimedPredictor>(hybrid(), 8);
        std::lock_guard<std::mutex> lock(wrappersMutex);
        wrappers.push_back(wrapper.get());
        return wrapper;
    };
    PredictionService service(serviceConfig(), factory);

    std::vector<std::unique_ptr<FrontEnd<ServeApi>>> owned;
    std::vector<FrontEnd<ServeApi> *> clients;
    for (unsigned c = 0; c < inputs.traces.size(); ++c) {
        owned.push_back(std::make_unique<FrontEnd<ServeApi>>(
            ServeApi{service.connect()}, *inputs.traces[c], c));
        clients.push_back(owned.back().get());
    }

    Window w;
    MetricSink &m = result.metrics;
    {
        LockStepRounds<ServeApi> rounds(clients);
        rounds.round(kRoundLoads, Phase::PredictTrain, false, false);

        const obs::HistogramSnapshot wait0 =
            localHistogram("serve.stage.queue_wait_ns");
        const obs::HistogramSnapshot compute0 =
            localHistogram("serve.stage.compute_ns");
        w.rounds = rounds.measure(kRoundLoads, options.window(), timed,
                                  selfCpuSeconds);
        w.roundLoads = kRoundLoads * clients.size();

        if (timed) {
            setQuantiles(m, "serve.stage.queue_wait_ns",
                         histogramDelta(localHistogram(
                                            "serve.stage.queue_wait_ns"),
                                        wait0),
                         "ns");
            setQuantiles(m, "serve.stage.compute_ns",
                         histogramDelta(
                             localHistogram("serve.stage.compute_ns"),
                             compute0),
                         "ns");
            CoreCounts core;
            std::uint64_t requests = 0;
            std::uint64_t batches = 0;
            std::size_t depth = 0;
            for (const ShardSnapshot &snap : service.snapshot()) {
                core.stats.merge(snap.stats);
                core.addTelemetry(snap.telemetry);
                requests += snap.predicts + snap.trains;
                batches += snap.batches;
                depth = std::max(depth, snap.maxQueueDepth);
            }
            core.report(m);
            m.set("serve.requests_per_batch",
                  batches == 0 ? 0.0
                               : static_cast<double>(requests) /
                          static_cast<double>(batches),
                  "ratio");
            m.set("serve.batches", static_cast<double>(batches), "count");
            m.set("serve.queue_depth_max", static_cast<double>(depth),
                  "count");

            // Conservation probe: predicts only, so the stage
            // histograms hold nothing but the predict path.
            awaitTrains(service, clients);
            const obs::HistogramSnapshot pw0 =
                localHistogram("serve.stage.queue_wait_ns");
            const obs::HistogramSnapshot pc0 =
                localHistogram("serve.stage.compute_ns");
            rounds.round(kProbeLoads, Phase::PredictOnly, true, false);
            const obs::HistogramSnapshot waitProbe = histogramDelta(
                localHistogram("serve.stage.queue_wait_ns"), pw0);
            const obs::HistogramSnapshot computeProbe = histogramDelta(
                localHistogram("serve.stage.compute_ns"), pc0);
            rounds.round(0, Phase::TrainOnly, false, false);
            std::vector<std::uint32_t> probe;
            for (const auto *c : clients)
                probe.insert(probe.end(), c->probePredictNs.begin(),
                             c->probePredictNs.end());
            // The stage means stand for the client's predicts only if
            // the shards timed exactly those requests.
            result.check(waitProbe.count == probe.size() &&
                             computeProbe.count == probe.size(),
                         "serve: the stage histograms timed other "
                         "requests than the probe's predicts");
            const double wait = meanOf(waitProbe);
            const double compute = meanOf(computeProbe);
            const double client = meanOf(probe);
            const double attributed = wait + compute;
            m.set("obs.conservation.client_us", client / 1000.0, "us");
            m.set("obs.conservation.attributed_us", attributed / 1000.0,
                  "us");
            m.set("obs.unattributed_frac",
                  client == 0.0 ? 0.0 : 1.0 - attributed / client, "ratio");
            std::printf("serve: conservation per predict: client %.2f us = "
                        "queue_wait %.2f + compute %.2f + unattributed "
                        "%.2f us\n",
                        client / 1000.0, wait / 1000.0, compute / 1000.0,
                        (client - attributed) / 1000.0);
            result.check(attributed <=
                             client * (1.0 + kConservationTolerance),
                         "serve: layer self times exceed the client "
                         "predict time");
        }
    }
    service.stop();

    // The shards' own request counts must match what the clients were
    // answered, and the trained loads what the clients sent.
    std::uint64_t predictsOk = 0;
    std::uint64_t trainsOk = 0;
    std::uint64_t spansDropped = 0;
    for (const auto *c : clients) {
        predictsOk += c->predictsOk;
        trainsOk += c->trainsOk;
        spansDropped += c->spans.dropped();
    }
    std::uint64_t shardPredicts = 0;
    std::uint64_t shardTrains = 0;
    for (const ShardSnapshot &snap : service.snapshot()) {
        shardPredicts += snap.predicts;
        shardTrains += snap.trains;
    }
    countOps(clients, result);
    reportLatencies(w.rounds, w.roundLoads, timed, "serve", m);
    result.check(shardPredicts == predictsOk,
                 "serve: the shards processed a different number of "
                 "predicts than the clients were answered");
    result.check(shardTrains == trainsOk &&
                     service.aggregateStats().loads == trainsOk,
                 "serve: service trained a different number of loads "
                 "than the clients sent");
    result.check(service.health().hasValue(),
                 "serve: a shard audit failed");

    if (timed) {
        NsHistogram predictNs;
        NsHistogram updateNs;
        for (const TimedPredictor *t : wrappers) {
            predictNs.add(t->predictSamples());
            updateNs.add(t->updateSamples());
        }
        const double clock =
            median({measureClockPairNs(), measureClockPairNs(),
                    measureClockPairNs()});
        auto ns = [clock](const NsHistogram &h, double q) {
            return netOfClock(h.percentile(q), clock);
        };
        m.set("core.predict_ns.p50", ns(predictNs, 0.50), "ns");
        m.set("core.predict_ns.p99", ns(predictNs, 0.99), "ns");
        m.set("core.update_ns.p50", ns(updateNs, 0.50), "ns");
        m.set("core.update_ns.p99", ns(updateNs, 0.99), "ns");
        m.set("obs.spans_dropped", static_cast<double>(spansDropped),
              "count");
        writeSpans(clients, spansPath("serve"), result);
    }
    return w;
}

} // namespace

void
runServe(const Options &options, RunResult &result)
{
    MetricSink &m = result.metrics;
    // In process: no simulator sweep, wire or replica.
    m.notMeasured({"sim.", "runner.", "net.", "replica.", "obs.joined_spans"});
    const std::vector<TraceSpec> specs =
        clientSpecs({"INT", "MM", "TPC", "NT"}, options.seed);

    // Set-up: trace generation plus service start, repeated.
    Inputs inputs;
    std::vector<double> setups;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        const std::uint64_t begin = nowNs();
        inputs = Inputs{};
        inputs = generateInputs(specs);
        { PredictionService started(serviceConfig(), [] { return hybrid(); }); }
        setups.push_back(static_cast<double>(nowNs() - begin) * 1e-9);
    }
    m.set("setup_s", reportSetups("serve", setups), "s");
    m.set("workloads.generate_s", inputs.generateSeconds, "s");
    m.set("trace.bytes_peak", static_cast<double>(inputs.bytesPeak),
          "bytes");
    for (const TraceSpec &spec : specs)
        std::printf("serve: client trace %s seed %llu\n", spec.name.c_str(),
                    static_cast<unsigned long long>(spec.seed));

    const Window plain = measure(options, inputs, false, result);
    const double rate = medianOf(plain.rounds, &RoundSample::rate);
    std::printf("serve: %zu rounds of %llu loads, loads/s median %.0f\n",
                plain.rounds.size(),
                static_cast<unsigned long long>(plain.roundLoads), rate);

    if (options.trace) {
        const Window traced = measure(options, inputs, true, result);
        const double tracedRate = medianOf(traced.rounds, &RoundSample::rate);
        m.set("obs.untraced_loads_per_s", rate, "1/s");
        m.set("obs.trace_overhead_frac", 1.0 - tracedRate / rate, "ratio");
        return;
    }

    m.set("loads_per_s", rate, "1/s");
    m.set("cpu_us_per_load", medianOf(plain.rounds, &RoundSample::cpuUsPerLoad),
          "us");
    m.set("peak_rss_mb", selfPeakRssMb(), "MB");
    reportQuality(m, serviceQuality(inputs, kShards, result));
}

} // namespace clap::layerbench
