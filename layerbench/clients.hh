/**
 * @file
 * Closed-loop front ends for the service workloads. A front end
 * replays its trace as a fetch engine would: it needs each load's
 * prediction before the next load and trains every load in order.
 * Clients run in lock-step rounds of an equal number of loads each,
 * so concurrency stays at the client count for the whole measured
 * window. Each round is one sample of throughput, CPU cost and
 * latency percentiles; a run reports their medians over its rounds.
 */

#ifndef CLAP_LAYERBENCH_CLIENTS_HH
#define CLAP_LAYERBENCH_CLIENTS_HH

#include <barrier>
#include <cstdio>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "common.hh"
#include "obs/trace_context.hh"

namespace clap::layerbench
{

/** What a round asks of each front end. */
enum class Phase : std::uint8_t
{
    PredictTrain, ///< the workload: predict, then train, per load
    PredictOnly,  ///< conservation probe: predicts only, stashed
    TrainOnly,    ///< train-handle probe: train the stashed predicts
};

/** Traced runs put one predict in this many into a sampled span. */
constexpr unsigned kSpanSampleEvery = 64;

/**
 * One client. @p Api adapts the session type: predict(rec),
 * train(rec, pred), branch(taken), call(pc).
 */
template <typename Api>
class FrontEnd
{
  public:
    FrontEnd(Api api, const Trace &trace, unsigned client_index)
        : api_(std::move(api)), trace_(&trace), index_(client_index)
    {
    }

    /// @name Results (read between rounds)
    /// @{
    std::vector<std::uint32_t> predictNs; ///< recorded round, until taken
    std::vector<std::uint32_t> trainNs;
    std::vector<std::uint32_t> probePredictNs; ///< PredictOnly rounds
    std::uint64_t loadsAttempted = 0; ///< one predict each
    std::uint64_t predictsOk = 0;
    std::uint64_t predictsFailed = 0;
    std::uint64_t trainsOk = 0;
    std::uint64_t trainsFailed = 0;
    SpanLog spans{1u << 14};
    /// @}

    const Api &api() const { return api_; }

    /** Run @p loads loads of @p phase; @p record keeps latencies. */
    void
    run(std::uint64_t loads, Phase phase, bool record, bool traced)
    {
        if (phase == Phase::TrainOnly) {
            for (const auto &[rec, pred] : stash_)
                train(*rec, pred, record);
            stash_.clear();
            return;
        }
        const auto &records = trace_->records();
        std::uint64_t done = 0;
        while (done < loads) {
            if (pos_ == records.size())
                pos_ = 0;
            const TraceRecord &rec = records[pos_++];
            if (rec.isBranch()) {
                api_.branch(rec.taken);
                continue;
            }
            if (rec.cls == InstClass::Call) {
                api_.call(rec.pc);
                continue;
            }
            if (!rec.isLoad())
                continue;
            ++done;
            ++loadsAttempted;
            std::optional<Prediction> pred =
                predict(rec, phase, record, traced);
            if (!pred)
                continue; // a failed predict has nothing to train
            if (phase == Phase::PredictOnly) {
                stash_.emplace_back(&rec, *pred);
                continue;
            }
            train(rec, *pred, record);
        }
    }

  private:
    std::optional<Prediction>
    predict(const TraceRecord &rec, Phase phase, bool record, bool traced)
    {
        // Traced runs sample one predict in kSpanSampleEvery into a
        // span whose context rides along, so the program's own spans
        // can join the same trace id.
        std::optional<obs::TraceScope> scope;
        std::uint64_t span = 0;
        const bool sampled = traced && ++sampleTick_ % kSpanSampleEvery == 0;
        const std::uint64_t begin = nowNs();
        if (sampled) {
            const std::uint64_t traceId =
                (std::uint64_t{index_ + 1} << 40) | sampleTick_;
            span = spans.open("client.predict", traceId, 0, begin);
            scope.emplace(obs::TraceContext{traceId, span, true});
        }
        auto pred = api_.predict(rec);
        const std::uint64_t ns = nowNs() - begin;
        spans.close(span, begin + ns);
        if (!pred) {
            ++predictsFailed;
            return std::nullopt;
        }
        ++predictsOk;
        if (record) {
            auto &sink = phase == Phase::PredictOnly ? probePredictNs
                                                     : predictNs;
            sink.push_back(clampNs(ns));
        }
        return *pred;
    }

    void
    train(const TraceRecord &rec, const Prediction &pred, bool record)
    {
        const std::uint64_t begin = nowNs();
        auto trained = api_.train(rec, pred);
        const std::uint64_t ns = nowNs() - begin;
        if (!trained) {
            ++trainsFailed;
            return;
        }
        ++trainsOk;
        if (record)
            trainNs.push_back(clampNs(ns));
    }

    static std::uint32_t
    clampNs(std::uint64_t ns)
    {
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(ns, UINT32_MAX));
    }

    Api api_;
    const Trace *trace_;
    unsigned index_;
    std::size_t pos_ = 0;
    std::uint64_t sampleTick_ = 0;
    std::vector<std::pair<const TraceRecord *, Prediction>> stash_;
};

/** One recorded round, over every client's calls in it. */
struct RoundSample
{
    double rate = 0.0;         ///< loads per second, all clients
    double cpuUsPerLoad = 0.0; ///< by the clock measure() was given
    double predictP50Ns = 0.0;
    double predictP99Ns = 0.0;
    double trainP50Ns = 0.0;
    double trainP99Ns = 0.0;
};

/** Median over @p rounds of @p field. */
inline double
medianOf(const std::vector<RoundSample> &rounds, double RoundSample::*field)
{
    std::vector<double> values;
    for (const RoundSample &r : rounds)
        values.push_back(r.*field);
    return median(std::move(values));
}

/**
 * Drives a set of front ends, one thread each, in lock-step rounds.
 * The calling thread times each round between the start and end
 * barriers; the threads are joined by the destructor.
 */
template <typename Api>
class LockStepRounds
{
  public:
    explicit LockStepRounds(std::vector<FrontEnd<Api> *> clients)
        : clients_(std::move(clients)),
          sync_(static_cast<std::ptrdiff_t>(clients_.size() + 1))
    {
        for (FrontEnd<Api> *client : clients_) {
            threads_.emplace_back([this, client] {
                for (;;) {
                    sync_.arrive_and_wait();
                    if (stop_)
                        return;
                    client->run(loads_, phase_, record_, traced_);
                    sync_.arrive_and_wait();
                }
            });
        }
    }

    ~LockStepRounds()
    {
        stop_ = true;
        sync_.arrive_and_wait();
        for (std::thread &thread : threads_)
            thread.join();
    }

    LockStepRounds(const LockStepRounds &) = delete;
    LockStepRounds &operator=(const LockStepRounds &) = delete;

    /** One round of @p loads loads per client; returns its seconds. */
    double
    round(std::uint64_t loads, Phase phase, bool record, bool traced)
    {
        loads_ = loads;
        phase_ = phase;
        record_ = record;
        traced_ = traced;
        const std::uint64_t begin = nowNs();
        sync_.arrive_and_wait();
        sync_.arrive_and_wait();
        return static_cast<double>(nowNs() - begin) * 1e-9;
    }

    /** Recorded PredictTrain rounds for @p seconds (at least one),
     *  one sample each. @p cpu_now reads the CPU seconds the rounds
     *  cost; it is read between rounds, outside their timing. */
    std::vector<RoundSample>
    measure(std::uint64_t loads, double seconds, bool traced,
            const std::function<double()> &cpu_now)
    {
        std::vector<RoundSample> samples;
        const double roundLoads =
            static_cast<double>(loads * clients_.size());
        const std::uint64_t deadline =
            nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
        do {
            const double cpu0 = cpu_now();
            const double s = round(loads, Phase::PredictTrain, true, traced);
            RoundSample sample;
            sample.rate = roundLoads / s;
            sample.cpuUsPerLoad = (cpu_now() - cpu0) * 1e6 / roundLoads;
            takeLatencies(sample);
            samples.push_back(sample);
        } while (nowNs() < deadline);
        return samples;
    }

  private:
    /** Move the round's latencies out of the clients into @p sample,
     *  so memory stays the same however many rounds run. */
    void
    takeLatencies(RoundSample &sample)
    {
        predictNs_.clear();
        trainNs_.clear();
        for (FrontEnd<Api> *c : clients_) {
            predictNs_.insert(predictNs_.end(), c->predictNs.begin(),
                              c->predictNs.end());
            trainNs_.insert(trainNs_.end(), c->trainNs.begin(),
                            c->trainNs.end());
            c->predictNs.clear();
            c->trainNs.clear();
        }
        sample.predictP50Ns = percentile(predictNs_, 0.50);
        sample.predictP99Ns = percentile(predictNs_, 0.99);
        sample.trainP50Ns = percentile(trainNs_, 0.50);
        sample.trainP99Ns = percentile(trainNs_, 0.99);
    }

    std::vector<FrontEnd<Api> *> clients_;
    std::vector<std::uint32_t> predictNs_; ///< one round, all clients
    std::vector<std::uint32_t> trainNs_;
    std::barrier<> sync_;
    // Written by the driving thread before a barrier, read by the
    // clients after it: the barrier orders the accesses.
    std::uint64_t loads_ = 0;
    Phase phase_ = Phase::PredictTrain;
    bool record_ = false;
    bool traced_ = false;
    bool stop_ = false;
    std::vector<std::thread> threads_; ///< last: uses the members above
};

/**
 * Report the rounds' predict and train latencies, each the median
 * over the rounds of the round's percentile: as the end-to-end
 * predict_p50_us / predict_p99_us / train_p99_us, or with @p traced as
 * the per-layer serve.predict_us / serve.train_us. @p round_loads is
 * the loads of one round, all clients: its predicts and trains.
 */
inline void
reportLatencies(const std::vector<RoundSample> &rounds,
                std::uint64_t round_loads, bool traced,
                const char *workload, MetricSink &m)
{
    auto us = [&](double RoundSample::*field) {
        return medianOf(rounds, field) / 1e3;
    };
    if (traced) {
        m.set("serve.predict_us.p50", us(&RoundSample::predictP50Ns), "us");
        m.set("serve.predict_us.p99", us(&RoundSample::predictP99Ns), "us");
        m.set("serve.train_us.p50", us(&RoundSample::trainP50Ns), "us");
        m.set("serve.train_us.p99", us(&RoundSample::trainP99Ns), "us");
        return;
    }
    m.set("predict_p50_us", us(&RoundSample::predictP50Ns), "us");
    m.set("predict_p99_us", us(&RoundSample::predictP99Ns), "us");
    m.set("train_p99_us", us(&RoundSample::trainP99Ns), "us");
    std::printf("%s: latency: %zu rounds of %llu predicts and as many "
                "trains\n",
                workload, rounds.size(),
                static_cast<unsigned long long>(round_loads));
}

/** Write every client's spans to @p path. */
template <typename Api>
void
writeSpans(const std::vector<FrontEnd<Api> *> &clients,
           const std::string &path, RunResult &result)
{
    for (std::size_t i = 0; i < clients.size(); ++i)
        result.check(clients[i]->spans.write(path, i != 0),
                     "cannot write " + path);
}

/** Add the predicts and trains the clients attempted, and those that
 *  failed, to @p result. The workloads check these counts against the
 *  counts the program keeps. */
template <typename Api>
void
countOps(const std::vector<FrontEnd<Api> *> &clients, RunResult &result)
{
    for (const FrontEnd<Api> *c : clients) {
        result.attempted += c->predictsOk + c->predictsFailed +
            c->trainsOk + c->trainsFailed;
        result.failed += c->predictsFailed + c->trainsFailed;
    }
}

} // namespace clap::layerbench

#endif // CLAP_LAYERBENCH_CLIENTS_HH
