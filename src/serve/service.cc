#include "serve/service.hh"

#include <cassert>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hh"
#include "obs/stage_timer.hh"
#include "obs/trace_context.hh"
#include "obs/trace_events.hh"

namespace clap
{

namespace
{

/// @name Serve-counter section (piggybacked on the state snapshot)
/// The shard's PredictionStats (sim/metrics.hh codec) followed by its
/// predicts/trains/batches/audits as little-endian u64s, so a restore
/// rolls the serve-side tallies back to the capture point before
/// journal replay rolls them forward again.
/// @{

struct ServeCounters
{
    PredictionStats stats;
    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    std::uint64_t batches = 0;
    std::uint64_t audits = 0;
};

std::string
encodeServeCounters(const ServeCounters &c)
{
    ByteWriter w;
    putPredictionStats(w, c.stats);
    w.u64(c.predicts);
    w.u64(c.trains);
    w.u64(c.batches);
    w.u64(c.audits);
    return w.take();
}

bool
decodeServeCounters(std::string_view bytes, ServeCounters &c)
{
    ByteReader r(bytes);
    return getPredictionStats(r, c.stats) && r.u64(c.predicts) &&
           r.u64(c.trains) && r.u64(c.batches) && r.u64(c.audits) &&
           r.done();
}

/** Caller-section id for the serve counters. */
constexpr std::uint32_t serveCountersSection = firstCallerSection;

/// @}

} // namespace

/** One request, as run and as journaled; isTrain selects the fields. */
struct PredictionService::Request
{
    bool isTrain = false;
    LoadInfo info;
    std::uint64_t actualAddr = 0; ///< train
    Prediction pred;              ///< train: the resolved prediction
};

/**
 * One shard: a full predictor instance, its in-flight gauge, and its
 * statistics. The mutex guards the predictor and every counter below
 * it; each request takes it for its own batch, snapshots and the
 * lifecycle calls take it briefly.
 */
struct PredictionService::Shard
{
    /// @name Admission (lock-free, on the request path)
    /// @{
    std::atomic<std::size_t> inFlight{0}; ///< callers in or waiting
    std::atomic<std::size_t> maxInFlight{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<bool> quarantined{false};
    std::atomic<std::uint64_t> unavailable{0};
    std::atomic<bool> killNextBatch{false}; ///< chaos: injected throw
    /// @}

    mutable std::mutex mutex;
    std::unique_ptr<AddressPredictor> predictor;
    PredictionStats stats;
    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    std::uint64_t batches = 0;
    std::uint64_t audits = 0;
    bool auditFailed = false;
    Error auditError;

    /// @name Snapshot/restore bookkeeping (under mutex)
    /// @{
    std::vector<Request> journal; ///< requests since last capture
    bool journalOverflowed = false;
    std::uint64_t captures = 0;
    std::uint64_t restores = 0;
    std::uint64_t quarantines = 0;
    bool workerFailed = false;
    Error workerError;
    /// @}
};

PredictionService::PredictionService(const ServiceConfig &config,
                                     PredictorFactory factory)
    : config_(validated(config)), factory_(std::move(factory))
{
    assert(factory_ != nullptr);
    shards_.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->predictor = factory_();
        assert(shard->predictor != nullptr);
        shards_.push_back(std::move(shard));
    }
}

PredictionService::~PredictionService()
{
    stop();
}

void
PredictionService::stop()
{
    // Every gauge operation and both flag accesses are seq_cst: a
    // caller either sees stopped_ after raising its gauge (and backs
    // out), or this wait sees the raised gauge (and waits for it).
    stopped_.store(true);
    std::unique_lock<std::mutex> lock(stopMutex_);
    drained_.wait(lock, [this] {
        for (const auto &shard : shards_) {
            if (shard->inFlight.load() != 0)
                return false;
        }
        return true;
    });
}

bool
PredictionService::stopped() const
{
    return stopped_.load();
}

Expected<void>
PredictionService::admit(Shard &shard, unsigned shard_index)
{
    if (shard.quarantined.load(std::memory_order_acquire)) {
        shard.unavailable.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter &unavailable =
            obs::counter("serve.unavailable");
        unavailable.add();
        return makeError(ErrorCode::ShardUnavailable,
                         "shard quarantined pending recovery")
            .withContext("shard " + std::to_string(shard_index));
    }
    const std::size_t depth = shard.inFlight.fetch_add(1) + 1;
    if (stopped_.load()) {
        leave(shard);
        // Terminal, not retryable (see util/error.hh).
        return makeError(ErrorCode::Shutdown,
                         "prediction service is stopped")
            .withContext("shard " + std::to_string(shard_index));
    }
    if (config_.overload == OverloadPolicy::Reject &&
        depth > config_.queueCapacity) {
        leave(shard);
        shard.rejected.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter &rejects = obs::counter("serve.rejects");
        rejects.add();
        return makeError(ErrorCode::Overloaded,
                         "shard in-flight bound reached (" +
                             std::to_string(config_.queueCapacity) + ")")
            .withContext("shard " + std::to_string(shard_index));
    }
    std::size_t seen = shard.maxInFlight.load(std::memory_order_relaxed);
    while (depth > seen &&
           !shard.maxInFlight.compare_exchange_weak(
               seen, depth, std::memory_order_relaxed)) {
        // A failed exchange reloaded seen; retry while depth is higher.
    }
    static obs::Histogram &queueDepth =
        obs::histogram("serve.queue_depth");
    queueDepth.record(depth);
    return ok();
}

void
PredictionService::leave(Shard &shard)
{
    if (shard.inFlight.fetch_sub(1) == 1 && stopped_.load()) {
        std::lock_guard<std::mutex> lock(stopMutex_);
        drained_.notify_all();
    }
}

Expected<Prediction>
PredictionService::serve(const Request &request)
{
    const std::uint64_t enteredNs = obs::stageNowNs();
    const unsigned index = shardOf(request.info.pc);
    Shard &shard = *shards_[index];
    if (auto admitted = admit(shard, index); !admitted)
        return std::move(admitted.error());
    const Prediction pred = runBatch(shard, request, enteredNs);
    leave(shard);
    return pred;
}

Expected<Prediction>
PredictionService::predict(const LoadInfo &info)
{
    Request request;
    request.info = info;
    auto served = serve(request);
    if (!served)
        return std::move(served.error()).withContext("predict");
    return served;
}

Expected<void>
PredictionService::train(const LoadInfo &info, std::uint64_t actual_addr,
                         const Prediction &pred)
{
    Request request;
    request.isTrain = true;
    request.info = info;
    request.actualAddr = actual_addr;
    request.pred = pred;
    if (auto served = serve(request); !served)
        return std::move(served.error()).withContext("train");
    return ok();
}

void
PredictionService::journalRequest(Shard &shard, const Request &request)
{
    if (config_.journalCapacity == 0 || shard.journalOverflowed)
        return;
    if (shard.journal.size() >= config_.journalCapacity) {
        // The bounded window closed: drop the journal and mark it, so
        // a later restore knows exact replay is no longer possible.
        shard.journal.clear();
        shard.journalOverflowed = true;
        return;
    }
    shard.journal.push_back(request);
}

Prediction
PredictionService::runBatch(Shard &shard, const Request &request,
                            std::uint64_t entered_ns)
{
    // Registry references resolved once; recording afterwards is a
    // branch plus a relaxed add (see obs/metrics.hh cost model).
    static obs::Counter &predicts = obs::counter("serve.predicts");
    static obs::Counter &trains = obs::counter("serve.trains");
    static obs::Counter &batches = obs::counter("serve.batches");
    static obs::Histogram &queueWaitNs =
        obs::histogram("serve.stage.queue_wait_ns");
    static obs::Histogram &computeNs =
        obs::histogram("serve.stage.compute_ns");
    static obs::Histogram &auditNs =
        obs::histogram("serve.stage.audit_ns");

    // A sampled caller gets a span nesting under its own (and, when
    // the context rode in on a v3 frame, under the remote sender's).
    std::optional<obs::Span> span;
    if (obs::traceEventsEnabled()) {
        const obs::TraceContext ctx = obs::currentTraceContext();
        if (ctx.valid() && ctx.sampled)
            span.emplace(request.isTrain ? "serve.train" : "serve.predict",
                         "serve");
    }

    Prediction pred; // unspeculated unless the predictor answers
    bool applied = false;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const std::uint64_t startedNs = obs::stageNowNs();
        queueWaitNs.record(startedNs - entered_ns);
        try {
            if (shard.killNextBatch.exchange(false))
                throw std::runtime_error("injected batch fault");
            if (shard.quarantined.load(std::memory_order_acquire)) {
                // Quarantined after admission: never touch the
                // (suspect) predictor. The predict answers
                // unspeculated; a train is journaled so the
                // post-restore replay still applies it.
                if (request.isTrain)
                    journalRequest(shard, request);
            } else {
                journalRequest(shard, request);
                if (request.isTrain) {
                    shard.predictor->update(request.info,
                                            request.actualAddr,
                                            request.pred);
                    tallyPrediction(shard.stats, request.pred,
                                    request.actualAddr);
                    ++shard.trains;
                } else {
                    pred = shard.predictor->predict(request.info);
                    ++shard.predicts;
                }
                applied = true;
                computeNs.record(obs::stageNowNs() - startedNs);
            }
            ++shard.batches;
            if (config_.auditEveryBatches != 0 &&
                shard.batches % config_.auditEveryBatches == 0) {
                ++shard.audits;
                const std::uint64_t auditStartNs = obs::stageNowNs();
                auto audit = shard.predictor->audit();
                auditNs.record(obs::stageNowNs() - auditStartNs);
                if (!audit && !shard.auditFailed) {
                    shard.auditFailed = true;
                    shard.auditError =
                        std::move(audit.error())
                            .withContext("per-batch audit");
                }
            }
        } catch (const std::exception &e) {
            // A throwing batch may have half-applied its request;
            // treat the shard as corrupt and quarantine it so the
            // supervisor restores from the last good snapshot. A
            // predict the throw cut short answers unspeculated.
            if (!shard.workerFailed) {
                shard.workerFailed = true;
                shard.workerError =
                    makeError(ErrorCode::CorruptedState, e.what())
                        .withContext("shard batch");
            }
            if (!shard.quarantined.exchange(true,
                                            std::memory_order_acq_rel))
                ++shard.quarantines;
            static obs::Counter &failures =
                obs::counter("serve.worker_failures");
            failures.add();
        }
    }
    if (applied)
        (request.isTrain ? trains : predicts).add();
    batches.add();
    return pred;
}

std::size_t
PredictionService::totalQueueDepth() const
{
    std::size_t depth = 0;
    for (const auto &shard : shards_)
        depth += shard->inFlight.load(std::memory_order_relaxed);
    return depth;
}

PredictionStats
PredictionService::aggregateStats() const
{
    PredictionStats total;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total.merge(shard->stats);
    }
    return total;
}

std::vector<ShardSnapshot>
PredictionService::snapshot() const
{
    std::vector<ShardSnapshot> out;
    out.reserve(shards_.size());
    for (const auto &shard : shards_) {
        ShardSnapshot snap;
        {
            std::lock_guard<std::mutex> lock(shard->mutex);
            snap.stats = shard->stats;
            snap.predicts = shard->predicts;
            snap.trains = shard->trains;
            snap.batches = shard->batches;
            snap.audits = shard->audits;
            snap.auditFailed = shard->auditFailed;
            snap.auditError = shard->auditError;
            snap.captures = shard->captures;
            snap.restores = shard->restores;
            snap.quarantines = shard->quarantines;
            snap.journalDepth = shard->journal.size();
            snap.journalOverflowed = shard->journalOverflowed;
            snap.workerFailed = shard->workerFailed;
            snap.workerError = shard->workerError;
            snap.telemetry = shard->predictor->snapshotTelemetry();
        }
        snap.quarantined =
            shard->quarantined.load(std::memory_order_relaxed);
        snap.unavailable =
            shard->unavailable.load(std::memory_order_relaxed);
        snap.rejected =
            shard->rejected.load(std::memory_order_relaxed);
        snap.queueDepth =
            shard->inFlight.load(std::memory_order_relaxed);
        snap.maxQueueDepth =
            shard->maxInFlight.load(std::memory_order_relaxed);
        out.push_back(std::move(snap));
    }
    return out;
}

Expected<void>
PredictionService::health() const
{
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (auto status = shardHealth(static_cast<unsigned>(s)); !status)
            return status;
    }
    return ok();
}

Expected<void>
PredictionService::shardHealth(unsigned shard_index) const
{
    const Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.workerFailed) {
        Error error = shard.workerError;
        return std::move(error).withContext(
            "shard " + std::to_string(shard_index));
    }
    if (shard.auditFailed) {
        Error error = shard.auditError;
        return std::move(error).withContext(
            "shard " + std::to_string(shard_index));
    }
    return ok();
}

Expected<std::string>
PredictionService::captureShardState(unsigned shard_index)
{
    static obs::Counter &captures = obs::counter("serve.captures");
    Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    ServeCounters counters;
    counters.stats = shard.stats;
    counters.predicts = shard.predicts;
    counters.trains = shard.trains;
    counters.batches = shard.batches;
    counters.audits = shard.audits;
    std::vector<StateExtraSection> extras;
    extras.push_back(StateExtraSection{serveCountersSection,
                                       encodeServeCounters(counters)});
    auto encoded = encodePredictorState(*shard.predictor, extras);
    if (!encoded) {
        return std::move(encoded.error())
            .withContext("capturing shard " +
                         std::to_string(shard_index));
    }
    // The capture is the new journal epoch: replay starts here.
    shard.journal.clear();
    shard.journalOverflowed = false;
    ++shard.captures;
    captures.add();
    return encoded;
}

Expected<StateReadResult>
PredictionService::restoreShardState(unsigned shard_index,
                                     std::string_view bytes,
                                     bool salvage)
{
    static obs::Counter &restores = obs::counter("serve.restores");
    Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);

    StateReadOptions options;
    options.salvage = salvage;
    std::vector<StateExtraSection> extras;
    auto result =
        decodePredictorState(bytes, *shard.predictor, options, &extras);
    if (!result) {
        return std::move(result.error())
            .withContext("restoring shard " +
                         std::to_string(shard_index));
    }

    // Roll the serve counters back to the capture point; a damaged or
    // absent counter section cold-starts them (salvage only — strict
    // mode would have failed above on any section damage).
    ServeCounters counters;
    bool have_counters = false;
    for (const StateExtraSection &extra : extras) {
        if (extra.id == serveCountersSection &&
            decodeServeCounters(extra.payload, counters)) {
            have_counters = true;
        }
    }
    if (!have_counters && !salvage) {
        return makeError(ErrorCode::BadRecord,
                         "snapshot is missing the serve counter section")
            .withContext("restoring shard " +
                         std::to_string(shard_index));
    }
    shard.stats = counters.stats;
    shard.predicts = counters.predicts;
    shard.trains = counters.trains;
    shard.batches = counters.batches;
    shard.audits = counters.audits;

    // Replay the since-capture journal through the restored predictor,
    // re-applying exactly what the failed incarnation served. Predict
    // replays repeat the original state mutation (LRU touch,
    // speculative bookkeeping); their results have already been
    // delivered and are discarded here. The journal is deliberately
    // NOT cleared: its epoch is the on-disk snapshot, which this
    // restore did not advance — only the next captureShardState()
    // resets it. Replaying from the snapshot is idempotent, so a
    // second restore before the next capture stays exact.
    if (!shard.journalOverflowed) {
        for (const Request &request : shard.journal) {
            if (request.isTrain) {
                shard.predictor->update(request.info, request.actualAddr,
                                        request.pred);
                tallyPrediction(shard.stats, request.pred,
                                request.actualAddr);
                ++shard.trains;
            } else {
                (void)shard.predictor->predict(request.info);
                ++shard.predicts;
            }
        }
    }

    shard.auditFailed = false;
    shard.auditError = Error{};
    shard.workerFailed = false;
    shard.workerError = Error{};
    ++shard.restores;
    restores.add();
    return result;
}

void
PredictionService::quarantineShard(unsigned shard_index)
{
    static obs::Counter &quarantines =
        obs::counter("serve.quarantines");
    Shard &shard = *shards_[shard_index];
    if (!shard.quarantined.exchange(true, std::memory_order_acq_rel)) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        ++shard.quarantines;
        quarantines.add();
    }
}

void
PredictionService::rejoinShard(unsigned shard_index)
{
    shards_[shard_index]->quarantined.store(false,
                                            std::memory_order_release);
}

bool
PredictionService::shardQuarantined(unsigned shard_index) const
{
    return shards_[shard_index]->quarantined.load(
        std::memory_order_acquire);
}

void
PredictionService::failShard(unsigned shard_index, Error error)
{
    Shard &shard = *shards_[shard_index];
    quarantineShard(shard_index);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!shard.workerFailed) {
        shard.workerFailed = true;
        shard.workerError = std::move(error).withContext(
            "failShard(" + std::to_string(shard_index) + ")");
    }
}

void
PredictionService::resetShard(unsigned shard_index)
{
    Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.predictor = factory_();
    assert(shard.predictor != nullptr);
    shard.stats = PredictionStats{};
    shard.predicts = 0;
    shard.trains = 0;
    shard.batches = 0;
    shard.audits = 0;
    shard.journal.clear();
    shard.journalOverflowed = false;
    shard.auditFailed = false;
    shard.auditError = Error{};
    shard.workerFailed = false;
    shard.workerError = Error{};
}

void
PredictionService::withShardPredictor(
    unsigned shard_index,
    const std::function<void(AddressPredictor &)> &fn)
{
    Shard &shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    fn(*shard.predictor);
}

void
PredictionService::injectWorkerFault(unsigned shard_index)
{
    shards_[shard_index]->killNextBatch.store(true,
                                              std::memory_order_release);
}

} // namespace clap
