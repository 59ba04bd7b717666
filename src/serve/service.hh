/**
 * @file
 * Sharded load-address prediction service. Turns the inline
 * predictors (core/) into a concurrently queryable component: a
 * PredictionService owns N predictor shards — each a full
 * CAP/stride/hybrid instance behind its own mutex — and routes every
 * request to the shard selected by a hash of the load PC, so the
 * per-static-load state (LB entry, stride state, LT links reached
 * from it) of one static load never crosses shards.
 *
 * Requests run on the caller's thread: predict() and train() take the
 * shard mutex, run the predictor, and return the result directly, so
 * the mutex is the only place a request waits. Each locked section is
 * one "batch" of one request, and the structural invariant auditor
 * (core/audit.hh) runs over the shard's predictor after every
 * auditEveryBatches-th one.
 *
 * Backpressure is a per-shard in-flight gauge: the number of callers
 * inside or waiting for the shard. Under OverloadPolicy::Reject a
 * caller that would take the gauge past queueCapacity fails with a
 * structured ErrorCode::Overloaded; under OverloadPolicy::Block it
 * waits for the mutex and is never refused. stop() refuses new
 * requests with ErrorCode::Shutdown and returns once every admitted
 * one has finished.
 *
 * With one client the service is a pure function of the request
 * sequence, which is what the cross-check (serve/crosscheck.hh)
 * exploits to prove the service layer does not change prediction
 * semantics: its aggregate PredictionStats must equal a plain
 * PredictorSim run bit for bit.
 */

#ifndef CLAP_SERVE_SERVICE_HH
#define CLAP_SERVE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hh"
#include "core/predictor.hh"
#include "core/state_io.hh"
#include "sim/metrics.hh"
#include "util/bits.hh"
#include "util/error.hh"

namespace clap
{

/// Builds a fresh predictor per shard (same alias as
/// sim/experiment.hh; redeclared here to keep this header light).
using PredictorFactory =
    std::function<std::unique_ptr<AddressPredictor>()>;

/** What a shard at its in-flight bound does to a new caller. */
enum class OverloadPolicy : std::uint8_t
{
    Block,  ///< caller waits for the shard; never refused
    Reject, ///< request fails with ErrorCode::Overloaded
};

/** Service-level knobs; predictor geometry comes from the factory. */
struct ServiceConfig
{
    /// Predictor shards; must be a power of two so the PC hash can
    /// select one with a mask.
    unsigned shards = 4;

    /// Per-shard in-flight bound: the callers one shard admits at once,
    /// counting the one holding its mutex. OverloadPolicy::Reject
    /// refuses the next caller; the network gateway's admission
    /// control reads the gauge against this bound under both policies.
    std::size_t queueCapacity = 1024;

    OverloadPolicy overload = OverloadPolicy::Block;

    /// Run the structural auditor on a shard's predictor after every
    /// N-th batch, i.e. locked section of one request (0 disables).
    /// Audit failures are recorded per shard and surfaced via
    /// PredictionService::health(). The audit is incremental
    /// (core/audit.hh): it checks only the table sets written since
    /// the last passing audit, so its cost tracks the batch's own
    /// writes and auditing every batch is cheap.
    /// Each audit's duration is recorded as serve.stage.audit_ns.
    unsigned auditEveryBatches = 1;

    /// Bounded per-shard journal of requests applied since the last
    /// captureShardState() call (0 disables journaling). The journal
    /// is what restoreShardState() replays to roll a shard forward
    /// from its last snapshot; on overflow the journal is discarded
    /// and marked, voiding the exact-replay guarantee until the next
    /// capture.
    std::size_t journalCapacity = 0;

    /** Structural sanity checks; call before building a service. */
    Expected<void>
    validate() const
    {
        if (shards == 0 || shards > 4096 || !isPowerOf2(shards)) {
            return detail::configError(
                "ServiceConfig",
                "shards must be a power of two in 1..4096, got " +
                    std::to_string(shards));
        }
        if (queueCapacity == 0) {
            return detail::configError(
                "ServiceConfig", "queueCapacity must be >= 1");
        }
        return ok();
    }
};

/**
 * The shard a load PC routes to. A pure function of (pc, shards), so
 * one static load can never map to two shards — the invariant that
 * keeps per-static-load predictor state shard-local. PCs are strongly
 * clustered, hence the mix64 finalizer before taking the low bits.
 */
inline unsigned
shardOfPc(std::uint64_t pc, unsigned shards)
{
    return static_cast<unsigned>(mix64(pc) & mask(floorLog2(shards)));
}

/** Point-in-time view of one shard (monitoring / bench reporting). */
struct ShardSnapshot
{
    PredictionStats stats;        ///< tallied at train resolution
    std::uint64_t predicts = 0;   ///< predict requests processed
    std::uint64_t trains = 0;     ///< train requests processed
    std::uint64_t batches = 0;    ///< locked sections run
    std::uint64_t audits = 0;     ///< auditor runs
    std::uint64_t rejected = 0;   ///< requests refused as Overloaded
    std::size_t queueDepth = 0;   ///< callers in or waiting for the shard
    std::size_t maxQueueDepth = 0;///< high-water mark of queueDepth
    bool auditFailed = false;
    Error auditError;             ///< valid when auditFailed

    /// @name Lifecycle state (snapshot/restore, quarantine)
    /// @{
    bool quarantined = false;     ///< new requests fail ShardUnavailable
    std::uint64_t unavailable = 0;///< requests refused while quarantined
    std::uint64_t captures = 0;   ///< state captures taken
    std::uint64_t restores = 0;   ///< state restores applied
    std::uint64_t quarantines = 0;///< quarantine episodes entered
    std::size_t journalDepth = 0; ///< requests journaled since capture
    bool journalOverflowed = false;
    bool workerFailed = false;    ///< a batch threw / injected kill
    Error workerError;            ///< valid when workerFailed
    /// @}

    /// Predictor-state introspection (core/telemetry.hh), taken under
    /// the shard lock so it is consistent with stats. Diagnostic only
    /// — never part of the PredictionStats equality contract.
    PredictorTelemetry telemetry;
};

class ClientSession;

class PredictionService
{
  public:
    /**
     * Build a service of config.shards predictors (one factory call
     * per shard). Throws std::invalid_argument on an invalid config,
     * like the predictor constructors (core/config.hh validated()).
     */
    PredictionService(const ServiceConfig &config,
                      PredictorFactory factory);
    ~PredictionService();

    PredictionService(const PredictionService &) = delete;
    PredictionService &operator=(const PredictionService &) = delete;

    const ServiceConfig &config() const { return config_; }

    unsigned
    shardOf(std::uint64_t pc) const
    {
        return shardOfPc(pc, config_.shards);
    }

    /** Open a session; one per client thread, not thread-safe. */
    ClientSession connect();

    /**
     * Form a prediction for @p info on the calling thread, under the
     * PC's shard lock. Fails with ShardUnavailable (shard
     * quarantined), Shutdown (service stopped) or Overloaded (Reject
     * policy, shard at its in-flight bound).
     */
    Expected<Prediction> predict(const LoadInfo &info);

    /**
     * Resolve a prior prediction with the load's actual address, on
     * the calling thread: the update has been applied when this
     * returns. Same failure modes as predict().
     */
    Expected<void> train(const LoadInfo &info,
                         std::uint64_t actual_addr,
                         const Prediction &pred);

    /**
     * Refuse new requests with Shutdown, then return once every
     * admitted request (running or waiting for its shard) has
     * finished. Idempotent; also run by the destructor.
     */
    void stop();

    bool stopped() const;

    /** Sum of the per-shard statistics (train-resolved tallies). */
    PredictionStats aggregateStats() const;

    /**
     * Sum of the shards' in-flight gauges — the load signal the
     * network gateway's admission control maps to Accept/Shed/Reject.
     * One relaxed atomic read per shard, so it can run per-request.
     */
    std::size_t totalQueueDepth() const;

    /** Sum of per-shard in-flight bounds (admission denominator). */
    std::size_t
    totalQueueCapacity() const
    {
        return static_cast<std::size_t>(config_.shards) *
               config_.queueCapacity;
    }

    /** Per-shard monitoring snapshot, in shard order. */
    std::vector<ShardSnapshot> snapshot() const;

    /**
     * First recorded per-shard audit failure, if any — the service
     * keeps serving after one (predictor state is speculative;
     * corruption costs accuracy, not correctness), but reports it.
     */
    Expected<void> health() const;

    /// @name Shard lifecycle (serve/supervisor.hh drives these)
    /// @{

    /**
     * Serialize shard @p shard_index — predictor state (core/state_io)
     * plus the serve-side counters as a caller section — under the
     * shard lock, and reset the journal epoch: requests applied after
     * this capture are journaled for restoreShardState() to replay.
     */
    Expected<std::string> captureShardState(unsigned shard_index);

    /**
     * Restore shard @p shard_index from captureShardState() bytes,
     * then replay the since-capture journal through the restored
     * predictor, bringing it bit-for-bit to the pre-failure state
     * (provided the journal never overflowed). The journal is kept,
     * not cleared: its epoch stays the capture the bytes came from,
     * so restoring the same bytes again later remains exact. Clears
     * the shard's audit/batch failure flags on success; does NOT
     * lift quarantine — rejoinShard() does. With @p salvage, intact
     * sections of a damaged snapshot restore and the rest cold-start.
     */
    Expected<StateReadResult> restoreShardState(unsigned shard_index,
                                                std::string_view bytes,
                                                bool salvage = false);

    /**
     * Quarantine shard @p shard_index: new requests fail with a
     * structured ShardUnavailable error (other shards keep serving);
     * already-admitted predicts complete unspeculated and admitted
     * trains are journaled for post-restore replay instead of being
     * applied.
     */
    void quarantineShard(unsigned shard_index);

    /** Lift quarantine; the shard serves normally again. */
    void rejoinShard(unsigned shard_index);

    bool shardQuarantined(unsigned shard_index) const;

    /**
     * Record a failure detected outside the per-batch audit (injected
     * fault) and quarantine the shard.
     */
    void failShard(unsigned shard_index, Error error);

    /** First recorded audit/batch failure of one shard. */
    Expected<void> shardHealth(unsigned shard_index) const;

    /**
     * Last-resort recovery: replace the shard's predictor with a
     * fresh factory instance and zero its statistics, counters, and
     * journal. Clears failure flags; quarantine is unaffected.
     */
    void resetShard(unsigned shard_index);

    /**
     * Run @p fn over the shard's predictor under the shard lock
     * (fault injection, inspection). @p fn must not re-enter the
     * service.
     */
    void withShardPredictor(
        unsigned shard_index,
        const std::function<void(AddressPredictor &)> &fn);

    /**
     * Chaos hook: the next batch the shard runs throws from inside
     * its locked section, exercising the failure detection and
     * recovery path. A predict in that batch completes unspeculated;
     * a train in it is not applied but still returns success, as a
     * train the shard accepted and then lost would.
     */
    void injectWorkerFault(unsigned shard_index);

    /// @}

  private:
    friend class ClientSession;

    struct Shard;
    struct Request;

    Expected<Prediction> serve(const Request &request);
    Expected<void> admit(Shard &shard, unsigned shard_index);
    void leave(Shard &shard);
    Prediction runBatch(Shard &shard, const Request &request,
                        std::uint64_t entered_ns);
    void journalRequest(Shard &shard, const Request &request);

    ServiceConfig config_;
    PredictorFactory factory_; ///< kept for resetShard()
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> stopped_{false};
    std::mutex stopMutex_;             ///< guards the drained_ wait
    std::condition_variable drained_;  ///< a shard's gauge hit zero
};

/**
 * Per-client handle: carries the client's global branch/path history
 * (the front-end context a real fetch engine would attach to each
 * load) and forwards requests to the service. One session per client
 * thread; sessions are independent, the service below is shared.
 */
class ClientSession
{
  public:
    /** Predict the load at @p pc with opcode immediate @p imm_offset,
     *  using this session's history as context. */
    Expected<Prediction>
    predict(std::uint64_t pc, std::int32_t imm_offset)
    {
        ++requests_;
        return service_->predict(makeInfo(pc, imm_offset));
    }

    /** Resolve @p pred (returned by predict for this pc) with the
     *  load's actual effective address. */
    Expected<void>
    train(std::uint64_t pc, std::int32_t imm_offset,
          std::uint64_t actual_addr, const Prediction &pred)
    {
        ++requests_;
        return service_->train(makeInfo(pc, imm_offset), actual_addr,
                               pred);
    }

    /** Record a conditional branch outcome into the session GHR. */
    void observeBranch(bool taken) { ghr_ = (ghr_ << 1) | (taken ? 1 : 0); }

    /** Record a call site into the session path history. */
    void observeCall(std::uint64_t pc) { path_ = (path_ << 4) ^ (pc >> 2); }

    std::uint64_t ghr() const { return ghr_; }
    std::uint64_t pathHist() const { return path_; }
    std::uint64_t requests() const { return requests_; }

  private:
    friend class PredictionService;
    explicit ClientSession(PredictionService &service)
        : service_(&service)
    {
    }

    LoadInfo
    makeInfo(std::uint64_t pc, std::int32_t imm_offset) const
    {
        LoadInfo info;
        info.pc = pc;
        info.immOffset = imm_offset;
        info.ghr = ghr_;
        info.pathHist = path_;
        return info;
    }

    PredictionService *service_;
    std::uint64_t ghr_ = 0;
    std::uint64_t path_ = 0;
    std::uint64_t requests_ = 0;
};

inline ClientSession
PredictionService::connect()
{
    return ClientSession(*this);
}

} // namespace clap

#endif // CLAP_SERVE_SERVICE_HH
