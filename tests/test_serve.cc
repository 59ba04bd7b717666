/** @file Tests for the sharded prediction service (src/serve/). */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "audit_oracle.hh"
#include "core/hybrid_predictor.hh"
#include "core/stride_predictor.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"
#include "sim/predictor_sim.hh"
#include "workloads/composer.hh"
#include "workloads/suites.hh"

namespace clap
{
namespace
{

constexpr std::size_t testTraceInsts = 20000;

PredictorFactory
testHybridFactory()
{
    return [] { return std::make_unique<HybridPredictor>(HybridConfig{}); };
}

Trace
testTrace(const char *suite = "INT")
{
    return generateTrace(buildSuite(suite).front(), testTraceInsts);
}

// --- ServiceConfig validation -------------------------------------

TEST(ServiceConfig, DefaultsValidate)
{
    EXPECT_TRUE(ServiceConfig{}.validate());
}

TEST(ServiceConfig, RejectsBadShardCounts)
{
    ServiceConfig config;
    config.shards = 0;
    EXPECT_FALSE(config.validate());
    config.shards = 3;
    EXPECT_FALSE(config.validate());
    config.shards = 8192;
    EXPECT_FALSE(config.validate());
    config.shards = 64;
    EXPECT_TRUE(config.validate());
}

TEST(ServiceConfig, RejectsBadQueueGeometry)
{
    ServiceConfig config;
    config.queueCapacity = 0;
    EXPECT_FALSE(config.validate());

    config.queueCapacity = 1;
    EXPECT_TRUE(config.validate());
}

TEST(ServiceConfig, ConstructorThrowsOnInvalidConfig)
{
    ServiceConfig config;
    config.shards = 3;
    EXPECT_THROW(PredictionService(config, testHybridFactory()),
                 std::invalid_argument);
}

// --- Shard routing -------------------------------------------------

TEST(ShardRouting, StableAndInRange)
{
    for (unsigned shards : {1u, 2u, 4u, 16u}) {
        for (std::uint64_t pc = 0x1000; pc < 0x1400; pc += 4) {
            const unsigned shard = shardOfPc(pc, shards);
            EXPECT_LT(shard, shards);
            // The sharding invariant: one static load, one shard.
            EXPECT_EQ(shard, shardOfPc(pc, shards));
        }
    }
}

TEST(ShardRouting, SpreadsClusteredPcs)
{
    // Load PCs are word-aligned and clustered; the mix64 finalizer
    // must still reach every shard.
    std::set<unsigned> seen;
    for (std::uint64_t pc = 0x08048000; pc < 0x08048400; pc += 4)
        seen.insert(shardOfPc(pc, 4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardRouting, SingleShardAlwaysZero)
{
    for (std::uint64_t pc = 0; pc < 64; ++pc)
        EXPECT_EQ(shardOfPc(pc * 0x9e3779b9ull, 1), 0u);
}

// --- Single-client semantics cross-check ------------------------

TEST(ServeCrosscheck, OneShardMatchesPredictorSimExactly)
{
    const Trace trace = testTrace();
    ServiceConfig config;
    config.shards = 1;
    auto checked = crosscheckTrace(trace, testHybridFactory(), config);
    ASSERT_TRUE(checked) << checked.error().str();
    EXPECT_TRUE(checked->equal());

    // The one-shard reference is, by construction, a plain
    // PredictorSim run of the same trace: verify that directly too.
    HybridPredictor predictor{HybridConfig{}};
    const PredictionStats direct =
        runPredictorSim(trace, predictor, {});
    EXPECT_EQ(checked->service, direct);
    EXPECT_GT(direct.loads, 0u);
}

TEST(ServeCrosscheck, FourShardsMatchShardedReference)
{
    const Trace trace = testTrace();
    ServiceConfig config;
    config.shards = 4;
    auto checked = crosscheckTrace(trace, testHybridFactory(), config);
    ASSERT_TRUE(checked) << checked.error().str();
    EXPECT_TRUE(checked->equal());
    // Sharding partitions the loads: totals must still cover them all.
    PredictionStats single;
    {
        HybridPredictor predictor{HybridConfig{}};
        single = runPredictorSim(trace, predictor, {});
    }
    EXPECT_EQ(checked->service.loads, single.loads);
}

TEST(ServeCrosscheck, WorksForStridePredictorToo)
{
    const Trace trace = testTrace("MM");
    ServiceConfig config;
    config.shards = 2;
    auto checked = crosscheckTrace(
        trace,
        [] {
            return std::make_unique<StridePredictor>(
                StridePredictorConfig{});
        },
        config);
    ASSERT_TRUE(checked) << checked.error().str();
    EXPECT_TRUE(checked->equal());
}

TEST(ServeDeterministic, StatsTalliedOnTrainOnly)
{
    ServiceConfig config;
    config.shards = 1;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();

    auto pred = session.predict(0x1000, 8);
    ASSERT_TRUE(pred);
    EXPECT_EQ(service.aggregateStats().loads, 0u);
    ASSERT_TRUE(session.train(0x1000, 8, 0xdead0, *pred));
    EXPECT_EQ(service.aggregateStats().loads, 1u);
}

TEST(ServeDeterministic, AuditRunsPerBatch)
{
    ServiceConfig config;
    config.shards = 1;
    config.auditEveryBatches = 1;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();

    for (std::uint64_t i = 0; i < 8; ++i) {
        auto pred = session.predict(0x2000 + i * 4, 0);
        ASSERT_TRUE(pred);
        ASSERT_TRUE(session.train(0x2000 + i * 4, 0, 0x8000 + i, *pred));
    }
    const auto snaps = service.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    // Every request runs as its own batch, and the auditor runs after
    // every batch.
    EXPECT_EQ(snaps[0].batches, 16u);
    EXPECT_EQ(snaps[0].audits, 16u);
    EXPECT_EQ(snaps[0].predicts, 8u);
    EXPECT_EQ(snaps[0].trains, 8u);
    EXPECT_FALSE(snaps[0].auditFailed);
    EXPECT_TRUE(service.health());
}

TEST(ServeDeterministic, AuditFindsCorruptionNoLaterRequestTouches)
{
    // A raw write marks its table set, so the per-batch audit finds
    // corruption in sets the batch itself never writes, and reports
    // the full-sweep oracle's first error.
    ServiceConfig config;
    config.shards = 1;
    config.journalCapacity = 1024;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();
    for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t pc = 0x2000 + (i % 8) * 4;
        auto pred = session.predict(pc, 0);
        ASSERT_TRUE(pred);
        ASSERT_TRUE(session.train(pc, 0, 0x8000 + i * 16, *pred));
    }
    auto captured = service.captureShardState(0);
    ASSERT_TRUE(captured) << captured.error().str();

    // The oracle's per-batch error on the shard's tables ("" = clean).
    const auto oracleError = [&service] {
        std::string text;
        service.withShardPredictor(0, [&text](AddressPredictor &p) {
            const auto &hybrid = dynamic_cast<HybridPredictor &>(p);
            auto verdict = test::sweepPredictorTables(
                hybrid.loadBuffer(),
                &hybrid.capComponent().linkTable(), "hybrid predictor");
            if (!verdict) {
                text = std::move(verdict.error())
                           .withContext("per-batch audit")
                           .str();
            }
        });
        return text;
    };
    // Corrupt the last LT set, then the last LB set. The later
    // predict (PC 0x9000, LB set 1024) writes neither, and a predict
    // never writes the LT.
    const std::function<void(HybridPredictor &)> corruptions[] = {
        [](HybridPredictor &hybrid) {
            LinkTable &lt = hybrid.capComponent().linkTable();
            LTEntry entry;
            entry.valid = true;
            entry.tag = mask(lt.config().ltTagBits) + 1;
            lt.setImageAt(lt.numEntries() - 1, entry);
        },
        [](HybridPredictor &hybrid) {
            LoadBuffer &lb = hybrid.loadBuffer();
            LBEntryImage image;
            image.valid = true;
            image.tag = 0x77;
            const std::size_t base = lb.numEntries() - lb.config().assoc;
            lb.setImageAt(base, image);
            lb.setImageAt(base + 1, image);
        },
    };
    for (const auto &corrupt : corruptions) {
        service.withShardPredictor(0, [&corrupt](AddressPredictor &p) {
            corrupt(dynamic_cast<HybridPredictor &>(p));
        });
        EXPECT_FALSE(service.snapshot()[0].auditFailed);
        ASSERT_TRUE(session.predict(0x9000, 0));

        const ShardSnapshot failed = service.snapshot()[0];
        const std::string want = oracleError();
        ASSERT_FALSE(want.empty());
        EXPECT_TRUE(failed.auditFailed);
        EXPECT_EQ(failed.auditError.str(), want);

        auto restored = service.restoreShardState(0, *captured);
        ASSERT_TRUE(restored) << restored.error().str();
        EXPECT_TRUE(service.shardHealth(0));
        EXPECT_EQ(oracleError(), "");
        service.withShardPredictor(0, [](AddressPredictor &p) {
            EXPECT_TRUE(p.audit());
        });
        ASSERT_TRUE(session.predict(0x9000, 0));
        EXPECT_FALSE(service.snapshot()[0].auditFailed);
    }
}

TEST(ServeSession, HistoryTracksBranchesAndCalls)
{
    ServiceConfig config;
    config.shards = 1;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();

    session.observeBranch(true);
    session.observeBranch(false);
    session.observeBranch(true);
    EXPECT_EQ(session.ghr(), 0b101u);
    session.observeCall(0x1234);
    EXPECT_EQ(session.pathHist(), 0x1234u >> 2);
    session.observeCall(0x5678);
    EXPECT_EQ(session.pathHist(),
              ((0x1234ull >> 2) << 4) ^ (0x5678ull >> 2));
}

// --- Threaded operation --------------------------------------------

TEST(ServeThreaded, ConcurrentClientsAccountForEveryRequest)
{
    const Trace trace = testTrace();
    constexpr unsigned clients = 4;

    ServiceConfig config;
    config.shards = 4;
    config.queueCapacity = 256;
    PredictionService service(config, testHybridFactory());

    std::vector<Expected<ReplayResult>> results;
    results.reserve(clients);
    for (unsigned c = 0; c < clients; ++c)
        results.emplace_back(ReplayResult{});
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&service, &trace, &results, c] {
                ClientSession session = service.connect();
                results[c] = replayTrace(session, trace);
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    service.stop();

    std::uint64_t submitted_loads = 0;
    for (const auto &result : results) {
        ASSERT_TRUE(result) << result.error().str();
        EXPECT_EQ(result->overloaded, 0u); // Block policy never sheds
        submitted_loads += result->loads;
    }

    const PredictionStats total = service.aggregateStats();
    EXPECT_EQ(total.loads, submitted_loads);

    std::uint64_t predicts = 0;
    std::uint64_t trains = 0;
    std::uint64_t batches = 0;
    std::uint64_t audits = 0;
    for (const ShardSnapshot &snap : service.snapshot()) {
        predicts += snap.predicts;
        trains += snap.trains;
        batches += snap.batches;
        audits += snap.audits;
        EXPECT_EQ(snap.queueDepth, 0u); // stop() waits for every request
        EXPECT_FALSE(snap.auditFailed);
    }
    EXPECT_EQ(predicts, submitted_loads);
    EXPECT_EQ(trains, submitted_loads);
    EXPECT_GT(batches, 0u);
    EXPECT_GT(audits, 0u);
    EXPECT_TRUE(service.health());
}

TEST(ServeThreaded, RequestsAfterStopFailStructured)
{
    ServiceConfig config;
    config.shards = 2;
    PredictionService service(config, testHybridFactory());
    ClientSession session = service.connect();
    service.stop();
    EXPECT_TRUE(service.stopped());

    auto pred = session.predict(0x1000, 0);
    ASSERT_FALSE(pred);
    EXPECT_EQ(pred.error().code(), ErrorCode::Shutdown);

    Prediction dummy;
    auto trained = session.train(0x1000, 0, 0x2000, dummy);
    ASSERT_FALSE(trained);
    EXPECT_EQ(trained.error().code(), ErrorCode::Shutdown);
}

/// Predictor stub whose predict() blocks until released: lets a test
/// wedge a shard (its lock held inside the stub) and stack callers
/// behind it.
class BlockingPredictor : public AddressPredictor
{
  public:
    Prediction
    predict(const LoadInfo &) override
    {
        std::unique_lock<std::mutex> lock(mutex_);
        entered_ = true;
        ready_.notify_all();
        ready_.wait(lock, [this] { return released_; });
        return Prediction{};
    }

    void
    update(const LoadInfo &, std::uint64_t, const Prediction &) override
    {
    }

    std::string name() const override { return "blocking-stub"; }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            released_ = true;
        }
        ready_.notify_all();
    }

    /** Block until a caller is wedged inside predict(). */
    void
    awaitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return entered_; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable ready_;
    bool entered_ = false;
    bool released_ = false;
};

/// The service owns its predictors; hand it forwarding shims so the
/// test keeps a handle on @p blocking for release().
PredictorFactory
blockingFactory(std::shared_ptr<BlockingPredictor> blocking)
{
    return [blocking]() -> std::unique_ptr<AddressPredictor> {
        struct Shim : AddressPredictor
        {
            explicit Shim(std::shared_ptr<BlockingPredictor> inner)
                : inner(std::move(inner))
            {
            }
            Prediction
            predict(const LoadInfo &info) override
            {
                return inner->predict(info);
            }
            void
            update(const LoadInfo &info, std::uint64_t addr,
                   const Prediction &pred) override
            {
                inner->update(info, addr, pred);
            }
            std::string name() const override { return inner->name(); }
            std::shared_ptr<BlockingPredictor> inner;
        };
        return std::make_unique<Shim>(blocking);
    };
}

/** Poll @p condition for up to 10 s; true once it holds. */
bool
eventually(const std::function<bool()> &condition)
{
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!condition()) {
        if (std::chrono::steady_clock::now() >= until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(ServeThreaded, RejectPolicyReturnsOverloadedWhenQueueFull)
{
    auto blocking = std::make_shared<BlockingPredictor>();

    ServiceConfig config;
    config.shards = 1;
    config.queueCapacity = 3;
    config.overload = OverloadPolicy::Reject;
    config.auditEveryBatches = 0;
    PredictionService service(config, blockingFactory(blocking));

    LoadInfo info;
    info.pc = 0x1000;
    Prediction dummy;

    // Wedge the shard: this predict holds its lock inside the stub.
    // Two trains then wait for the lock, filling the in-flight bound.
    std::vector<std::thread> callers;
    callers.emplace_back(
        [&service, &info] { EXPECT_TRUE(service.predict(info)); });
    blocking->awaitEntered();
    for (int i = 0; i < 2; ++i) {
        callers.emplace_back([&service, &info, &dummy] {
            EXPECT_TRUE(service.train(info, 0x2000, dummy));
        });
    }
    ASSERT_TRUE(eventually([&service] {
        return service.totalQueueDepth() == 3;
    }));

    // At the bound, Reject fails fast and structured, and a refused
    // caller leaves the gauge as it found it.
    auto overflow = service.train(info, 0x2000, dummy);
    ASSERT_FALSE(overflow);
    EXPECT_EQ(overflow.error().code(), ErrorCode::Overloaded);
    auto shed = service.predict(info);
    ASSERT_FALSE(shed);
    EXPECT_EQ(shed.error().code(), ErrorCode::Overloaded);
    EXPECT_EQ(service.totalQueueDepth(), 3u);

    // snapshot() needs the shard mutex, which the wedged predict
    // holds — release it before inspecting counters.
    blocking->release();
    for (auto &caller : callers)
        caller.join();
    service.stop();

    const auto snaps = service.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].rejected, 2u);
    EXPECT_EQ(snaps[0].maxQueueDepth, 3u);
    EXPECT_EQ(snaps[0].queueDepth, 0u);
    EXPECT_EQ(snaps[0].predicts, 1u);
    EXPECT_EQ(snaps[0].trains, 2u);
}

TEST(ServeThreaded, StopWakesProducersBlockedInPush)
{
    auto blocking = std::make_shared<BlockingPredictor>();

    ServiceConfig config;
    config.shards = 1;
    config.queueCapacity = 2;
    config.overload = OverloadPolicy::Block;
    config.auditEveryBatches = 0;
    PredictionService service(config, blockingFactory(blocking));

    LoadInfo info;
    info.pc = 0x1000;
    Prediction dummy;

    // Wedge the shard, then stack three trains behind it: Block never
    // refuses, so the gauge passes the bound of 2.
    std::vector<std::thread> callers;
    callers.emplace_back(
        [&service, &info] { EXPECT_TRUE(service.predict(info)); });
    blocking->awaitEntered();
    std::vector<Expected<void>> results(3, ok());
    for (std::size_t i = 0; i < results.size(); ++i) {
        callers.emplace_back([&service, &info, &dummy, &results, i] {
            results[i] = service.train(info, 0x2000, dummy);
        });
    }
    ASSERT_TRUE(eventually([&service] {
        return service.totalQueueDepth() == 4;
    }));

    // stop() refuses new requests at once, even with the shard
    // wedged, and waits for the four it admitted.
    std::thread stopper([&service] { service.stop(); });
    ASSERT_TRUE(eventually([&service] { return service.stopped(); }));
    auto refused = service.predict(info);
    ASSERT_FALSE(refused);
    EXPECT_EQ(refused.error().code(), ErrorCode::Shutdown);
    auto refusedTrain = service.train(info, 0x2000, dummy);
    ASSERT_FALSE(refusedTrain);
    EXPECT_EQ(refusedTrain.error().code(), ErrorCode::Shutdown);
    EXPECT_EQ(service.totalQueueDepth(), 4u);

    // Released, every admitted request finishes and stop() returns.
    blocking->release();
    stopper.join();
    for (auto &caller : callers)
        caller.join();
    for (const auto &result : results)
        EXPECT_TRUE(result) << result.error().str();
    EXPECT_EQ(service.totalQueueDepth(), 0u);
    const auto snaps = service.snapshot();
    EXPECT_EQ(snaps[0].predicts, 1u);
    EXPECT_EQ(snaps[0].trains, 3u);
}

} // namespace
} // namespace clap
