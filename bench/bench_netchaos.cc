/**
 * @file
 * The wire-level chaos proof for src/net/: a single client replays a
 * trace through the full gateway stack while a seeded NetChaos layer
 * injects disconnects, torn frames, stalls, and bit flips — and the
 * harness asserts the contract the protocol was designed around:
 * every request ends in a correct reply or a structured error, never
 * a hang and never a reply paired with the wrong request
 * (wrong_replies must be 0 in every phase).
 *
 * Three phases, all with deterministic tables:
 *
 *   1. Chaos round trips (in-process server, UDS): two fault tiers
 *      (mild, harsh). All chaos draws happen at send time
 *      (net/chaos.hh), so every counter in the table is a pure
 *      function of the seed — running the binary twice must produce
 *      byte-identical BENCH_netchaos.json, which is exactly what the
 *      CI net-smoke job diffs.
 *
 *   2. Server kill/restart: the server runs as a child process
 *      (this binary re-executed with --child-serve); the driver
 *      SIGKILLs it between replay segments and restarts it, and the
 *      client rides through each kill with exactly one reconnect.
 *
 *   3. Shard migration: process A serves the first half of the trace,
 *      its shard snapshots are streamed over the wire
 *      (SnapshotFetch -> SnapshotInstall) into a fresh process B,
 *      which serves the second half. B's final aggregate
 *      PredictionStats must equal serve/crosscheck's
 *      shardedReferenceStats bit for bit — a migrated service is
 *      indistinguishable from one that never moved.
 *
 * Flags (besides the shared bench/sweep flags):
 *   --netchaos-seed=N   chaos schedule seed (default 0xc4a0_e7)
 *
 * Child mode (internal): --child-serve=ENDPOINT --shards=N
 * --ready-fd=FD runs a deterministic service + gateway until a
 * Shutdown frame (or SIGKILL), writing one readiness byte to FD.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "net/chaos.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;
using namespace clap::net;

std::uint64_t chaosSeed = 0xc4a0e7; ///< --netchaos-seed

std::string
socketPath(const char *tag)
{
    return "/tmp/clap_netchaos_" + std::to_string(getpid()) + "_" +
           tag + ".sock";
}

std::shared_ptr<const Trace>
benchTrace()
{
    return globalTraceStore().get(buildSuite("INT").front(),
                                  defaultTraceLength());
}

/* ------------------------------------------------------------------ */
/* Child mode: this binary re-executed as the server process.         */
/* ------------------------------------------------------------------ */

int
runChildServe(const std::string &endpoint, unsigned shards,
              int ready_fd)
{
    std::signal(SIGPIPE, SIG_IGN);
    ServiceConfig serviceConfig;
    serviceConfig.shards = shards;
    serviceConfig.overload = OverloadPolicy::Block;
    PredictionService service(serviceConfig, hybridFactory());

    ServerConfig serverConfig;
    serverConfig.endpoint = endpoint;
    NetServer server(service, nullptr, serverConfig);
    if (auto started = server.start(); !started) {
        std::fprintf(stderr, "child-serve: %s\n",
                     started.error().str().c_str());
        return 1;
    }
    if (ready_fd >= 0) {
        const char byte = 'R';
        (void)!write(ready_fd, &byte, 1);
        close(ready_fd);
    }
    while (!server.shutdownRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.stop();
    service.stop();
    return 0;
}

/** One spawned server process (fork + exec of /proc/self/exe). */
struct ChildServer
{
    pid_t pid = -1;
    std::string endpoint;

    /** Spawn and block until the child's readiness byte arrives. */
    bool
    start(const std::string &endpoint_spec, unsigned shards,
          std::string &error)
    {
        endpoint = endpoint_spec;
        char self[4096];
        const ssize_t n =
            readlink("/proc/self/exe", self, sizeof(self) - 1);
        if (n <= 0) {
            error = "readlink /proc/self/exe failed";
            return false;
        }
        self[n] = '\0';

        int ready[2];
        if (pipe(ready) != 0) {
            error = "pipe() failed";
            return false;
        }
        const std::string serveArg = "--child-serve=" + endpoint_spec;
        const std::string shardsArg =
            "--shards=" + std::to_string(shards);
        const std::string readyArg =
            "--ready-fd=" + std::to_string(ready[1]);

        pid = fork();
        if (pid < 0) {
            close(ready[0]);
            close(ready[1]);
            error = "fork() failed";
            return false;
        }
        if (pid == 0) {
            close(ready[0]);
            char *args[] = {self, const_cast<char *>(serveArg.c_str()),
                            const_cast<char *>(shardsArg.c_str()),
                            const_cast<char *>(readyArg.c_str()),
                            nullptr};
            execv(self, args);
            _exit(127);
        }
        close(ready[1]);

        // Block on the readiness byte (the child writes it once its
        // listener is bound); EOF means the child died first.
        char byte = 0;
        const ssize_t got = read(ready[0], &byte, 1);
        close(ready[0]);
        if (got != 1) {
            error = "server child exited before becoming ready";
            (void)kill();
            return false;
        }
        return true;
    }

    /** SIGKILL + reap (the crash the client must ride through). */
    int
    kill()
    {
        if (pid < 0)
            return -1;
        ::kill(pid, SIGKILL);
        int status = 0;
        waitpid(pid, &status, 0);
        pid = -1;
        return status;
    }

    /** Reap after a client-requested shutdown. */
    int
    wait()
    {
        if (pid < 0)
            return -1;
        int status = 0;
        waitpid(pid, &status, 0);
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
};

/* ------------------------------------------------------------------ */
/* Shared replay machinery.                                           */
/* ------------------------------------------------------------------ */

struct ReplayCounts
{
    std::uint64_t loads = 0;
    std::uint64_t predictErrors = 0; ///< structured errors after retries
    std::uint64_t trainErrors = 0;   ///< one-shot trains that failed
};

/**
 * Replay records [@p first, @p last) of @p trace through @p client,
 * immediate-update model. A predict that still fails after the retry
 * budget sheds that load (its train is skipped); a failed train is
 * never retried (outcome unknown) and counts as a training gap. Both
 * are structured outcomes — what must never happen is a hang or a
 * wrong reply, and those are asserted elsewhere.
 */
ReplayCounts
replaySlice(NetClient &client, const Trace &trace, std::size_t first,
            std::size_t last)
{
    ReplayCounts counts;
    const auto &records = trace.records();
    for (std::size_t i = first; i < last && i < records.size(); ++i) {
        const auto &rec = records[i];
        if (rec.isLoad()) {
            ++counts.loads;
            auto pred =
                client.predict(client.makeInfo(rec.pc, rec.immOffset));
            if (!pred) {
                ++counts.predictErrors;
                continue;
            }
            auto trained = client.train(
                client.makeInfo(rec.pc, rec.immOffset), rec.effAddr,
                *pred);
            if (!trained)
                ++counts.trainErrors;
        } else if (rec.isBranch()) {
            client.observeBranch(rec.taken);
        } else if (rec.cls == InstClass::Call) {
            client.observeCall(rec.pc);
        }
    }
    return counts;
}

ClientConfig
clientConfig(const std::string &endpoint)
{
    ClientConfig config;
    config.endpoint = endpoint;
    config.clientName = "netchaos";
    config.maxAttempts = 8;
    config.backoffBaseMs = 1;
    config.backoffMaxMs = 20;
    return config;
}

/* ------------------------------------------------------------------ */
/* Phase 1: seeded chaos round trips against an in-process server.    */
/* ------------------------------------------------------------------ */

struct ChaosTier
{
    const char *name;
    NetChaosConfig config;
};

std::vector<ChaosTier>
chaosTiers()
{
    std::vector<ChaosTier> tiers;
    {
        ChaosTier mild{"mild", {}};
        mild.config.seed = chaosSeed;
        mild.config.disconnectRate = 0.002;
        mild.config.tearRate = 0.002;
        mild.config.stallRate = 0.001;
        mild.config.flipSendRate = 0.002;
        mild.config.replyDisconnectRate = 0.001;
        mild.config.replyStallRate = 0.001;
        mild.config.flipRecvRate = 0.001;
        tiers.push_back(mild);
    }
    {
        ChaosTier harsh{"harsh", {}};
        harsh.config.seed = chaosSeed ^ 0x9e3779b97f4a7c15ull;
        harsh.config.disconnectRate = 0.01;
        harsh.config.tearRate = 0.01;
        harsh.config.stallRate = 0.005;
        harsh.config.flipSendRate = 0.01;
        harsh.config.replyDisconnectRate = 0.005;
        harsh.config.replyStallRate = 0.005;
        harsh.config.flipRecvRate = 0.005;
        tiers.push_back(harsh);
    }
    return tiers;
}

struct ChaosPhaseRow
{
    std::string tier;
    ReplayCounts counts;
    ClientCounters client;
    NetChaosStats faults;
    ServerCounters server;
    std::uint64_t serviceLoads = 0; ///< loads the predictor trained on
};

ChaosPhaseRow
runChaosTier(const ChaosTier &tier, const Trace &trace)
{
    ChaosPhaseRow row;
    row.tier = tier.name;

    ServiceConfig serviceConfig;
    serviceConfig.shards = 2;
    serviceConfig.overload = OverloadPolicy::Block;
    PredictionService service(serviceConfig, hybridFactory());

    ServerConfig serverConfig;
    serverConfig.endpoint =
        "unix:" + socketPath(("chaos-" + row.tier).c_str());
    // Reconnect bursts briefly overlap old (dying) and new
    // connections; a generous budget keeps turned_away at a
    // deterministic zero.
    serverConfig.maxConnections = 256;
    NetServer server(service, nullptr, serverConfig);
    if (auto started = server.start(); !started) {
        BenchState::instance().failures.push_back(
            {"netchaos/chaos/" + row.tier + "/start",
             started.error().str()});
        return row;
    }

    NetChaos chaos(tier.config);
    ClientConfig config = clientConfig(server.boundEndpoint().str());
    config.decorate = [&chaos](std::unique_ptr<Stream> inner) {
        return chaos.wrap(std::move(inner));
    };
    {
        NetClient client(config);
        row.counts =
            replaySlice(client, trace, 0, trace.records().size());
        row.client = client.counters();
    }
    server.stop();
    service.stop();
    std::remove(socketPath(("chaos-" + row.tier).c_str()).c_str());

    row.faults = chaos.stats();
    row.server = server.counters();
    row.serviceLoads = service.aggregateStats().loads;

    if (row.client.wrongReplies != 0) {
        BenchState::instance().failures.push_back(
            {"netchaos/chaos/" + row.tier + "/wrong-replies",
             std::to_string(row.client.wrongReplies) +
                 " replies paired with the wrong request"});
    }
    return row;
}

/* ------------------------------------------------------------------ */
/* Phase 2: server kill/restart between replay segments.              */
/* ------------------------------------------------------------------ */

struct KillPhaseRow
{
    unsigned kills = 0;
    ReplayCounts counts;
    ClientCounters client;
    bool completed = false;
};

KillPhaseRow
runKillPhase(const Trace &trace)
{
    constexpr unsigned segments = 4; // 3 kills
    KillPhaseRow row;
    const std::string endpoint = "unix:" + socketPath("kill");

    ChildServer child;
    std::string error;
    if (!child.start(endpoint, 2, error)) {
        BenchState::instance().failures.push_back(
            {"netchaos/kill/start", error});
        return row;
    }

    NetClient client(clientConfig(endpoint));
    const std::size_t total = trace.records().size();
    for (unsigned seg = 0; seg < segments; ++seg) {
        const std::size_t first = total * seg / segments;
        const std::size_t last = total * (seg + 1) / segments;
        const ReplayCounts counts =
            replaySlice(client, trace, first, last);
        row.counts.loads += counts.loads;
        row.counts.predictErrors += counts.predictErrors;
        row.counts.trainErrors += counts.trainErrors;
        if (seg + 1 == segments)
            break;

        // Crash the server between segments and block on the restart's
        // readiness byte — so the replaying client's one reconnect is
        // deterministic, not a race with server startup.
        child.kill();
        ++row.kills;
        if (!child.start(endpoint, 2, error)) {
            BenchState::instance().failures.push_back(
                {"netchaos/kill/restart" + std::to_string(seg), error});
            return row;
        }
    }
    row.client = client.counters();
    row.completed = true;

    if (auto stopped = client.requestShutdown(); !stopped) {
        BenchState::instance().failures.push_back(
            {"netchaos/kill/shutdown", stopped.error().str()});
    }
    child.wait();
    std::remove(socketPath("kill").c_str());

    if (row.client.wrongReplies != 0) {
        BenchState::instance().failures.push_back(
            {"netchaos/kill/wrong-replies",
             std::to_string(row.client.wrongReplies) +
                 " replies paired with the wrong request"});
    }
    if (row.counts.predictErrors != 0 || row.counts.trainErrors != 0) {
        // Kills land between round trips and the restart is awaited,
        // so every request must still end in a correct reply — the
        // failures ride entirely inside the retry budget.
        BenchState::instance().failures.push_back(
            {"netchaos/kill/errors",
             std::to_string(row.counts.predictErrors) + " predicts / " +
                 std::to_string(row.counts.trainErrors) +
                 " trains failed despite awaited restarts"});
    }
    return row;
}

/* ------------------------------------------------------------------ */
/* Phase 3: wire-streamed shard migration A -> B.                     */
/* ------------------------------------------------------------------ */

struct MigratePhaseRow
{
    unsigned shards = 2;
    ReplayCounts counts;
    std::uint64_t snapshotBytes = 0;
    std::uint32_t sectionsRestored = 0;
    bool salvaged = false;
    PredictionStats migrated;
    PredictionStats reference;
    bool statsEqual = false;
    bool completed = false;
};

MigratePhaseRow
runMigratePhase(const Trace &trace)
{
    MigratePhaseRow row;
    const std::string endpointA = "unix:" + socketPath("migrate-a");
    const std::string endpointB = "unix:" + socketPath("migrate-b");

    ChildServer serverA;
    std::string error;
    if (!serverA.start(endpointA, row.shards, error)) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/start-a", error});
        return row;
    }

    // First half of the trace into A. The client object survives the
    // migration below, carrying its GHR/path history across servers
    // exactly as a session would across a shard handoff.
    NetClient client(clientConfig(endpointA));
    const std::size_t half = trace.records().size() / 2;
    row.counts = replaySlice(client, trace, 0, half);

    // Stream every shard's snapshot out of A, then let A go.
    std::vector<std::string> snapshots(row.shards);
    for (unsigned s = 0; s < row.shards; ++s) {
        auto fetched = client.fetchSnapshot(s);
        if (!fetched) {
            BenchState::instance().failures.push_back(
                {"netchaos/migrate/fetch" + std::to_string(s),
                 fetched.error().str()});
            serverA.kill();
            return row;
        }
        snapshots[s] = std::move(*fetched);
        row.snapshotBytes += snapshots[s].size();
    }
    if (auto stopped = client.requestShutdown(); !stopped) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/shutdown-a", stopped.error().str()});
    }
    serverA.wait();
    std::remove(socketPath("migrate-a").c_str());

    // Install into a fresh process B and finish the trace there.
    ChildServer serverB;
    if (!serverB.start(endpointB, row.shards, error)) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/start-b", error});
        return row;
    }
    client.disconnect();
    NetClient clientB(clientConfig(endpointB));
    for (unsigned s = 0; s < row.shards; ++s) {
        auto installed = clientB.installSnapshot(s, snapshots[s]);
        if (!installed) {
            BenchState::instance().failures.push_back(
                {"netchaos/migrate/install" + std::to_string(s),
                 installed.error().str()});
            serverB.kill();
            return row;
        }
        row.sectionsRestored += installed->first;
        row.salvaged = row.salvaged || installed->second;
    }

    // Hand the front-end history over bit for bit: the session
    // context survives the server switch along with the shard state.
    clientB.adoptHistory(client.ghr(), client.pathHist());

    const ReplayCounts second =
        replaySlice(clientB, trace, half, trace.records().size());
    row.counts.loads += second.loads;
    row.counts.predictErrors += second.predictErrors;
    row.counts.trainErrors += second.trainErrors;

    // B's aggregate must now equal the never-migrated reference.
    auto stats = clientB.stats();
    if (!stats) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/stats", stats.error().str()});
        serverB.kill();
        return row;
    }
    row.migrated = stats->aggregate;
    row.reference =
        shardedReferenceStats(trace, hybridFactory(), row.shards);
    row.statsEqual = row.migrated == row.reference;
    row.completed = true;

    if (auto stopped = clientB.requestShutdown(); !stopped) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/shutdown-b", stopped.error().str()});
    }
    serverB.wait();
    std::remove(socketPath("migrate-b").c_str());

    if (!row.statsEqual) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/stats-equal",
             "migrated stats diverge from reference (migrated spec=" +
                 std::to_string(row.migrated.spec) + " correct=" +
                 std::to_string(row.migrated.specCorrect) +
                 ", reference spec=" +
                 std::to_string(row.reference.spec) + " correct=" +
                 std::to_string(row.reference.specCorrect) + ")"});
    }
    if (row.counts.predictErrors != 0 || row.counts.trainErrors != 0) {
        BenchState::instance().failures.push_back(
            {"netchaos/migrate/errors",
             "chaos-free migration replay shed requests"});
    }
    return row;
}

/* ------------------------------------------------------------------ */
/* Harness plumbing.                                                  */
/* ------------------------------------------------------------------ */

struct NetChaosResults
{
    std::vector<ChaosPhaseRow> chaos;
    KillPhaseRow kill;
    MigratePhaseRow migrate;
};

const NetChaosResults &
results()
{
    static const NetChaosResults cached = [] {
        std::signal(SIGPIPE, SIG_IGN);
        NetChaosResults out;
        const std::shared_ptr<const Trace> trace = benchTrace();
        for (const ChaosTier &tier : chaosTiers())
            out.chaos.push_back(runChaosTier(tier, *trace));
        out.kill = runKillPhase(*trace);
        out.migrate = runMigratePhase(*trace);
        return out;
    }();
    return cached;
}

void
printResults()
{
    const NetChaosResults &res = results();

    Table chaos;
    chaos.row({"tier", "loads", "preds_ok", "pred_err", "trains_ok",
               "train_err", "retries", "connects", "corrupt_reply",
               "wrong_replies", "go_aways", "faults", "srv_corrupt",
               "svc_loads"});
    for (const ChaosPhaseRow &row : res.chaos) {
        chaos.newRow();
        chaos.cell(row.tier);
        chaos.cell(row.counts.loads);
        chaos.cell(row.client.predictsOk);
        chaos.cell(row.counts.predictErrors);
        chaos.cell(row.client.trainsOk);
        chaos.cell(row.counts.trainErrors);
        chaos.cell(row.client.retries);
        chaos.cell(row.client.connects);
        chaos.cell(row.client.corruptReplies);
        chaos.cell(row.client.wrongReplies);
        chaos.cell(row.client.goAways);
        chaos.cell(row.faults.total());
        chaos.cell(row.server.corruptFrames);
        chaos.cell(row.serviceLoads);
    }
    printTable("Seeded wire chaos: every request resolves, "
               "wrong_replies must be 0 (byte-identical across "
               "same-seed runs)",
               chaos);

    Table kill;
    kill.row({"kills", "loads", "pred_err", "train_err", "retries",
              "connects", "wrong_replies", "completed"});
    kill.newRow();
    kill.cell(static_cast<std::uint64_t>(res.kill.kills));
    kill.cell(res.kill.counts.loads);
    kill.cell(res.kill.counts.predictErrors);
    kill.cell(res.kill.counts.trainErrors);
    kill.cell(res.kill.client.retries);
    kill.cell(res.kill.client.connects);
    kill.cell(res.kill.client.wrongReplies);
    kill.cell(res.kill.completed ? "yes" : "NO");
    printTable("Server kill/restart: the client rides through each "
               "SIGKILL with a reconnect",
               kill);

    Table migrate;
    migrate.row({"shards", "loads", "snap_bytes", "sections",
                 "salvaged", "mig_spec", "mig_correct", "ref_spec",
                 "ref_correct", "stats_equal"});
    migrate.newRow();
    migrate.cell(static_cast<std::uint64_t>(res.migrate.shards));
    migrate.cell(res.migrate.counts.loads);
    migrate.cell(res.migrate.snapshotBytes);
    migrate.cell(
        static_cast<std::uint64_t>(res.migrate.sectionsRestored));
    migrate.cell(res.migrate.salvaged ? "yes" : "no");
    migrate.cell(res.migrate.migrated.spec);
    migrate.cell(res.migrate.migrated.specCorrect);
    migrate.cell(res.migrate.reference.spec);
    migrate.cell(res.migrate.reference.specCorrect);
    migrate.cell(res.migrate.statsEqual ? "yes" : "NO");
    printTable("Wire-streamed shard migration: process B must equal "
               "the never-migrated reference bit for bit",
               migrate);

    std::printf("\nexpected: wrong_replies = 0 everywhere, kill phase "
                "completed = yes with zero shed requests, migration "
                "stats_equal = yes\n");
}

void
parseNetChaosFlags(int &argc, char **argv)
{
    stripHarnessFlags(argc, argv, [](const std::string &arg) {
        std::string value;
        if (!flagValue(arg, "--netchaos-seed=", value))
            return false;
        chaosSeed = parseFlagUint("--netchaos-seed", value, 0);
        return true;
    });
}

} // namespace

int
main(int argc, char **argv)
{
    // Child mode: no benchmark harness, just the server loop.
    std::string childEndpoint;
    unsigned childShards = 2;
    int readyFd = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.compare(0, 14, "--child-serve=") == 0)
            childEndpoint = arg.substr(14);
        else if (arg.compare(0, 9, "--shards=") == 0 &&
                 !childEndpoint.empty())
            childShards =
                static_cast<unsigned>(std::atol(arg.c_str() + 9));
        else if (arg.compare(0, 11, "--ready-fd=") == 0)
            readyFd = std::atoi(arg.c_str() + 11);
    }
    if (!childEndpoint.empty())
        return runChildServe(childEndpoint, childShards, readyFd);

    parseNetChaosFlags(argc, argv);
    return clap::bench::benchMain("netchaos", argc, argv, printResults);
}
