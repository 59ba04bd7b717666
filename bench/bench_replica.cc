/**
 * @file
 * The replication proof for src/replica/: a single client replays a
 * trace through one ReplicaGateway endpoint fronting N clapd-shaped
 * replica processes, and the harness asserts the contract the layer
 * was designed around — the replica set is indistinguishable from one
 * unsharded deterministic service. Aggregate PredictionStats must
 * equal serve/crosscheck's shardedReferenceStats bit for bit, the
 * divergence auditor must find every replica's per-shard stats
 * identical after a drain, and wrong_replies must be 0 everywhere.
 *
 * Two phases, all with deterministic tables:
 *
 *   1. Balanced replay: three blank replicas are cold-started through
 *      one healthPass() (first answers donorless, seeds the rest),
 *      then the full trace flows through the gateway with the seeded
 *      balance policy. Every predict lands on a seed-chosen replica;
 *      every train fans out to all three. The per-replica predict
 *      counts are a pure function of the balance seed.
 *
 *   2. Failover: the trace replays in segments and a KillPlan-seeded
 *      victim is SIGKILLed at segment boundaries. Round one heals
 *      through healthPass() (ping -> Down replica answered ->
 *      SnapshotFetch from a donor -> SnapshotInstall -> rejoin);
 *      round two exercises the journal deterministically — beginJoin
 *      cuts the snapshot, a whole segment of trains lands in the
 *      journal, finishJoin replays it. The client sees zero errors
 *      end to end: predicts fail over inside the gateway, trains are
 *      never shed while any replica serves.
 *
 * Both phases end with the divergence audit, and running the binary
 * twice must produce byte-identical BENCH_replica.json — which is
 * exactly what the CI replica-smoke job diffs.
 *
 * Flags (besides the shared bench/sweep flags):
 *   --replica-seed=N   balance + kill schedule seed (default 0x5eed)
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
#include "net/client.hh"
#include "net/server.hh"
#include "replica/chaos.hh"
#include "replica/gateway.hh"
#include "serve/crosscheck.hh"
#include "serve/service.hh"
#include "workloads/composer.hh"

namespace
{

using namespace clap;
using namespace clap::bench;
using namespace clap::net;
using namespace clap::replica;

std::uint64_t replicaSeed = 0x5eed; ///< --replica-seed

constexpr unsigned kReplicas = 3;
constexpr unsigned kShards = 2;

std::string
socketPath(const std::string &tag)
{
    return "/tmp/clap_replica_" + std::to_string(getpid()) + "_" + tag +
           ".sock";
}

std::shared_ptr<const Trace>
benchTrace()
{
    return globalTraceStore().get(buildSuite("INT").front(),
                                  defaultTraceLength());
}

/* ------------------------------------------------------------------ */
/* Child mode: this binary re-executed as one replica process.        */
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

/** One spawned replica process (fork + exec of /proc/self/exe). */
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

        char byte = 0;
        const ssize_t got = read(ready[0], &byte, 1);
        close(ready[0]);
        if (got != 1) {
            error = "replica child exited before becoming ready";
            (void)kill();
            return false;
        }
        return true;
    }

    /** SIGKILL + reap (the crash the gateway must ride through). */
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

/** Shutdown one replica child directly (bypassing the gateway, whose
 *  Shutdown frame stops only the front door). */
void
shutdownChild(ChildServer &child)
{
    ClientConfig config;
    config.endpoint = child.endpoint;
    config.clientName = "replica-bench-admin";
    NetClient admin(config);
    if (admin.requestShutdown())
        child.wait();
    else
        child.kill();
}

/* ------------------------------------------------------------------ */
/* Shared replay machinery.                                           */
/* ------------------------------------------------------------------ */

struct ReplayCounts
{
    std::uint64_t loads = 0;
    std::uint64_t predictErrors = 0;
    std::uint64_t trainErrors = 0;

    void
    add(const ReplayCounts &other)
    {
        loads += other.loads;
        predictErrors += other.predictErrors;
        trainErrors += other.trainErrors;
    }
};

/**
 * Replay records [@p first, @p last) of @p trace through @p client,
 * immediate-update model. While any replica serves, the gateway must
 * absorb every fault: a predict fails over internally and a train
 * lands on the survivors, so both error counts are asserted to be 0
 * at the end of each phase.
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
    config.clientName = "replica-bench";
    config.maxAttempts = 8;
    config.backoffBaseMs = 1;
    config.backoffMaxMs = 20;
    return config;
}

/** A gateway + front-door server over already-started children. */
struct GatewayStack
{
    std::unique_ptr<ReplicaGateway> gateway;
    std::unique_ptr<NetServer> server;

    bool
    start(const std::vector<std::string> &replicas,
          const std::string &endpoint, const char *phase)
    {
        ReplicaGatewayConfig config;
        config.replicas = replicas;
        config.shards = kShards;
        config.balance = ReplicaGatewayConfig::Balance::Seeded;
        config.balanceSeed = replicaSeed;
        gateway = std::make_unique<ReplicaGateway>(config);
        if (auto started = gateway->start(); !started) {
            BenchState::instance().failures.push_back(
                {std::string("replica/") + phase + "/gateway-start",
                 started.error().str()});
            return false;
        }
        ServerConfig serverConfig;
        serverConfig.endpoint = endpoint;
        serverConfig.serverName = "clapr";
        server = std::make_unique<NetServer>(*gateway, serverConfig);
        if (auto started = server->start(); !started) {
            BenchState::instance().failures.push_back(
                {std::string("replica/") + phase + "/server-start",
                 started.error().str()});
            return false;
        }
        return true;
    }

    void
    stop()
    {
        if (server)
            server->stop();
        if (gateway)
            gateway->stop();
    }
};

/** Record a failure unless @p condition holds. */
void
expect(bool condition, const std::string &key, const std::string &what)
{
    if (!condition)
        BenchState::instance().failures.push_back({key, what});
}

/* ------------------------------------------------------------------ */
/* Phase 1: balanced replay over three healthy replicas.              */
/* ------------------------------------------------------------------ */

struct BalancedRow
{
    ReplayCounts counts;
    ClientCounters client;
    GatewayCounters gateway;
    std::vector<std::uint64_t> perReplicaPredicts;
    std::uint64_t coldJoins = 0;
    PredictionStats stats;
    PredictionStats reference;
    bool statsEqual = false;
    bool auditEqual = false;
    bool completed = false;
};

BalancedRow
runBalancedPhase(const Trace &trace)
{
    BalancedRow row;
    std::vector<ChildServer> children(kReplicas);
    std::vector<std::string> endpoints;
    std::string error;
    for (unsigned i = 0; i < kReplicas; ++i) {
        endpoints.push_back(
            "unix:" + socketPath("bal-r" + std::to_string(i)));
        if (!children[i].start(endpoints[i], kShards, error)) {
            BenchState::instance().failures.push_back(
                {"replica/balanced/start-r" + std::to_string(i),
                 error});
            for (unsigned j = 0; j < i; ++j)
                children[j].kill();
            return row;
        }
    }

    GatewayStack stack;
    const std::string front = "unix:" + socketPath("bal-gw");
    if (!stack.start(endpoints, front, "balanced")) {
        for (auto &child : children)
            child.kill();
        return row;
    }

    // One pass cold-starts the set: every replica is blank and Down,
    // so the first to answer joins donorless and donates to the rest.
    const unsigned joined = stack.gateway->healthPass();
    expect(joined == kReplicas, "replica/balanced/cold-start",
           std::to_string(joined) + " of " +
               std::to_string(kReplicas) + " replicas joined");

    {
        NetClient client(clientConfig(front));
        row.counts =
            replaySlice(client, trace, 0, trace.records().size());
        auto stats = client.stats();
        if (stats) {
            row.stats = stats->aggregate;
        } else {
            BenchState::instance().failures.push_back(
                {"replica/balanced/stats", stats.error().str()});
        }
        row.client = client.counters();
    }

    auto audit = stack.gateway->auditReplicas();
    if (audit) {
        row.auditEqual = audit->equal;
    } else {
        BenchState::instance().failures.push_back(
            {"replica/balanced/audit", audit.error().str()});
    }

    for (const ReplicaSnapshot &snap :
         stack.gateway->replicaSnapshots()) {
        row.perReplicaPredicts.push_back(snap.counters.predictsServed);
        row.coldJoins += snap.counters.coldJoins;
    }
    row.gateway = stack.gateway->counters();
    row.reference =
        shardedReferenceStats(trace, hybridFactory(), kShards);
    row.statsEqual = row.stats == row.reference;
    row.completed = true;

    stack.stop();
    for (auto &child : children)
        shutdownChild(child);
    for (unsigned i = 0; i < kReplicas; ++i)
        std::remove(socketPath("bal-r" + std::to_string(i)).c_str());
    std::remove(socketPath("bal-gw").c_str());

    expect(row.statsEqual, "replica/balanced/stats-equal",
           "replicated aggregate diverges from the unsharded "
           "reference (spec=" +
               std::to_string(row.stats.spec) + " vs " +
               std::to_string(row.reference.spec) + ")");
    expect(row.auditEqual, "replica/balanced/audit-equal",
           "per-shard stats diverge across replicas");
    expect(row.client.wrongReplies == 0,
           "replica/balanced/wrong-replies",
           std::to_string(row.client.wrongReplies) +
               " replies paired with the wrong request");
    expect(row.counts.predictErrors == 0 &&
               row.counts.trainErrors == 0,
           "replica/balanced/errors",
           std::to_string(row.counts.predictErrors) + " predicts / " +
               std::to_string(row.counts.trainErrors) +
               " trains failed with every replica healthy");
    std::uint64_t served = 0;
    for (std::uint64_t predicts : row.perReplicaPredicts)
        served += predicts;
    expect(served == row.counts.loads, "replica/balanced/conservation",
           "per-replica predict counts do not sum to the load count");
    return row;
}

/* ------------------------------------------------------------------ */
/* Phase 2: seeded SIGKILL failover with heal and journal rounds.     */
/* ------------------------------------------------------------------ */

struct FailoverRow
{
    unsigned kills = 0;
    unsigned healVictim = 0;
    unsigned journalVictim = 0;
    ReplayCounts counts;
    ClientCounters client;
    GatewayCounters gateway;
    std::uint64_t journaled = 0;
    std::uint64_t replayed = 0;
    std::uint64_t bootstrapBytes = 0;
    PredictionStats stats;
    PredictionStats reference;
    bool statsEqual = false;
    bool auditEqual = false;
    bool completed = false;
};

FailoverRow
runFailoverPhase(const Trace &trace)
{
    // Six segments: [kill victim A] heal, then [kill victim B]
    // beginJoin / journal a whole segment / finishJoin, then a final
    // all-healthy segment. Both victims come from the seeded plan.
    constexpr unsigned segments = 6;
    FailoverRow row;
    const KillPlan plan(replicaSeed, kReplicas, /*rounds=*/2);
    row.healVictim = plan.victim(0);
    row.journalVictim = plan.victim(1);

    std::vector<ChildServer> children(kReplicas);
    std::vector<std::string> endpoints;
    std::string error;
    for (unsigned i = 0; i < kReplicas; ++i) {
        endpoints.push_back(
            "unix:" + socketPath("fo-r" + std::to_string(i)));
        if (!children[i].start(endpoints[i], kShards, error)) {
            BenchState::instance().failures.push_back(
                {"replica/failover/start-r" + std::to_string(i),
                 error});
            for (unsigned j = 0; j < i; ++j)
                children[j].kill();
            return row;
        }
    }

    GatewayStack stack;
    const std::string front = "unix:" + socketPath("fo-gw");
    if (!stack.start(endpoints, front, "failover")) {
        for (auto &child : children)
            child.kill();
        return row;
    }
    const unsigned joined = stack.gateway->healthPass();
    expect(joined == kReplicas, "replica/failover/cold-start",
           std::to_string(joined) + " of " +
               std::to_string(kReplicas) + " replicas joined");

    const std::size_t total = trace.records().size();
    auto sliceBounds = [total](unsigned seg) {
        return std::pair<std::size_t, std::size_t>{
            total * seg / segments, total * (seg + 1) / segments};
    };

    bool aborted = false;
    {
        NetClient client(clientConfig(front));
        for (unsigned seg = 0; seg < segments && !aborted; ++seg) {
            switch (seg) {
              case 1:
                // Victim A dies between round trips. The gateway
                // discovers it inside this segment: a predict forward
                // strikes it, the first fanned train marks it Down.
                children[row.healVictim].kill();
                ++row.kills;
                break;
              case 2:
                // Restart, then heal through the production path: the
                // pass pings the Down replica, it answers, and the
                // full bootstrap runs inside healthPass().
                if (!children[row.healVictim].start(
                        endpoints[row.healVictim], kShards, error)) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/restart-heal", error});
                    aborted = true;
                    break;
                }
                if (stack.gateway->healthPass() != 1) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/heal",
                         "healthPass did not rejoin the victim"});
                }
                break;
              case 3:
                children[row.journalVictim].kill();
                ++row.kills;
                break;
              case 4:
                // Journal round: restart the victim and cut its
                // snapshot now, but leave it Joining for the whole
                // segment — every train below lands in its journal.
                if (!children[row.journalVictim].start(
                        endpoints[row.journalVictim], kShards,
                        error)) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/restart-journal", error});
                    aborted = true;
                    break;
                }
                if (auto begun = stack.gateway->beginJoin(
                        row.journalVictim);
                    !begun) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/begin-join",
                         begun.error().str()});
                    aborted = true;
                }
                break;
              default:
                break;
            }
            if (aborted)
                break;
            const auto [first, last] = sliceBounds(seg);
            row.counts.add(replaySlice(client, trace, first, last));
            if (seg == 4) {
                // The journaled segment is over: install the cut,
                // replay the journal, and re-enter rotation.
                if (auto finished = stack.gateway->finishJoin(
                        row.journalVictim);
                    !finished) {
                    BenchState::instance().failures.push_back(
                        {"replica/failover/finish-join",
                         finished.error().str()});
                    aborted = true;
                }
            }
        }

        auto stats = client.stats();
        if (stats) {
            row.stats = stats->aggregate;
        } else {
            BenchState::instance().failures.push_back(
                {"replica/failover/stats", stats.error().str()});
        }
        row.client = client.counters();
    }

    auto audit = stack.gateway->auditReplicas();
    if (audit) {
        row.auditEqual = audit->equal;
    } else {
        BenchState::instance().failures.push_back(
            {"replica/failover/audit", audit.error().str()});
    }

    for (const ReplicaSnapshot &snap :
         stack.gateway->replicaSnapshots()) {
        row.journaled += snap.counters.trainsJournaled;
        row.replayed += snap.counters.trainsReplayed;
        row.bootstrapBytes += snap.counters.bootstrapBytes;
    }
    row.gateway = stack.gateway->counters();
    row.reference =
        shardedReferenceStats(trace, hybridFactory(), kShards);
    row.statsEqual = row.stats == row.reference;
    row.completed = !aborted;

    stack.stop();
    for (auto &child : children)
        shutdownChild(child);
    for (unsigned i = 0; i < kReplicas; ++i)
        std::remove(socketPath("fo-r" + std::to_string(i)).c_str());
    std::remove(socketPath("fo-gw").c_str());

    expect(row.completed, "replica/failover/completed",
           "failover phase aborted early");
    expect(row.statsEqual, "replica/failover/stats-equal",
           "post-failover aggregate diverges from the unsharded "
           "reference (spec=" +
               std::to_string(row.stats.spec) + " vs " +
               std::to_string(row.reference.spec) + ")");
    expect(row.auditEqual, "replica/failover/audit-equal",
           "per-shard stats diverge across replicas after rejoin");
    expect(row.client.wrongReplies == 0,
           "replica/failover/wrong-replies",
           std::to_string(row.client.wrongReplies) +
               " replies paired with the wrong request");
    expect(row.counts.predictErrors == 0 &&
               row.counts.trainErrors == 0,
           "replica/failover/errors",
           std::to_string(row.counts.predictErrors) + " predicts / " +
               std::to_string(row.counts.trainErrors) +
               " trains surfaced to the client despite surviving "
               "replicas");
    expect(row.journaled > 0 && row.journaled == row.replayed,
           "replica/failover/journal",
           "journal did not fill and drain exactly (journaled=" +
               std::to_string(row.journaled) + ", replayed=" +
               std::to_string(row.replayed) + ")");
    return row;
}

/* ------------------------------------------------------------------ */
/* Harness plumbing.                                                  */
/* ------------------------------------------------------------------ */

struct ReplicaResults
{
    BalancedRow balanced;
    FailoverRow failover;
};

const ReplicaResults &
results()
{
    static const ReplicaResults cached = [] {
        std::signal(SIGPIPE, SIG_IGN);
        ReplicaResults out;
        const std::shared_ptr<const Trace> trace = benchTrace();
        out.balanced = runBalancedPhase(*trace);
        out.failover = runFailoverPhase(*trace);
        return out;
    }();
    return cached;
}

void
printResults()
{
    const ReplicaResults &res = results();

    Table balanced;
    balanced.row({"replicas", "shards", "loads", "pred_err",
                  "train_err", "preds_r0", "preds_r1", "preds_r2",
                  "train_sends", "cold_joins", "joins", "spec",
                  "spec_correct", "ref_spec", "ref_correct",
                  "stats_equal", "audit_equal"});
    balanced.newRow();
    balanced.cell(static_cast<std::uint64_t>(kReplicas));
    balanced.cell(static_cast<std::uint64_t>(kShards));
    balanced.cell(res.balanced.counts.loads);
    balanced.cell(res.balanced.counts.predictErrors);
    balanced.cell(res.balanced.counts.trainErrors);
    for (unsigned i = 0; i < kReplicas; ++i)
        balanced.cell(i < res.balanced.perReplicaPredicts.size()
                          ? res.balanced.perReplicaPredicts[i]
                          : 0);
    balanced.cell(res.balanced.gateway.trainSends);
    balanced.cell(res.balanced.coldJoins);
    balanced.cell(res.balanced.gateway.joins);
    balanced.cell(res.balanced.stats.spec);
    balanced.cell(res.balanced.stats.specCorrect);
    balanced.cell(res.balanced.reference.spec);
    balanced.cell(res.balanced.reference.specCorrect);
    balanced.cell(res.balanced.statsEqual ? "yes" : "NO");
    balanced.cell(res.balanced.auditEqual ? "yes" : "NO");
    printTable("Balanced replay: three replicas behind one endpoint "
               "must equal the unsharded reference bit for bit "
               "(byte-identical across same-seed runs)",
               balanced);

    Table failover;
    failover.row({"kills", "heal_victim", "journal_victim", "loads",
                  "pred_err", "train_err", "failovers", "joins",
                  "journaled", "replayed", "boot_bytes",
                  "wrong_replies", "spec", "ref_spec", "stats_equal",
                  "audit_equal", "completed"});
    failover.newRow();
    failover.cell(static_cast<std::uint64_t>(res.failover.kills));
    failover.cell(
        static_cast<std::uint64_t>(res.failover.healVictim));
    failover.cell(
        static_cast<std::uint64_t>(res.failover.journalVictim));
    failover.cell(res.failover.counts.loads);
    failover.cell(res.failover.counts.predictErrors);
    failover.cell(res.failover.counts.trainErrors);
    failover.cell(res.failover.gateway.predictFailovers);
    failover.cell(res.failover.gateway.joins);
    failover.cell(res.failover.journaled);
    failover.cell(res.failover.replayed);
    failover.cell(res.failover.bootstrapBytes);
    failover.cell(res.failover.client.wrongReplies);
    failover.cell(res.failover.stats.spec);
    failover.cell(res.failover.reference.spec);
    failover.cell(res.failover.statsEqual ? "yes" : "NO");
    failover.cell(res.failover.auditEqual ? "yes" : "NO");
    failover.cell(res.failover.completed ? "yes" : "NO");
    printTable("Seeded SIGKILL failover: heal round through "
               "healthPass, journal round through beginJoin/"
               "finishJoin; the client sees zero errors",
               failover);

    std::printf("\nexpected: stats_equal = yes and audit_equal = yes "
                "in both phases, wrong_replies = 0, zero client-"
                "visible errors, journaled == replayed > 0\n");
}

void
parseReplicaFlags(int &argc, char **argv)
{
    stripHarnessFlags(argc, argv, [](const std::string &arg) {
        std::string value;
        if (!flagValue(arg, "--replica-seed=", value))
            return false;
        replicaSeed = parseFlagUint("--replica-seed", value, 0);
        return true;
    });
}

} // namespace

int
main(int argc, char **argv)
{
    // Child mode: no benchmark harness, just the replica loop.
    std::string childEndpoint;
    unsigned childShards = kShards;
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

    parseReplicaFlags(argc, argv);
    return clap::bench::benchMain("replica", argc, argv, printResults);
}
