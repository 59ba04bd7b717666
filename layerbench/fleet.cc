/**
 * @file
 * `fleet`: clapr with 2 clapd replicas (2 shards each) as child
 * processes over UDS, driven by 2 NetClient connections replaying an
 * INT and a TPC trace. Trains fan out to both replicas, predicts go
 * to one. The only workload where net and replica work.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "clients.hh"
#include "net/client.hh"
#include "util/json.hh"
#include "workloads/suites.hh"

extern char **environ;

namespace clap::layerbench
{

namespace
{

constexpr unsigned kReplicas = 2;
constexpr unsigned kReplicaShards = 2;
constexpr std::uint64_t kRoundLoads = 2048; ///< per client per round
constexpr std::uint64_t kProbeLoads = 512;  ///< per client, probes
constexpr int kReadyTimeoutMs = 15000;

/** A daemon child; SIGTERM (then SIGKILL) and reaped on stop(). */
class Child
{
  public:
    Child() = default;
    ~Child() { stop(); }
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /** Spawn @p exe with @p args plus --ready-fd and wait for its
     *  readiness byte. Its stdout goes to @p stdout_path; with an
     *  empty path it runs --quiet. */
    bool
    start(const std::string &exe, std::vector<std::string> args,
          const std::vector<std::string> &extra_env,
          const std::string &stdout_path, std::string &error)
    {
        int fds[2];
        if (pipe(fds) != 0) {
            error = "pipe failed";
            return false;
        }
        fcntl(fds[0], F_SETFD, FD_CLOEXEC);
        args.insert(args.begin(), exe);
        args.push_back("--ready-fd=" + std::to_string(fds[1]));
        if (stdout_path.empty())
            args.push_back("--quiet");
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        std::vector<std::string> env(extra_env);
        std::vector<char *> envp;
        for (char **e = environ; *e != nullptr; ++e)
            envp.push_back(*e);
        for (std::string &e : env)
            envp.push_back(e.data());
        envp.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        if (!stdout_path.empty())
            posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                             stdout_path.c_str(),
                                             O_WRONLY | O_CREAT | O_TRUNC,
                                             0644);
        const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                                   argv.data(), envp.data());
        posix_spawn_file_actions_destroy(&actions);
        close(fds[1]);
        if (rc != 0) {
            close(fds[0]);
            pid_ = -1;
            error = "cannot spawn " + exe;
            return false;
        }
        pollfd pfd{fds[0], POLLIN, 0};
        char byte = 0;
        const bool ready = poll(&pfd, 1, kReadyTimeoutMs) == 1 &&
            read(fds[0], &byte, 1) == 1;
        close(fds[0]);
        if (!ready)
            error = exe + " did not become ready";
        return ready;
    }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        int status = 0;
        for (int waited = 0; waited < 500; ++waited) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    int pid() const { return pid_; }

  private:
    pid_t pid_ = -1;
};

std::string
binDir()
{
    char path[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
    if (n <= 0)
        return ".";
    return std::filesystem::path(std::string(path, static_cast<std::size_t>(n)))
        .parent_path()
        .string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** The counts clapr prints in its exit summary. */
struct GatewaySummary
{
    bool found = false;
    unsigned long long predicts = 0;
    unsigned long long failovers = 0;
    unsigned long long trains = 0;
};

GatewaySummary
parseGatewaySummary(const std::string &text)
{
    GatewaySummary out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (std::sscanf(line.c_str(),
                        "clapr: %llu predict(s) (%llu failover(s), %*u "
                        "failed), %llu train(s)",
                        &out.predicts, &out.failovers, &out.trains) == 3) {
            out.found = true;
            break;
        }
    }
    return out;
}

std::unique_ptr<net::NetClient>
connectTo(const std::string &endpoint, const std::string &name)
{
    net::ClientConfig config;
    config.endpoint = endpoint;
    config.clientName = name;
    return std::make_unique<net::NetClient>(config);
}

/** clapr in front of kReplicas clapd children, in a private run
 *  directory under the working directory (relative socket paths keep
 *  them short wherever the checkout lives). */
class Fleet
{
  public:
    Fleet() = default;
    ~Fleet() { stop(); }
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Start the fleet; with @p trace_gateway clapr records its
     *  sampled spans (trace events) into the run directory. clapr's
     *  stdout, which ends in its exit summary, goes there too. */
    bool
    start(bool trace_gateway, std::string &error)
    {
        dir_ = ".bench_run/fleet-" + std::to_string(getpid()) + "-" +
            std::to_string(starts_++);
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
        std::filesystem::create_directories(dir_, ec);
        if (ec) {
            error = "cannot create " + dir_;
            return false;
        }
        const std::string bin = binDir();
        std::vector<std::string> gatewayArgs{
            "--shards=" + std::to_string(kReplicaShards),
            "--endpoint=" + endpoint()};
        for (unsigned r = 0; r < kReplicas; ++r) {
            replicas_.push_back(std::make_unique<Child>());
            if (!replicas_.back()->start(
                    bin + "/clapd",
                    {"--shards=" + std::to_string(kReplicaShards),
                     "--endpoint=" + replicaEndpoint(r)},
                    {}, "", error))
                return false;
            gatewayArgs.push_back("--replica=" + replicaEndpoint(r));
        }
        gateway_ = std::make_unique<Child>();
        std::vector<std::string> env;
        if (trace_gateway)
            env.push_back("CLAP_TRACE_EVENTS=" + gatewayTracePath());
        return gateway_->start(bin + "/clapr", gatewayArgs, env,
                               dir_ + "/clapr.out", error);
    }

    /** Stop clapr, which prints its exit summary and writes its trace
     *  events as it exits. */
    void
    stopGateway()
    {
        if (gateway_)
            gateway_->stop();
    }

    GatewaySummary
    gatewaySummary() const
    {
        return parseGatewaySummary(readFile(dir_ + "/clapr.out"));
    }

    void
    stop()
    {
        if (gateway_)
            gateway_->stop();
        replicas_.clear(); // each child stops on destruction
        gateway_.reset();
        if (!dir_.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir_, ec);
            std::filesystem::remove(".bench_run", ec); // only if empty
            dir_.clear();
        }
    }

    std::string endpoint() const { return "unix:" + dir_ + "/clapr.sock"; }
    std::string gatewayTracePath() const { return dir_ + "/clapr.trace.json"; }
    std::string
    replicaEndpoint(unsigned r) const
    {
        return "unix:" + dir_ + "/clapd" + std::to_string(r) + ".sock";
    }

    /** Every live child's pid (gateway first). */
    std::vector<int>
    pids() const
    {
        std::vector<int> out;
        if (gateway_)
            out.push_back(gateway_->pid());
        for (const auto &child : replicas_)
            out.push_back(child->pid());
        return out;
    }

  private:
    std::string dir_;
    unsigned starts_ = 0;
    std::vector<std::unique_ptr<Child>> replicas_;
    std::unique_ptr<Child> gateway_;
};

struct NetApi
{
    std::unique_ptr<net::NetClient> client;

    Expected<Prediction>
    predict(const TraceRecord &rec)
    {
        return client->predict(client->makeInfo(rec.pc, rec.immOffset));
    }
    Expected<void>
    train(const TraceRecord &rec, const Prediction &pred)
    {
        return client->train(client->makeInfo(rec.pc, rec.immOffset),
                             rec.effAddr, pred);
    }
    void branch(bool taken) { client->observeBranch(taken); }
    void call(std::uint64_t pc) { client->observeCall(pc); }
};

/** The parts of one process's ObsFetch scrape the benchmark reads. */
struct Scrape
{
    JsonValue doc;

    const JsonValue *
    histogramJson(const std::string &name) const
    {
        if (const JsonValue *timing = doc.find("timing"))
            if (const JsonValue *h = timing->find(name))
                return h;
        if (const JsonValue *metrics = doc.find("metrics"))
            if (const JsonValue *hs = metrics->find("histograms"))
                return hs->find(name);
        return nullptr;
    }

    obs::HistogramSnapshot
    histogram(const std::string &name) const
    {
        obs::HistogramSnapshot snap;
        const JsonValue *h = histogramJson(name);
        if (h == nullptr)
            return snap;
        snap.sum = h->uintOr("sum", 0);
        if (const JsonValue *buckets = h->find("buckets")) {
            for (const JsonValue &pair : buckets->items) {
                if (pair.items.size() != 2)
                    continue;
                const std::uint64_t lower = pair.items[0].uintValue;
                const std::size_t b =
                    lower == 0 ? 0 : static_cast<std::size_t>(std::bit_width(lower));
                snap.buckets[b] += pair.items[1].uintValue;
                snap.count += pair.items[1].uintValue;
            }
        }
        return snap;
    }

    std::uint64_t
    counter(const std::string &name) const
    {
        const JsonValue *metrics = doc.find("metrics");
        const JsonValue *counters =
            metrics ? metrics->find("counters") : nullptr;
        return counters ? counters->uintOr(name, 0) : 0;
    }
};

Expected<Scrape>
scrape(net::NetClient &client)
{
    auto text = client.fetchObs(true);
    if (!text)
        return std::move(text.error());
    auto parsed = parseJson(*text);
    if (!parsed)
        return std::move(parsed.error());
    return Scrape{std::move(*parsed)};
}

/** Scrapes of clapr and every clapd taken at one moment. */
struct FleetScrape
{
    Scrape gateway;
    std::vector<Scrape> replicas;
};

/** Add the per-bucket delta of @p name over every replica. */
obs::HistogramSnapshot
replicaDelta(const FleetScrape &after, const FleetScrape &before,
             const std::string &name)
{
    obs::HistogramSnapshot total;
    for (std::size_t r = 0; r < after.replicas.size(); ++r) {
        const obs::HistogramSnapshot d =
            histogramDelta(after.replicas[r].histogram(name),
                           before.replicas[r].histogram(name));
        for (std::size_t b = 0; b < d.buckets.size(); ++b)
            total.buckets[b] += d.buckets[b];
        total.count += d.count;
        total.sum += d.sum;
    }
    return total;
}

/** Observer connections: one to clapr, one per clapd. */
struct Observers
{
    std::unique_ptr<net::NetClient> gateway;
    std::vector<std::unique_ptr<net::NetClient>> replicas;

    explicit Observers(const Fleet &fleet)
        : gateway(connectTo(fleet.endpoint(), "layerbench-observer"))
    {
        for (unsigned r = 0; r < kReplicas; ++r)
            replicas.push_back(connectTo(fleet.replicaEndpoint(r),
                                         "layerbench-observer"));
    }

    Expected<FleetScrape>
    scrapeAll()
    {
        FleetScrape out;
        auto g = scrape(*gateway);
        if (!g)
            return std::move(g.error());
        out.gateway = std::move(*g);
        for (auto &client : replicas) {
            auto r = scrape(*client);
            if (!r)
                return std::move(r.error());
            out.replicas.push_back(std::move(*r));
        }
        return out;
    }
};

/** Scrape until clapr, and the replicas together, have timed at
 *  least @p frames more frames than in @p base, for at most a second.
 *  A server records a frame's stages after it has sent the reply, so
 *  its last frames may not be in its histograms yet when the client
 *  has its answer. */
Expected<FleetScrape>
scrapeWhenTimed(Observers &observers, const FleetScrape &base,
                std::uint64_t frames)
{
    const std::string name = "net.stage.total_ns";
    auto timed = [&](const FleetScrape &now) {
        return histogramDelta(now.gateway.histogram(name),
                              base.gateway.histogram(name))
                       .count >= frames &&
            replicaDelta(now, base, name).count >= frames;
    };
    auto now = observers.scrapeAll();
    for (int tries = 0; tries < 1000 && now && !timed(*now); ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        now = observers.scrapeAll();
    }
    return now;
}

/** Wait until every replica has trained @p loads loads, then check
 *  that the replicas agree bit for bit. Returns replica 0's stats. */
PredictionStats
checkReplicas(Observers &observers, std::uint64_t loads,
              RunResult &result, std::vector<std::uint64_t> &predicts)
{
    std::vector<net::ServiceWireStats> stats(kReplicas);
    const std::uint64_t deadline = nowNs() + 10'000'000'000ull;
    for (;;) {
        bool settled = true;
        for (unsigned r = 0; r < kReplicas; ++r) {
            auto s = observers.replicas[r]->stats();
            if (!s) {
                result.check(false, "fleet: replica stats: " +
                                        s.error().str());
                return {};
            }
            stats[r] = std::move(*s);
            settled = settled && stats[r].aggregate.loads == loads;
        }
        if (settled || nowNs() > deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    predicts.clear();
    for (unsigned r = 0; r < kReplicas; ++r) {
        result.check(stats[r].aggregate.loads == loads,
                     "fleet: replica " + std::to_string(r) +
                         " trained a different number of loads than "
                         "the clients sent");
        result.check(stats[r].aggregate == stats[0].aggregate,
                     "fleet: replicas diverge");
        std::uint64_t p = 0;
        for (const net::ShardWireStats &shard : stats[r].shards)
            p += shard.predicts;
        predicts.push_back(p);
    }
    return stats[0].aggregate;
}

/** Sum the per-shard telemetry in a clapd scrape into @p core. */
void
addScrapedTelemetry(const Scrape &replica, CoreCounts &core)
{
    const JsonValue *shards = replica.doc.find("shards");
    if (shards == nullptr)
        return;
    for (const JsonValue &t : shards->items) {
        if (const JsonValue *lt = t.find("lt")) {
            core.ltLinkWrites += lt->uintOr("link_writes", 0);
            core.ltPfRejected += lt->uintOr("pf_rejected", 0);
        }
        if (const JsonValue *gates = t.find("cap_gates")) {
            core.capConfVetoes += gates->uintOr("conf_vetoes", 0);
            core.capTagVetoes += gates->uintOr("tag_vetoes", 0);
            core.capPathVetoes += gates->uintOr("path_vetoes", 0);
        }
    }
}

void
setStageQuantiles(MetricSink &m, const std::string &proc,
                  const std::function<obs::HistogramSnapshot(
                      const std::string &)> &delta)
{
    for (const char *stage : {"decode", "handle", "encode", "residual"}) {
        const std::string name = std::string("net.stage.") + stage + "_ns";
        setQuantiles(m, "net." + proc + ".stage." + stage + "_ns",
                     delta(name), "ns");
    }
}

/** Per-layer metrics of the traced window and the two probes. */
void
traceFleet(const Options &options, LockStepRounds<NetApi> &rounds,
           const std::vector<FrontEnd<NetApi> *> &clients,
           Observers &observers, const std::function<double()> &cpu_now,
           double untracedRate, RunResult &result)
{
    MetricSink &m = result.metrics;
    auto before = observers.scrapeAll();
    const std::vector<RoundSample> samples =
        rounds.measure(kRoundLoads, options.window(), true, cpu_now);
    auto after = observers.scrapeAll();
    if (!before || !after) {
        result.check(false, "fleet: scrape failed");
        return;
    }
    const double tracedRate = medianOf(samples, &RoundSample::rate);
    m.set("obs.untraced_loads_per_s", untracedRate, "1/s");
    m.set("obs.trace_overhead_frac", 1.0 - tracedRate / untracedRate,
          "ratio");
    setStageQuantiles(m, "clapr", [&](const std::string &name) {
        return histogramDelta(after->gateway.histogram(name),
                              before->gateway.histogram(name));
    });
    setStageQuantiles(m, "clapd", [&](const std::string &name) {
        return replicaDelta(*after, *before, name);
    });

    std::uint64_t spansDropped = 0;
    for (const auto *c : clients)
        spansDropped += c->spans.dropped();
    reportLatencies(samples, kRoundLoads * clients.size(), true, "fleet", m);
    setQuantiles(m, "serve.stage.queue_wait_ns",
                 replicaDelta(*after, *before, "serve.stage.queue_wait_ns"),
                 "ns");
    setQuantiles(m, "serve.stage.compute_ns",
                 replicaDelta(*after, *before, "serve.stage.compute_ns"),
                 "ns");
    m.set("obs.spans_dropped", static_cast<double>(spansDropped), "count");
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    for (std::size_t r = 0; r < after->replicas.size(); ++r) {
        auto delta = [&](const char *name) {
            return after->replicas[r].counter(name) -
                before->replicas[r].counter(name);
        };
        requests += delta("serve.predicts") + delta("serve.trains");
        batches += delta("serve.batches");
    }
    m.set("serve.requests_per_batch",
          batches == 0 ? 0.0
                       : static_cast<double>(requests) /
                  static_cast<double>(batches),
          "ratio");
    m.set("serve.batches", static_cast<double>(batches), "count");

    // Conservation probe: predicts only. Telescoping self times along
    // the predict path: clapr = its total - clapd's total, clapd = its
    // total - the serve stages, serve = queue wait + compute. The
    // client time not under clapr's total (client codec, sockets) is
    // unattributed.
    auto p0 = observers.scrapeAll();
    if (!p0) {
        result.check(false, "fleet: probe scrape failed");
        return;
    }
    rounds.round(kProbeLoads, Phase::PredictOnly, true, false);
    std::vector<std::uint32_t> probe;
    for (const auto *c : clients)
        probe.insert(probe.end(), c->probePredictNs.begin(),
                     c->probePredictNs.end());
    auto p1 = scrapeWhenTimed(observers, *p0, probe.size());
    if (!p1) {
        result.check(false, "fleet: probe scrape failed");
        return;
    }
    rounds.round(0, Phase::TrainOnly, false, false);
    auto t1 = scrapeWhenTimed(observers, *p1, probe.size());
    if (!t1) {
        result.check(false, "fleet: probe scrape failed");
        return;
    }
    const double client = meanOf(probe);
    const obs::HistogramSnapshot gatewayProbe = histogramDelta(
        p1->gateway.histogram("net.stage.total_ns"),
        p0->gateway.histogram("net.stage.total_ns"));
    const obs::HistogramSnapshot replicaProbe =
        replicaDelta(*p1, *p0, "net.stage.total_ns");
    std::printf("fleet: probe predicts %zu; frames timed by clapr %llu, "
                "by clapd %llu\n",
                probe.size(),
                static_cast<unsigned long long>(gatewayProbe.count),
                static_cast<unsigned long long>(replicaProbe.count));
    // clapr hears only the clients, so its frames are exactly the
    // probe's predicts; clapd also answers clapr's health pings.
    result.check(gatewayProbe.count == probe.size() &&
                     replicaProbe.count >= probe.size(),
                 "fleet: the stage histograms missed some of the probe's "
                 "predicts");
    const double gateway = meanOf(gatewayProbe);
    const double replica = meanOf(replicaProbe);
    const double serve =
        meanOf(replicaDelta(*p1, *p0, "serve.stage.queue_wait_ns")) +
        meanOf(replicaDelta(*p1, *p0, "serve.stage.compute_ns"));
    const double clapr = gateway - replica;
    const double clapd = replica - serve;
    m.set("obs.conservation.client_us", client / 1e3, "us");
    m.set("obs.conservation.attributed_us", gateway / 1e3, "us");
    m.set("obs.unattributed_frac",
          client == 0.0 ? 0.0 : 1.0 - gateway / client, "ratio");
    std::printf("fleet: conservation per predict: client %.2f us = clapr "
                "self %.2f + clapd self %.2f + serve %.2f + unattributed "
                "%.2f us\n",
                client / 1e3, clapr / 1e3, clapd / 1e3, serve / 1e3,
                (client - gateway) / 1e3);
    const double slack = kConservationTolerance * client;
    result.check(gateway <= client + slack && clapr >= -slack &&
                     clapd >= -slack,
                 "fleet: layer self times do not fit in the client "
                 "predict time");

    setQuantiles(m, "replica.train_handle_ns",
                 histogramDelta(t1->gateway.histogram("net.stage.handle_ns"),
                                p1->gateway.histogram("net.stage.handle_ns")),
                 "ns");
}

/**
 * Join clapr's sampled `net.Predict` spans to the client spans that
 * caused them (same trace id). Each joined clapr span becomes a child
 * of its client span, and the client span's self time (the client
 * codec and the socket hop to clapr) is one unattributed sample. The
 * two processes' clocks differ, so the child is placed by duration,
 * centred in its parent.
 */
void
joinGatewaySpans(const std::string &events,
                 const std::vector<FrontEnd<NetApi> *> &clients,
                 MetricSink &m)
{
    std::map<std::uint64_t, std::uint64_t> gatewayNs; // trace id -> dur
    if (auto doc = parseJson(events); doc.hasValue()) {
        if (const JsonValue *list = doc->find("traceEvents")) {
            for (const JsonValue &e : list->items) {
                const JsonValue *args = e.find("args");
                const JsonValue *dur = e.find("dur");
                if (e.stringOr("name", "") != "net.Predict" || !args ||
                    !dur)
                    continue;
                const std::string id = args->stringOr("trace_id", "0x0");
                gatewayNs[std::strtoull(id.c_str(), nullptr, 16)] =
                    static_cast<std::uint64_t>(dur->number * 1000.0);
            }
        }
    }
    std::vector<std::uint32_t> unattributed;
    std::uint64_t joined = 0;
    for (FrontEnd<NetApi> *c : clients) {
        const std::vector<SpanLog::Span> roots = c->spans.spans();
        for (const SpanLog::Span &root : roots) {
            const auto found = gatewayNs.find(root.traceId);
            if (root.parentId != 0 || found == gatewayNs.end())
                continue;
            const std::uint64_t total = root.endNs - root.startNs;
            const std::uint64_t child = std::min(found->second, total);
            const std::uint64_t start = root.startNs + (total - child) / 2;
            c->spans.add("clapr.net.Predict", root.traceId, root.spanId,
                         start, start + child);
            unattributed.push_back(
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    total - child, UINT32_MAX)));
            ++joined;
        }
    }
    m.set("obs.joined_spans", static_cast<double>(joined), "count");
    m.set("net.client.self_us.p50", percentile(unattributed, 0.50) / 1e3,
          "us");
    m.set("net.client.self_us.p99", percentile(unattributed, 0.99) / 1e3,
          "us");
    std::printf("fleet: %llu sampled predicts joined to clapr spans\n",
                static_cast<unsigned long long>(joined));
}

} // namespace

void
runFleet(const Options &options, RunResult &result)
{
    MetricSink &m = result.metrics;
    // The predictor runs inside clapd, out of reach of a timing
    // wrapper; the shard queue depth is not scraped; no sweep runs.
    m.notMeasured({"core.predict_ns.", "core.update_ns.",
                   "serve.queue_depth_max", "sim.", "runner."});
    const std::vector<TraceSpec> specs =
        clientSpecs({"INT", "TPC"}, options.seed);

    // Set-up: trace generation plus fleet start-to-ready (every
    // client connection answers a ping through clapr), repeated.
    Inputs inputs;
    Fleet fleet;
    std::vector<std::unique_ptr<FrontEnd<NetApi>>> owned;
    std::vector<double> setups;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        owned.clear();
        fleet.stop();
        const std::uint64_t begin = nowNs();
        inputs = Inputs{};
        inputs = generateInputs(specs);
        std::string error;
        if (!fleet.start(options.trace, error)) {
            result.check(false, "fleet: " + error);
            return;
        }
        for (unsigned c = 0; c < inputs.traces.size(); ++c) {
            NetApi api{connectTo(fleet.endpoint(),
                                 "layerbench-client" + std::to_string(c))};
            if (auto pinged = api.client->ping(); !pinged) {
                result.check(false, "fleet: ping through clapr: " +
                                        pinged.error().str());
                return;
            }
            owned.push_back(std::make_unique<FrontEnd<NetApi>>(
                std::move(api), *inputs.traces[c], c));
        }
        setups.push_back(static_cast<double>(nowNs() - begin) * 1e-9);
    }
    m.set("setup_s", reportSetups("fleet", setups), "s");
    m.set("workloads.generate_s", inputs.generateSeconds, "s");
    m.set("trace.bytes_peak", static_cast<double>(inputs.bytesPeak),
          "bytes");
    for (const TraceSpec &spec : specs)
        std::printf("fleet: client trace %s seed %llu\n", spec.name.c_str(),
                    static_cast<unsigned long long>(spec.seed));

    std::vector<FrontEnd<NetApi> *> clients;
    for (const auto &client : owned)
        clients.push_back(client.get());
    Observers observers(fleet);
    auto cpuNow = [&] {
        double total = selfCpuSeconds();
        for (int pid : fleet.pids())
            total += childCpuSeconds(pid);
        return total;
    };

    double rate = 0.0;
    {
        LockStepRounds<NetApi> rounds(clients);
        rounds.round(kRoundLoads, Phase::PredictTrain, false, false);
        const std::uint64_t roundLoads = kRoundLoads * clients.size();
        const std::vector<RoundSample> samples =
            rounds.measure(kRoundLoads, options.window(), false, cpuNow);
        rate = medianOf(samples, &RoundSample::rate);
        std::printf("fleet: %zu rounds of %llu loads, loads/s median %.0f\n",
                    samples.size(), static_cast<unsigned long long>(roundLoads),
                    rate);
        if (!options.trace) {
            m.set("loads_per_s", rate, "1/s");
            m.set("cpu_us_per_load",
                  medianOf(samples, &RoundSample::cpuUsPerLoad), "us");
            reportLatencies(samples, roundLoads, false, "fleet", m);
        } else {
            traceFleet(options, rounds, clients, observers, cpuNow, rate,
                       result);
        }
    }

    // Output checks: no wrong replies, and both replicas trained every
    // load the clients sent, alike.
    std::uint64_t predictsAttempted = 0;
    std::uint64_t predictsOk = 0;
    std::uint64_t trainsAttempted = 0;
    std::uint64_t trainsOk = 0;
    std::uint64_t wrong = 0;
    std::uint64_t retries = 0;
    std::uint64_t reconnects = 0;
    for (const auto *c : clients) {
        predictsAttempted += c->loadsAttempted;
        predictsOk += c->predictsOk;
        trainsAttempted += c->trainsOk + c->trainsFailed;
        trainsOk += c->trainsOk;
        const net::ClientCounters &counters = c->api().client->counters();
        wrong += counters.wrongReplies;
        retries += counters.retries;
        reconnects += counters.connects > 0 ? counters.connects - 1 : 0;
    }
    countOps(clients, result);
    result.check(wrong == 0, "fleet: net.wrong_replies != 0");
    std::vector<std::uint64_t> predicts;
    const PredictionStats replicaStats =
        checkReplicas(observers, trainsOk, result, predicts);
    std::uint64_t served = 0;
    std::uint64_t most = 0;
    for (std::uint64_t p : predicts) {
        served += p;
        most = std::max(most, p);
    }
    result.check(served == predictsOk,
                 "fleet: the replicas served a different number of "
                 "predicts than the clients were answered");

    if (options.trace) {
        m.set("net.client.retries", static_cast<double>(retries), "count");
        m.set("net.client.reconnects", static_cast<double>(reconnects),
              "count");
        m.set("net.wrong_replies", static_cast<double>(wrong), "count");
        m.set("replica.predict_share_max",
              served == 0 ? 0.0
                          : static_cast<double>(most) /
                      static_cast<double>(served),
              "ratio");
        auto final = observers.scrapeAll();
        if (!final) {
            result.check(false, "fleet: final scrape failed");
        } else {
            std::uint64_t shed = final->gateway.counter("net.admit.shed");
            for (const Scrape &r : final->replicas)
                shed += r.counter("net.admit.shed");
            m.set("net.admit.shed", static_cast<double>(shed), "count");
            m.set("replica.predicts",
                  static_cast<double>(final->gateway.counter(
                      "replica.predicts_forwarded")),
                  "count");
            CoreCounts core;
            core.stats = replicaStats;
            addScrapedTelemetry(final->replicas.front(), core);
            core.report(m);
        }
    } else {
        double rss = selfPeakRssMb();
        for (int pid : fleet.pids())
            rss += childPeakRssMb(pid);
        m.set("peak_rss_mb", rss, "MB");
    }

    // clapr's own counts, from its exit summary: every client predict
    // and train reached it once, and its failovers.
    observers.gateway.reset();
    fleet.stopGateway();
    const GatewaySummary summary = fleet.gatewaySummary();
    result.check(summary.found, "fleet: clapr printed no exit summary");
    result.check(!summary.found || (summary.predicts == predictsAttempted &&
                                    summary.trains == trainsAttempted),
                 "fleet: clapr counted a different number of predicts "
                 "or trains than the clients sent");
    if (options.trace) {
        if (summary.found)
            m.set("replica.failovers",
                  static_cast<double>(summary.failovers), "count");
        joinGatewaySpans(readFile(fleet.gatewayTracePath()), clients, m);
        writeSpans(clients, spansPath("fleet"), result);
    } else {
        reportQuality(m, serviceQuality(inputs, kReplicaShards, result));
    }
    observers.replicas.clear();
    owned.clear();
    fleet.stop();
}

} // namespace clap::layerbench
