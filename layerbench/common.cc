#include "common.hh"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/hybrid_predictor.hh"
#include "serve/crosscheck.hh"
#include "sim/predictor_sim.hh"
#include "trace/trace_store.hh"
#include "util/bits.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "workloads/suites.hh"

namespace clap::layerbench
{

namespace
{

template <typename T>
double
nearestRank(std::vector<T> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    const std::size_t n = samples.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank),
                     samples.end());
    return static_cast<double>(samples[rank]);
}

/** Fields 14 and 15 (utime, stime) of /proc/PID/stat, in ticks. */
double
procStatCpuSeconds(const std::string &path)
{
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    // After "pid (comm) ", field 3 (state) is the first token.
    for (int index = 3; index <= 15 && (fields >> field); ++index) {
        if (index == 14)
            utime = std::stoull(field);
        else if (index == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
        static_cast<double>(sysconf(_SC_CLK_TCK));
}

} // namespace

double
measureClockPairNs()
{
    std::vector<std::uint32_t> pairs(1u << 14);
    for (std::uint32_t &pair : pairs) {
        const std::uint64_t begin = nowNs();
        pair = static_cast<std::uint32_t>(nowNs() - begin);
    }
    return nearestRank(pairs, 0.5);
}

double
percentile(std::vector<std::uint32_t> samples, double q)
{
    return nearestRank(samples, q);
}

double
percentileD(std::vector<double> samples, double q)
{
    return nearestRank(samples, q);
}

double
NsHistogram::percentile(double q) const
{
    if (total_ == 0)
        return 0.0;
    const double rank = std::clamp(q * static_cast<double>(total_), 1.0,
                                   static_cast<double>(total_));
    double below = 0.0;
    for (std::size_t ns = 0; ns < counts_.size(); ++ns) {
        const double here = static_cast<double>(counts_[ns]);
        if (rank <= below + here)
            return static_cast<double>(ns) + (rank - below) / here;
        below += here;
    }
    std::vector<std::uint32_t> above = overflow_;
    const std::size_t index = std::min(
        above.size() - 1,
        static_cast<std::size_t>(std::ceil(rank - below)) - 1);
    const auto nth = above.begin() + static_cast<std::ptrdiff_t>(index);
    std::nth_element(above.begin(), nth, above.end());
    return static_cast<double>(*nth);
}

double
reportSetups(const char *workload, const std::vector<double> &setups)
{
    std::printf("%s: set-up seconds:", workload);
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf("\n");
    return median(setups);
}

int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return -1;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
    return -1;
}

double
selfCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
childCpuSeconds(int pid)
{
    return procStatCpuSeconds("/proc/" + std::to_string(pid) + "/stat");
}

double
selfPeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
childPeakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double
MetricSink::get(const std::string &name) const
{
    const auto found = values_.find(name);
    return found == values_.end() ? 0.0 : found->second.first;
}

void
MetricSink::notMeasured(std::vector<std::string> prefixes)
{
    skippedPrefixes_.insert(skippedPrefixes_.end(), prefixes.begin(),
                            prefixes.end());
}

bool
MetricSink::isSkipped(const std::string &name) const
{
    for (const std::string &prefix : skippedPrefixes_) {
        if (name.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

std::vector<std::string>
MetricSink::skipped(const MetricNames &names) const
{
    std::vector<std::string> out;
    for (const auto &[name, unit] : names) {
        if (isSkipped(name))
            out.push_back(name);
    }
    return out;
}

std::vector<std::string>
MetricSink::problems(const MetricNames &names) const
{
    std::vector<std::string> out;
    for (const auto &[name, unit] : names) {
        const auto found = values_.find(name);
        const bool set = found != values_.end();
        if (set && isSkipped(name))
            out.push_back(name + " is set but declared not measured");
        else if (!set && !isSkipped(name))
            out.push_back(name + " was not measured");
        else if (set && !std::isfinite(found->second.first))
            out.push_back(name + " is not finite");
        else if (set && found->second.second != unit)
            out.push_back(name + " has unit " + found->second.second +
                          ", not " + unit);
    }
    return out;
}

std::string
MetricSink::json(const MetricNames &names) const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, unit] : names) {
        double value = get(name);
        if (!std::isfinite(value))
            value = 0.0; // reported by problems()
        char number[64];
        std::snprintf(number, sizeof(number), "%.17g", value);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + number +
            ", \"unit\": \"" + unit + "\"}";
    }
    return out + "}";
}

const MetricNames &
endToEndMetrics()
{
    static const MetricNames names{
        {"loads_per_s", "1/s"},
        {"predict_p50_us", "us"},
        {"predict_p99_us", "us"},
        {"train_p99_us", "us"},
        {"cpu_us_per_load", "us"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"spec_rate", "ratio"},
        {"spec_accuracy", "ratio"},
        {"gap_spec_rate", "ratio"},
        {"gap_spec_accuracy", "ratio"},
    };
    return names;
}

const MetricNames &
perLayerMetrics()
{
    static const MetricNames names =
        [] {
            MetricNames v{
                {"workloads.generate_s", "s"},
                {"trace.bytes_peak", "bytes"},
                {"core.predict_ns.p50", "ns"},
                {"core.predict_ns.p99", "ns"},
                {"core.update_ns.p50", "ns"},
                {"core.update_ns.p99", "ns"},
                {"core.loads", "count"},
                {"core.lb_hit_frac", "ratio"},
                {"core.formed", "count"},
                {"core.spec_per_formed", "ratio"},
                {"core.lt_link_writes", "count"},
                {"core.lt_pf_rejected", "count"},
                {"core.cap_conf_vetoes", "count"},
                {"core.cap_tag_vetoes", "count"},
                {"core.cap_path_vetoes", "count"},
                {"sim.self_s", "s"},
                {"sim.gap_self_s", "s"},
                {"runner.overhead_s", "s"},
                {"runner.sweep_s", "s"},
                {"serve.predict_us.p50", "us"},
                {"serve.predict_us.p99", "us"},
                {"serve.train_us.p50", "us"},
                {"serve.train_us.p99", "us"},
                {"serve.stage.queue_wait_ns.p50", "ns"},
                {"serve.stage.queue_wait_ns.p99", "ns"},
                {"serve.stage.compute_ns.p50", "ns"},
                {"serve.stage.compute_ns.p99", "ns"},
                {"serve.requests_per_batch", "ratio"},
                {"serve.batches", "count"},
                {"serve.queue_depth_max", "count"},
            };
            for (const char *proc : {"clapr", "clapd"}) {
                for (const char *stage :
                     {"decode", "handle", "encode", "residual"}) {
                    for (const char *q : {"p50", "p99"}) {
                        v.emplace_back(std::string("net.") + proc +
                                           ".stage." + stage + "_ns." + q,
                                       "ns");
                    }
                }
            }
            const MetricNames tail{
                {"net.client.retries", "count"},
                {"net.client.reconnects", "count"},
                {"net.wrong_replies", "count"},
                {"net.admit.shed", "count"},
                {"replica.predict_share_max", "ratio"},
                {"replica.predicts", "count"},
                {"replica.failovers", "count"},
                {"replica.train_handle_ns.p50", "ns"},
                {"replica.train_handle_ns.p99", "ns"},
                {"obs.trace_overhead_frac", "ratio"},
                {"obs.untraced_loads_per_s", "1/s"},
                {"obs.spans_dropped", "count"},
                {"obs.joined_spans", "count"},
                {"net.client.self_us.p50", "us"},
                {"net.client.self_us.p99", "us"},
                {"obs.conservation.client_us", "us"},
                {"obs.conservation.attributed_us", "us"},
                {"obs.unattributed_frac", "ratio"},
                {"ops_failed_frac", "ratio"},
            };
            v.insert(v.end(), tail.begin(), tail.end());
            return v;
        }();
    return names;
}

std::uint64_t
deriveTraceSeed(std::uint64_t catalog_seed, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return catalog_seed;
    return mix64(catalog_seed ^ mix64(seed + 0x9e3779b97f4a7c15ull));
}

std::vector<TraceSpec>
catalogSpecs(std::uint64_t seed)
{
    std::vector<TraceSpec> specs = buildCatalog();
    for (TraceSpec &spec : specs)
        spec.seed = deriveTraceSeed(spec.seed, seed);
    return specs;
}

std::vector<TraceSpec>
clientSpecs(const std::vector<std::string> &suites, std::uint64_t seed)
{
    std::vector<TraceSpec> specs;
    for (const std::string &suite : suites) {
        TraceSpec spec = buildSuite(suite).front();
        spec.seed = deriveTraceSeed(spec.seed, seed);
        specs.push_back(std::move(spec));
    }
    // The seed deals the traces out to the clients (Fisher-Yates);
    // at kDefaultSeed client i replays suite i.
    if (seed != kDefaultSeed) {
        Rng rng(mix64(seed ^ 0x5eed5u));
        for (std::size_t i = specs.size(); i > 1; --i)
            std::swap(specs[i - 1], specs[rng.next() % i]);
    }
    return specs;
}

std::string
spansPath(const std::string &workload)
{
    std::error_code ec;
    std::filesystem::create_directories(".bench_run", ec);
    return ".bench_run/" + workload + ".spans.jsonl";
}

Inputs
generateInputs(const std::vector<TraceSpec> &specs)
{
    const std::size_t insts = defaultTraceLength();
    // Hand memory freed by an earlier set-up back to the kernel, so
    // every set-up pays for its trace memory as a fresh process would.
    malloc_trim(0);
    Inputs inputs;
    TraceStore store;
    const std::uint64_t begin = nowNs();
    for (const TraceSpec &spec : specs)
        inputs.traces.push_back(store.get(spec, insts));
    inputs.generateSeconds = static_cast<double>(nowNs() - begin) * 1e-9;
    inputs.bytesPeak = store.stats().bytesPeak;
    return inputs;
}

Quality
serviceQuality(const Inputs &inputs, unsigned shards, RunResult &result)
{
    Quality quality;
    ServiceConfig config;
    config.shards = shards;
    // Deterministic mode drains one request per batch; auditing every
    // batch would dominate the replay.
    config.auditEveryBatches = 256;
    for (const auto &trace : inputs.traces) {
        auto checked = crosscheckTrace(
            *trace, [] { return std::make_unique<HybridPredictor>(HybridConfig{}); },
            config);
        result.check(checked.hasValue() && checked->equal(),
                     "service stats diverge from PredictorSim on " +
                         trace->name());
        if (checked.hasValue())
            quality.immediate.merge(checked->service);
        HybridConfig pipelined;
        pipelined.pipelined = true;
        HybridPredictor predictor(pipelined);
        PredictorSimConfig sim;
        sim.gapCycles = 8;
        quality.gap.merge(runPredictorSim(*trace, predictor, sim));
    }
    return quality;
}

void
reportQuality(MetricSink &sink, const Quality &quality)
{
    sink.set("spec_rate", quality.immediate.predictionRate(), "ratio");
    sink.set("spec_accuracy", quality.immediate.accuracy(), "ratio");
    sink.set("gap_spec_rate", quality.gap.predictionRate(), "ratio");
    sink.set("gap_spec_accuracy", quality.gap.accuracy(), "ratio");
}

std::uint64_t
SpanLog::open(std::string name, std::uint64_t trace_id,
              std::uint64_t parent_id, std::uint64_t start_ns)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return 0;
    }
    Span span;
    span.name = std::move(name);
    span.traceId = trace_id;
    span.spanId = spans_.size() + 1;
    span.parentId = parent_id;
    span.startNs = start_ns;
    span.endNs = start_ns;
    spans_.push_back(std::move(span));
    return spans_.back().spanId;
}

void
SpanLog::close(std::uint64_t span_id, std::uint64_t end_ns)
{
    if (span_id == 0 || span_id > spans_.size())
        return;
    Span &span = spans_[span_id - 1];
    span.endNs = std::max(span.startNs, end_ns);
}

std::uint64_t
SpanLog::totalNsByName(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const Span &span : spans_) {
        if (span.name == name)
            total += span.endNs - span.startNs;
    }
    return total;
}

std::uint64_t
SpanLog::selfNsByName(const std::string &name) const
{
    // Index children by parent once, then clip each child to its parent.
    std::vector<std::vector<std::size_t>> kids(spans_.size() + 1);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parentId != 0 && spans_[i].parentId <= spans_.size())
            kids[spans_[i].parentId].push_back(i);
    }
    std::uint64_t total = 0;
    for (const Span &span : spans_) {
        if (span.name != name)
            continue;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
        for (std::size_t i : kids[span.spanId]) {
            const std::uint64_t lo = std::max(spans_[i].startNs, span.startNs);
            const std::uint64_t hi = std::min(spans_[i].endNs, span.endNs);
            if (lo < hi)
                covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        std::uint64_t cover = 0;
        std::uint64_t reach = span.startNs;
        for (const auto &[lo, hi] : covered) {
            const std::uint64_t from = std::max(lo, reach);
            if (hi > from) {
                cover += hi - from;
                reach = hi;
            }
        }
        total += (span.endNs - span.startNs) - cover;
    }
    return total;
}

bool
SpanLog::write(const std::string &path, bool append) const
{
    std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
    for (const Span &s : spans_) {
        out << "{\"name\": \"" << jsonEscape(s.name)
            << "\", \"trace\": " << s.traceId << ", \"span\": " << s.spanId
            << ", \"parent\": " << s.parentId << ", \"start_ns\": "
            << s.startNs << ", \"end_ns\": " << s.endNs << "}\n";
    }
    return static_cast<bool>(out);
}

obs::HistogramSnapshot
histogramDelta(const obs::HistogramSnapshot &after,
               const obs::HistogramSnapshot &before)
{
    obs::HistogramSnapshot delta;
    for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
        delta.buckets[b] = after.buckets[b] >= before.buckets[b]
            ? after.buckets[b] - before.buckets[b]
            : 0;
        delta.count += delta.buckets[b];
    }
    delta.sum = after.sum >= before.sum ? after.sum - before.sum : 0;
    return delta;
}

double
meanOf(const obs::HistogramSnapshot &hist)
{
    return hist.count == 0 ? 0.0
                           : static_cast<double>(hist.sum) /
            static_cast<double>(hist.count);
}

double
meanOf(const std::vector<std::uint32_t> &samples)
{
    double total = 0.0;
    for (std::uint32_t ns : samples)
        total += ns;
    return samples.empty() ? 0.0
                           : total / static_cast<double>(samples.size());
}

obs::HistogramSnapshot
localHistogram(const std::string &name)
{
    for (auto &[hist_name, snap] : obs::snapshotMetrics().histograms) {
        if (hist_name == name)
            return snap;
    }
    return {};
}

void
setQuantiles(MetricSink &sink, const std::string &prefix,
             const obs::HistogramSnapshot &hist, const std::string &unit)
{
    sink.set(prefix + ".p50", hist.count == 0 ? 0.0 : hist.p50(), unit);
    sink.set(prefix + ".p99", hist.count == 0 ? 0.0 : hist.p99(), unit);
}

void
CoreCounts::addTelemetry(const PredictorTelemetry &t)
{
    ltLinkWrites += t.ltLinkWrites;
    ltPfRejected += t.ltPfRejected;
    capConfVetoes += t.capGates.confVetoes;
    capTagVetoes += t.capGates.tagVetoes;
    capPathVetoes += t.capGates.pathVetoes;
}

void
CoreCounts::report(MetricSink &sink) const
{
    auto frac = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) / static_cast<double>(den);
    };
    sink.set("core.loads", static_cast<double>(stats.loads), "count");
    sink.set("core.lb_hit_frac", frac(stats.lbHits, stats.loads), "ratio");
    sink.set("core.formed", static_cast<double>(stats.formed), "count");
    sink.set("core.spec_per_formed", frac(stats.spec, stats.formed), "ratio");
    sink.set("core.lt_link_writes", static_cast<double>(ltLinkWrites), "count");
    sink.set("core.lt_pf_rejected", static_cast<double>(ltPfRejected), "count");
    sink.set("core.cap_conf_vetoes", static_cast<double>(capConfVetoes), "count");
    sink.set("core.cap_tag_vetoes", static_cast<double>(capTagVetoes), "count");
    sink.set("core.cap_path_vetoes", static_cast<double>(capPathVetoes), "count");
}

} // namespace clap::layerbench
