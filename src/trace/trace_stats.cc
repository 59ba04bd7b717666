#include "trace/trace_stats.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "util/stats.hh"

namespace clap
{

double
TraceStats::loadFraction() const
{
    return ratio(loads(), totalInsts);
}

double
TraceStats::takenRate() const
{
    return ratio(takenBranches, branches());
}

TraceStats
computeTraceStats(const Trace &trace)
{
    TraceStats stats;
    std::unordered_set<std::uint64_t> pcs;
    std::unordered_set<std::uint64_t> load_pcs;

    for (const auto &rec : trace.records()) {
        ++stats.totalInsts;
        ++stats.perClass[static_cast<std::size_t>(rec.cls)];
        pcs.insert(rec.pc);
        if (rec.isLoad())
            load_pcs.insert(rec.pc);
        if (rec.isBranch() && rec.taken)
            ++stats.takenBranches;
    }
    stats.staticInsts = pcs.size();
    stats.staticLoads = load_pcs.size();
    return stats;
}

void
printTraceStats(const TraceStats &stats, std::ostream &os)
{
    os << "instructions: " << stats.totalInsts << '\n';
    for (std::size_t c = 0; c < numInstClasses; ++c) {
        const auto cls = static_cast<InstClass>(c);
        if (stats.count(cls) == 0)
            continue;
        os << "  " << instClassName(cls) << ": " << stats.count(cls)
           << '\n';
    }
    os << "static PCs: " << stats.staticInsts
       << " (loads: " << stats.staticLoads << ")\n";
    os << "branch taken rate: " << stats.takenRate() << '\n';
}

void
printTraceHistogram(const TraceStats &stats, std::ostream &os)
{
    constexpr int barWidth = 40;
    std::uint64_t max_count = 0;
    for (std::size_t c = 0; c < numInstClasses; ++c)
        max_count = std::max(max_count, stats.perClass[c]);

    os << "instruction class histogram:\n";
    for (std::size_t c = 0; c < numInstClasses; ++c) {
        const auto cls = static_cast<InstClass>(c);
        const std::uint64_t count = stats.count(cls);
        const double percent = 100.0 * ratio(count, stats.totalInsts);
        const int bar = max_count == 0
            ? 0
            : static_cast<int>(static_cast<double>(count) * barWidth /
                               static_cast<double>(max_count));
        char line[64];
        std::snprintf(line, sizeof(line), "  %-8s %12llu %6.2f%% ",
                      instClassName(cls),
                      static_cast<unsigned long long>(count), percent);
        os << line;
        for (int i = 0; i < bar; ++i)
            os << '#';
        os << '\n';
    }
}

} // namespace clap
