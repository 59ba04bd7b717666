/**
 * @file
 * One-pass summary statistics over a trace: instruction class mix,
 * static load count, branch taken rate. Used by tests to validate the
 * workload generators and by the trace inspection example.
 */

#ifndef CLAP_TRACE_TRACE_STATS_HH
#define CLAP_TRACE_TRACE_STATS_HH

#include <array>
#include <cstdint>
#include <ostream>

#include "trace/trace.hh"

namespace clap
{

/** Aggregate counts over a trace. */
struct TraceStats
{
    std::uint64_t totalInsts = 0;
    std::array<std::uint64_t, numInstClasses> perClass{};
    std::uint64_t staticLoads = 0;   ///< distinct load PCs
    std::uint64_t staticInsts = 0;   ///< distinct PCs
    std::uint64_t takenBranches = 0;

    std::uint64_t
    count(InstClass cls) const
    {
        return perClass[static_cast<std::size_t>(cls)];
    }

    std::uint64_t loads() const { return count(InstClass::Load); }
    std::uint64_t branches() const { return count(InstClass::Branch); }

    /** Fraction of dynamic instructions that are loads. */
    double loadFraction() const;

    /** Fraction of conditional branches that were taken. */
    double takenRate() const;
};

/** Compute statistics for @p trace in a single pass. */
TraceStats computeTraceStats(const Trace &trace);

/** Human-readable dump of @p stats. */
void printTraceStats(const TraceStats &stats, std::ostream &os);

/**
 * Per-class instruction histogram: one row per instruction class with
 * its dynamic count, share of all instructions, and a bar scaled to
 * the most frequent class. Zero-count classes are listed too so the
 * mix (and what is absent from it) reads at a glance.
 */
void printTraceHistogram(const TraceStats &stats, std::ostream &os);

} // namespace clap

#endif // CLAP_TRACE_TRACE_STATS_HH
