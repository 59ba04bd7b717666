/**
 * @file
 * Full-sweep oracle for the incremental auditor (core/audit.hh): the
 * scalar audit that checks every slot of a table through imageAt(),
 * with no dirty-set tracking. The production audit checks only the
 * sets written since they last passed; its verdict and first error
 * must always equal these functions'.
 */

#ifndef CLAP_TESTS_AUDIT_ORACLE_HH
#define CLAP_TESTS_AUDIT_ORACLE_HH

#include <string>

#include "core/link_table.hh"
#include "core/load_buffer.hh"
#include "util/bits.hh"
#include "util/error.hh"
#include "util/sat_counter.hh"

namespace clap::test
{

namespace oracle_detail
{

inline Error
corrupt(std::string message, const char *structure, std::size_t index)
{
    return makeError(ErrorCode::CorruptedState, std::move(message))
        .withContext(std::string(structure) + " entry " +
                     std::to_string(index));
}

inline bool
counterOk(const SatCounter &counter)
{
    return counter.value() <= counter.max();
}

} // namespace oracle_detail

/** Every LB invariant over every slot, in slot order. */
inline Expected<void>
sweepLoadBuffer(const LoadBuffer &lb)
{
    using oracle_detail::corrupt;
    using oracle_detail::counterOk;
    const unsigned assoc = lb.config().assoc;
    for (std::size_t i = 0; i < lb.numEntries(); ++i) {
        if (!lb.lanesCoherentAt(i)) {
            return corrupt("control byte disagrees with tag lane",
                           "LB", i);
        }

        const LBEntryImage entry = lb.imageAt(i);
        if (!entry.valid)
            continue;

        const std::size_t set = i / assoc;
        for (std::size_t j = set * assoc; j < i; ++j) {
            const LBEntryImage other = lb.imageAt(j);
            if (other.valid && other.tag == entry.tag) {
                return corrupt("duplicate LB tag 0x" +
                                   std::to_string(entry.tag) +
                                   " in set " + std::to_string(set),
                               "LB", i);
            }
        }

        if ((entry.hist.value() & ~mask(entry.hist.numBits())) != 0)
            return corrupt("history value exceeds width", "LB", i);
        if ((entry.specHist.value() &
             ~mask(entry.specHist.numBits())) != 0) {
            return corrupt("speculative history value exceeds width",
                           "LB", i);
        }

        if (!counterOk(entry.capConf))
            return corrupt("CAP confidence counter overflow", "LB", i);
        if (!counterOk(entry.strideConf)) {
            return corrupt("stride confidence counter overflow", "LB",
                           i);
        }
        if (!counterOk(entry.selector))
            return corrupt("selector counter overflow", "LB", i);
    }
    return ok();
}

/** Every LT invariant over every slot, in slot order. */
inline Expected<void>
sweepLinkTable(const LinkTable &lt)
{
    using oracle_detail::corrupt;
    const CapConfig &config = lt.config();
    const unsigned assoc = lt.assoc();
    for (std::size_t i = 0; i < lt.numEntries(); ++i) {
        if (!lt.lanesCoherentAt(i)) {
            return corrupt("probe word disagrees with tag lane", "LT",
                           i);
        }

        const LTEntry entry = lt.imageAt(i);

        if ((entry.pf & ~mask(config.pfBits)) != 0)
            return corrupt("PF bits exceed configured width", "LT", i);

        if (!entry.valid)
            continue;

        if ((entry.tag & ~mask(config.ltTagBits)) != 0)
            return corrupt("tag exceeds ltTagBits", "LT", i);

        const std::size_t set = i / assoc;
        if (config.ltTagBits > 0) {
            for (std::size_t j = set * assoc; j < i; ++j) {
                const LTEntry other = lt.imageAt(j);
                if (other.valid && other.tag == entry.tag) {
                    return corrupt("duplicate LT tag 0x" +
                                       std::to_string(entry.tag) +
                                       " in set " +
                                       std::to_string(set),
                                   "LT", i);
                }
            }
        }
    }
    return ok();
}

/**
 * What a table-backed predictor's audit() reports: the LB sweep, then
 * the LT sweep (@p lt may be null), under @p context (the predictor's
 * "<name> predictor" label).
 */
inline Expected<void>
sweepPredictorTables(const LoadBuffer &lb, const LinkTable *lt,
                     const std::string &context)
{
    if (auto v = sweepLoadBuffer(lb); !v)
        return std::move(v.error()).withContext(context);
    if (lt != nullptr) {
        if (auto v = sweepLinkTable(*lt); !v)
            return std::move(v.error()).withContext(context);
    }
    return ok();
}

} // namespace clap::test

#endif // CLAP_TESTS_AUDIT_ORACLE_HH
