#include "core/audit.hh"

#include <string>

#include "core/link_table.hh"
#include "core/load_buffer.hh"
#include "util/bits.hh"
#include "util/sat_counter.hh"

namespace clap
{

namespace
{

Error
corrupt(std::string message, const char *structure, std::size_t index)
{
    return makeError(ErrorCode::CorruptedState, std::move(message))
        .withContext(std::string(structure) + " entry " +
                     std::to_string(index));
}

/** Counter within its saturation range (defense against raw writes). */
bool
counterOk(const SatCounter &counter)
{
    return counter.value() <= counter.max();
}

/** History register within its configured width. */
bool
historyOk(const HistoryRegister &hist)
{
    return (hist.value() & ~mask(hist.numBits())) == 0;
}

/** The LB invariants of one set; the first failing slot's error. */
Expected<void>
checkLoadBufferSet(const LoadBuffer &lb, std::size_t set)
{
    const std::size_t assoc = lb.config().assoc;
    const std::size_t base = set * assoc;
    for (std::size_t i = base; i < base + assoc; ++i) {
        // Probe-lane coherence: a valid way's control byte must be
        // the fingerprint of its full tag, or lookup() could miss a
        // resident entry.
        if (!lb.lanesCoherentAt(i)) {
            return corrupt("control byte disagrees with tag lane",
                           "LB", i);
        }
        if (!lb.validAt(i))
            continue;

        // Tag uniqueness within the set: a duplicated tag would make
        // lookup() results depend on way order.
        const std::uint64_t tag = lb.tagAt(i);
        for (std::size_t j = base; j < i; ++j) {
            if (lb.validAt(j) && lb.tagAt(j) == tag) {
                return corrupt("duplicate LB tag 0x" +
                                   std::to_string(tag) + " in set " +
                                   std::to_string(set),
                               "LB", i);
            }
        }

        // History registers must fit their configured width.
        const LBEntry &entry = lb.coldAt(i);
        if (!historyOk(entry.hist))
            return corrupt("history value exceeds width", "LB", i);
        if (!historyOk(entry.specHist)) {
            return corrupt("speculative history value exceeds width",
                           "LB", i);
        }

        // Confidence and selector counters within saturation range.
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

/** The LT invariants of one set; the first failing slot's error. */
Expected<void>
checkLinkTableSet(const LinkTable &lt, std::size_t set)
{
    const CapConfig &config = lt.config();
    const std::size_t assoc = lt.assoc();
    const std::size_t base = set * assoc;
    for (std::size_t i = base; i < base + assoc; ++i) {
        // Packed probe word must agree with the full-tag lane.
        if (!lt.lanesCoherentAt(i)) {
            return corrupt("probe word disagrees with tag lane", "LT",
                           i);
        }

        // PF bits live in bits [0, pfBits); anything above means a
        // raw write landed outside the mechanism's field.
        if ((lt.pfAt(i) & ~mask(config.pfBits)) != 0)
            return corrupt("PF bits exceed configured width", "LT", i);

        if (!lt.validAt(i))
            continue;

        // Tags are history MSBs truncated to ltTagBits.
        const std::uint64_t tag = lt.tagAt(i);
        if ((tag & ~mask(config.ltTagBits)) != 0)
            return corrupt("tag exceeds ltTagBits", "LT", i);

        // Tag uniqueness within a set (associative organizations;
        // direct-mapped sets hold one entry, nothing to collide).
        if (config.ltTagBits == 0)
            continue;
        for (std::size_t j = base; j < i; ++j) {
            if (lt.validAt(j) && lt.tagAt(j) == tag) {
                return corrupt("duplicate LT tag 0x" +
                                   std::to_string(tag) + " in set " +
                                   std::to_string(set),
                               "LT", i);
            }
        }
    }
    return ok();
}

} // namespace

Expected<void>
auditLoadBuffer(const LoadBuffer &lb)
{
    return lb.dirty_.sweep(
        [&lb](std::size_t set) { return checkLoadBufferSet(lb, set); });
}

Expected<void>
auditLinkTable(const LinkTable &lt)
{
    return lt.dirty_.sweep(
        [&lt](std::size_t set) { return checkLinkTableSet(lt, set); });
}

} // namespace clap
