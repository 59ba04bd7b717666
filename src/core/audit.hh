/**
 * @file
 * Structural invariant auditor for the predictor tables. The paper's
 * robustness claim is that all predictor state is speculative — a
 * corrupted entry costs mispredictions, never correctness — but the
 * *simulator* still relies on structural invariants (tag uniqueness
 * within a set, field values within their configured widths, counters
 * within their saturation range) to stay meaningful. audit() checks
 * exactly those invariants and reports the first violation as an
 * ErrorCode::CorruptedState, which the sweep runner classifies as
 * retryable: a fault-injection job whose tables end a trace in an
 * inconsistent state is re-run (with a re-salted fault sequence)
 * instead of silently polluting the sweep's statistics.
 *
 * Every invariant is local to one table set, so the audit is
 * incremental. Each table keeps a DirtySets map, and every path that
 * hands out or performs a mutable access to a set marks it (one byte
 * store). The audit checks only the marked sets, in ascending order,
 * and unmarks a set only when it passes, so every unmarked set is
 * clean. Its verdict and first error (lowest slot, same message)
 * therefore equal a sweep of every set, and its cost is proportional
 * to the sets written since the last audit: cheap enough to run after
 * every serve batch. A fresh or cleared table marks every set, so its
 * first audit is a full sweep.
 *
 * The checks read the lanes in place and never touch LRU state. The
 * marks are audit bookkeeping, not predictor state: an audit() on a
 * const predictor clears them, so concurrent audits of one predictor
 * must be serialized like any other access to it.
 */

#ifndef CLAP_CORE_AUDIT_HH
#define CLAP_CORE_AUDIT_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/error.hh"

namespace clap
{

class LoadBuffer;
class LinkTable;

/**
 * One mark byte per table set: the sets written since they last
 * passed the audit. Starts with every set marked. A mark is a plain
 * byte store, not a read-modify-write of a shared bitmap word, so it
 * adds no dependency to the predictor path; the audit skips clean
 * 64-set blocks with one OR per 8 marks.
 */
class DirtySets
{
  public:
    explicit DirtySets(std::size_t sets)
        : sets_(sets), marks_((sets + 63) / 64 * 64, 0)
    {
        markAll();
    }

    void mark(std::size_t set) { marks_[set] = 1; }

    void
    markAll()
    {
        std::fill(marks_.begin(), marks_.begin() + sets_, 1);
    }

    /**
     * Run @p check_set (set index -> Expected<void>) over the marked
     * sets in ascending order, unmarking each set that passes.
     * Returns the first failure; that set and every later marked set
     * stay marked.
     */
    template <typename CheckSet>
    Expected<void>
    sweep(CheckSet &&check_set)
    {
        for (std::size_t block = 0; block < marks_.size(); block += 64) {
            std::uint64_t any = 0;
            for (std::size_t b = block; b < block + 64; b += 8) {
                std::uint64_t word;
                std::memcpy(&word, &marks_[b], sizeof(word));
                any |= word;
            }
            if (any == 0)
                continue;
            for (std::size_t set = block; set < block + 64; ++set) {
                if (marks_[set] == 0)
                    continue;
                if (auto verdict = check_set(set); !verdict)
                    return verdict;
                marks_[set] = 0;
            }
        }
        return ok();
    }

  private:
    std::size_t sets_;
    std::vector<std::uint8_t> marks_; ///< padded to whole 64-set blocks
};

/**
 * Check the LB structural invariants of the marked sets: lane
 * coherence, no duplicate valid tags within a set, history registers
 * within their configured widths, and all confidence/selector
 * counters within their saturation range.
 */
Expected<void> auditLoadBuffer(const LoadBuffer &lb);

/**
 * Check the LT structural invariants of the marked sets: lane
 * coherence, PF bits within pfBits, tags within ltTagBits, and no
 * duplicate valid tags within a set.
 */
Expected<void> auditLinkTable(const LinkTable &lt);

} // namespace clap

#endif // CLAP_CORE_AUDIT_HH
