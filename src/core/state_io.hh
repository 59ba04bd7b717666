/**
 * @file
 * Versioned binary serialization of full predictor state: the
 * LoadBuffer (every field of every slot, including the LRU clock and
 * per-entry confidence/selector counters), the LinkTable (links, PF
 * bits, the decoupled PF table, update counters), and the component
 * gate counters. A restored predictor is bit-for-bit equivalent to
 * the captured one: it passes core/audit.hh and produces identical
 * PredictionStats on any continuation trace.
 *
 * On-disk layout (little-endian, explicit per-field serialization
 * through util/bytes.hh, like trace files and wire frames):
 *
 *   magic    "CLAPSTA\0"         8 bytes
 *   version  u32                 (1 = current)
 *   name     u32 length + bytes  predictor name() ("hybrid", ...)
 *   nsec     u32                 number of sections
 *   sections nsec * {
 *     id      u32                StateSection value (>= 0x100 caller)
 *     length  u64                payload bytes
 *     payload length bytes
 *     crc     u32                CRC-32 over this payload
 *   }
 *   footer   u32                 CRC-32 over everything above
 *
 * Robustness: each section carries its own CRC, so a truncated or
 * tail-corrupted snapshot can be *salvaged* — intact leading sections
 * restore, damaged ones are dropped (the corresponding structure is
 * cleared) and reported in StateReadResult::droppedSections. Sections
 * are written smallest-first with the LoadBuffer last, so truncation
 * takes the (quickly relearned) LB before the slow-to-relearn link
 * table. Header damage and version-from-the-future are never
 * salvageable: they fail with BadMagic/BadHeader/BadVersion.
 *
 * Callers (the shard supervisor) can piggyback their own sections —
 * ids >= firstCallerSection — which travel under the same framing and
 * salvage rules.
 */

#ifndef CLAP_CORE_STATE_IO_HH
#define CLAP_CORE_STATE_IO_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace clap
{

class AddressPredictor;

/** Current snapshot format version. */
constexpr std::uint32_t stateFormatVersion = 1;

/** Snapshot file magic. */
constexpr char stateMagic[8] = {'C', 'L', 'A', 'P', 'S', 'T', 'A', '\0'};

/** Header sanity bound on the embedded predictor-name length. */
constexpr std::uint32_t maxStateNameLen = 256;

/** Header sanity bound on the section count. */
constexpr std::uint32_t maxStateSections = 64;

/** Well-known section ids. */
enum class StateSection : std::uint32_t
{
    CapGates = 1,    ///< CapGateStats counters
    StrideGates = 2, ///< StrideGateStats counters
    LinkTable = 3,   ///< full LT state incl. decoupled PF table
    LoadBuffer = 4,  ///< full LB state, every slot
};

/** First section id available to callers (e.g. serve shard stats). */
constexpr std::uint32_t firstCallerSection = 0x100;

/** A caller-supplied opaque section: id + raw payload bytes. */
struct StateExtraSection
{
    std::uint32_t id = firstCallerSection;
    std::string payload;
};

/** Options for decode/read. */
struct StateReadOptions
{
    /// Recover intact sections from a truncated or tail-corrupted
    /// snapshot instead of failing: structures whose sections are
    /// damaged or missing are cleared, and the damage is reported in
    /// StateReadResult. Header damage still errors out.
    bool salvage = false;
};

/** Diagnostics returned by a successful decode. */
struct StateReadResult
{
    std::uint32_t version = 0;   ///< on-disk format version
    std::uint32_t sections = 0;  ///< sections promised by the header
    std::uint32_t restored = 0;  ///< sections actually applied
    bool salvaged = false;       ///< at least one section was dropped
    std::vector<std::uint32_t> droppedSections; ///< ids lost to damage
};

/**
 * Serialize the full state of @p pred to a byte string. Supports the
 * concrete predictor kinds ("hybrid", "cap", "stride", "last");
 * anything else reports InvalidArgument. @p extras are appended as
 * caller sections, before the predictor sections.
 */
Expected<std::string>
encodePredictorState(const AddressPredictor &pred,
                     const std::vector<StateExtraSection> &extras = {});

/**
 * Restore @p pred from bytes produced by encodePredictorState. The
 * target predictor must have the same name and table geometry as the
 * captured one (InvalidArgument otherwise); its current state is
 * overwritten. When @p extras is non-null, caller sections are
 * returned through it. After a full (non-salvaged) restore the
 * predictor is audited; an audit failure reports CorruptedState.
 */
Expected<StateReadResult>
decodePredictorState(std::string_view bytes, AddressPredictor &pred,
                     const StateReadOptions &options = {},
                     std::vector<StateExtraSection> *extras = nullptr);

/** writeFileAtomic(encodePredictorState(...)): durable on POSIX. */
Expected<void>
writePredictorState(const AddressPredictor &pred, const std::string &path,
                    const std::vector<StateExtraSection> &extras = {});

/** readFileBytes + decodePredictorState. */
Expected<StateReadResult>
readPredictorState(const std::string &path, AddressPredictor &pred,
                   const StateReadOptions &options = {},
                   std::vector<StateExtraSection> *extras = nullptr);

/** Per-section summary reported by inspectStateFile. */
struct StateSectionInfo
{
    std::uint32_t id = 0;
    std::uint64_t length = 0; ///< payload bytes
    bool intact = false;      ///< fully present with a matching CRC
};

/** Whole-file summary for tools (no predictor needed). */
struct StateFileInfo
{
    std::uint32_t version = 0;
    std::string predictor;    ///< embedded predictor name
    std::uint32_t sections = 0; ///< promised by the header
    std::vector<StateSectionInfo> sectionInfo; ///< walked sections
    bool footerOk = false;    ///< whole-file CRC verified
    bool complete = false;    ///< every promised section intact AND
                              ///< footer present and matching
};

/**
 * Parse a snapshot's framing without restoring anything: header,
 * per-section lengths and CRCs, footer. Walks as far as the damage
 * allows — only header-level problems (magic/version/name bounds)
 * error out.
 */
Expected<StateFileInfo> inspectStateBytes(std::string_view bytes);

/** readFileBytes + inspectStateBytes. */
Expected<StateFileInfo> inspectStateFile(const std::string &path);

} // namespace clap

#endif // CLAP_CORE_STATE_IO_HH
