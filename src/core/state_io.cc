#include "core/state_io.hh"

#include <bit>
#include <cstring>

#include "core/cap_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/last_address_predictor.hh"
#include "core/link_table.hh"
#include "core/load_buffer.hh"
#include "core/predictor.hh"
#include "core/stride_predictor.hh"
#include "util/atomic_file.hh"
#include "util/bytes.hh"
#include "util/crc32.hh"

namespace clap
{

namespace
{

void
putSatCounter(ByteWriter &w, const SatCounter &c)
{
    w.u8(c.max());
    w.u8(c.initialValue());
    w.u8(c.value());
}

bool
getSatCounter(ByteReader &r, SatCounter &c)
{
    std::uint8_t max = 0, initial = 0, count = 0;
    if (!r.u8(max) || !r.u8(initial) || !r.u8(count))
        return false;
    // max must be 2^n - 1 for n in 1..8; the counter asserts the rest.
    if (max == 0 ||
        ((static_cast<unsigned>(max) + 1u) & static_cast<unsigned>(max)) !=
            0)
        return false;
    if (initial > max || count > max)
        return false;
    c = SatCounter(static_cast<unsigned>(std::bit_width(
                       static_cast<unsigned>(max))),
                   initial);
    c.set(count);
    return true;
}

void
putHistory(ByteWriter &w, const HistoryRegister &h)
{
    w.u32(h.numBits());
    w.u32(h.shiftAmount());
    w.u64(h.value());
}

bool
getHistory(ByteReader &r, HistoryRegister &h)
{
    std::uint32_t bits = 0, shift = 0;
    std::uint64_t value = 0;
    if (!r.u32(bits) || !r.u32(shift) || !r.u64(value))
        return false;
    if (bits < 1 || bits > 63 || shift < 1 || shift > 63)
        return false;
    h = HistoryRegister(bits, shift);
    h.setValue(value);
    return true;
}

void
putLbEntry(ByteWriter &w, const LBEntryImage &e)
{
    w.b(e.valid);
    w.u64(e.tag);
    w.u64(e.lruStamp);
    w.u8(e.offsetLsb);
    w.b(e.capInit);
    putHistory(w, e.hist);
    putHistory(w, e.specHist);
    putSatCounter(w, e.capConf);
    w.u64(e.capGhrPattern);
    w.b(e.capGhrValid);
    w.u32(e.capPathOk);
    w.u32(e.capPending);
    w.b(e.capBlocked);
    w.b(e.capSpecStale);
    w.b(e.lastValid);
    w.u64(e.lastAddr);
    w.i64(e.stride);
    w.i64(e.candStride);
    putSatCounter(w, e.strideConf);
    w.u64(e.strideGhrPattern);
    w.b(e.strideGhrValid);
    w.u32(e.run);
    w.u32(e.interval);
    w.b(e.intervalValid);
    w.u32(e.stridePending);
    w.u64(e.specLastAddr);
    w.b(e.strideBlocked);
    putSatCounter(w, e.selector);
}

bool
getLbEntry(ByteReader &r, LBEntryImage &e)
{
    return r.b(e.valid) && r.u64(e.tag) && r.u64(e.lruStamp) &&
           r.u8(e.offsetLsb) && r.b(e.capInit) && getHistory(r, e.hist) &&
           getHistory(r, e.specHist) && getSatCounter(r, e.capConf) &&
           r.u64(e.capGhrPattern) && r.b(e.capGhrValid) &&
           r.u32(e.capPathOk) && r.u32(e.capPending) &&
           r.b(e.capBlocked) && r.b(e.capSpecStale) && r.b(e.lastValid) &&
           r.u64(e.lastAddr) && r.i64(e.stride) && r.i64(e.candStride) &&
           getSatCounter(r, e.strideConf) && r.u64(e.strideGhrPattern) &&
           r.b(e.strideGhrValid) && r.u32(e.run) && r.u32(e.interval) &&
           r.b(e.intervalValid) && r.u32(e.stridePending) &&
           r.u64(e.specLastAddr) && r.b(e.strideBlocked) &&
           getSatCounter(r, e.selector);
}

std::string
encodeLoadBuffer(const LoadBuffer &lb)
{
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(lb.numEntries()));
    w.u32(lb.config().assoc);
    w.u64(lb.lruClock());
    w.u64(lb.allocations());
    for (std::size_t i = 0; i < lb.numEntries(); ++i)
        putLbEntry(w, lb.imageAt(i));
    return w.take();
}

bool
decodeLoadBuffer(std::string_view payload, LoadBuffer &lb,
                 std::string &reason)
{
    ByteReader r(payload);
    std::uint32_t entries = 0, assoc = 0;
    std::uint64_t clock = 0, allocations = 0;
    if (!r.u32(entries) || !r.u32(assoc) || !r.u64(clock) ||
        !r.u64(allocations)) {
        reason = "load-buffer section header truncated";
        return false;
    }
    if (entries != lb.numEntries() || assoc != lb.config().assoc) {
        reason = "load-buffer geometry mismatch (file " +
                 std::to_string(entries) + "x" + std::to_string(assoc) +
                 ", target " + std::to_string(lb.numEntries()) + "x" +
                 std::to_string(lb.config().assoc) + ")";
        return false;
    }
    std::vector<LBEntryImage> staged(entries);
    for (auto &entry : staged) {
        if (!getLbEntry(r, entry)) {
            reason = "corrupt load-buffer entry at offset " +
                     std::to_string(r.pos());
            return false;
        }
    }
    if (!r.done()) {
        reason = "trailing bytes in load-buffer section";
        return false;
    }
    for (std::size_t i = 0; i < staged.size(); ++i)
        lb.setImageAt(i, staged[i]);
    lb.setLruClock(clock);
    lb.setAllocations(allocations);
    return true;
}

std::string
encodeLinkTable(const LinkTable &lt)
{
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(lt.numEntries()));
    w.u32(lt.assoc());
    w.u32(static_cast<std::uint32_t>(lt.pfTableSize()));
    w.u64(lt.lruClock());
    w.u64(lt.linkWrites());
    w.u64(lt.linkOverwrites());
    w.u64(lt.pfFiltered());
    for (std::size_t i = 0; i < lt.numEntries(); ++i) {
        const LTEntry e = lt.imageAt(i);
        w.b(e.valid);
        w.u64(e.tag);
        w.u64(e.link);
        w.u8(e.pf);
        w.b(e.pfValid);
        w.u64(e.lru);
    }
    for (std::size_t i = 0; i < lt.pfTableSize(); ++i) {
        w.u8(lt.pfTableValueAt(i));
        w.b(lt.pfTableValidAt(i));
    }
    return w.take();
}

bool
decodeLinkTable(std::string_view payload, LinkTable &lt,
                std::string &reason)
{
    ByteReader r(payload);
    std::uint32_t entries = 0, assoc = 0, pf_size = 0;
    std::uint64_t clock = 0, writes = 0, overwrites = 0, filtered = 0;
    if (!r.u32(entries) || !r.u32(assoc) || !r.u32(pf_size) ||
        !r.u64(clock) || !r.u64(writes) || !r.u64(overwrites) ||
        !r.u64(filtered)) {
        reason = "link-table section header truncated";
        return false;
    }
    if (entries != lt.numEntries() || assoc != lt.assoc() ||
        pf_size != lt.pfTableSize()) {
        reason = "link-table geometry mismatch (file " +
                 std::to_string(entries) + "x" + std::to_string(assoc) +
                 "/pf" + std::to_string(pf_size) + ", target " +
                 std::to_string(lt.numEntries()) + "x" +
                 std::to_string(lt.assoc()) + "/pf" +
                 std::to_string(lt.pfTableSize()) + ")";
        return false;
    }
    std::vector<LTEntry> staged(entries);
    for (auto &e : staged) {
        if (!r.b(e.valid) || !r.u64(e.tag) || !r.u64(e.link) ||
            !r.u8(e.pf) || !r.b(e.pfValid) || !r.u64(e.lru)) {
            reason = "corrupt link-table entry at offset " +
                     std::to_string(r.pos());
            return false;
        }
    }
    std::vector<std::pair<std::uint8_t, bool>> staged_pf(pf_size);
    for (auto &[value, valid] : staged_pf) {
        if (!r.u8(value) || !r.b(valid)) {
            reason = "corrupt PF-table entry at offset " +
                     std::to_string(r.pos());
            return false;
        }
    }
    if (!r.done()) {
        reason = "trailing bytes in link-table section";
        return false;
    }
    for (std::size_t i = 0; i < staged.size(); ++i)
        lt.setImageAt(i, staged[i]);
    for (std::size_t i = 0; i < staged_pf.size(); ++i)
        lt.setPfTableAt(i, staged_pf[i].first, staged_pf[i].second);
    lt.setLruClock(clock);
    lt.setCounters(writes, overwrites, filtered);
    return true;
}

std::string
encodeCapGates(const CapGateStats &g)
{
    ByteWriter w;
    w.u64(g.formed);
    w.u64(g.speculated);
    w.u64(g.confVetoes);
    w.u64(g.tagVetoes);
    w.u64(g.pathVetoes);
    w.u64(g.pipeVetoes);
    return w.take();
}

bool
decodeCapGates(std::string_view payload, CapGateStats &g,
               std::string &reason)
{
    ByteReader r(payload);
    if (!r.u64(g.formed) || !r.u64(g.speculated) || !r.u64(g.confVetoes) ||
        !r.u64(g.tagVetoes) || !r.u64(g.pathVetoes) ||
        !r.u64(g.pipeVetoes) || !r.done()) {
        reason = "malformed CAP gate section";
        return false;
    }
    return true;
}

std::string
encodeStrideGates(const StrideGateStats &g)
{
    ByteWriter w;
    w.u64(g.formed);
    w.u64(g.speculated);
    w.u64(g.confVetoes);
    w.u64(g.intervalVetoes);
    w.u64(g.pathVetoes);
    w.u64(g.pipeVetoes);
    return w.take();
}

bool
decodeStrideGates(std::string_view payload, StrideGateStats &g,
                  std::string &reason)
{
    ByteReader r(payload);
    if (!r.u64(g.formed) || !r.u64(g.speculated) || !r.u64(g.confVetoes) ||
        !r.u64(g.intervalVetoes) || !r.u64(g.pathVetoes) ||
        !r.u64(g.pipeVetoes) || !r.done()) {
        reason = "malformed stride gate section";
        return false;
    }
    return true;
}

/** Mutable views of the structures a predictor kind exposes. */
struct PredictorParts
{
    LoadBuffer *lb = nullptr;
    LinkTable *lt = nullptr;
    CapComponent *cap = nullptr;
    StrideComponent *stride = nullptr;
};

struct ConstPredictorParts
{
    const LoadBuffer *lb = nullptr;
    const LinkTable *lt = nullptr;
    const CapComponent *cap = nullptr;
    const StrideComponent *stride = nullptr;
};

ConstPredictorParts
partsOf(const AddressPredictor &pred)
{
    ConstPredictorParts p;
    if (const auto *hybrid = dynamic_cast<const HybridPredictor *>(&pred)) {
        p.lb = &hybrid->loadBuffer();
        p.cap = &hybrid->capComponent();
        p.lt = &hybrid->capComponent().linkTable();
        p.stride = &hybrid->strideComponent();
    } else if (const auto *cap = dynamic_cast<const CapPredictor *>(&pred)) {
        p.lb = &cap->loadBuffer();
        p.cap = &cap->component();
        p.lt = &cap->component().linkTable();
    } else if (const auto *stride =
                   dynamic_cast<const StridePredictor *>(&pred)) {
        p.lb = &stride->loadBuffer();
        p.stride = &stride->component();
    } else if (const auto *last =
                   dynamic_cast<const LastAddressPredictor *>(&pred)) {
        p.lb = &last->loadBuffer();
    }
    return p;
}

PredictorParts
partsOf(AddressPredictor &pred)
{
    PredictorParts p;
    if (auto *hybrid = dynamic_cast<HybridPredictor *>(&pred)) {
        p.lb = &hybrid->loadBuffer();
        p.cap = &hybrid->capComponent();
        p.lt = &hybrid->capComponent().linkTable();
        p.stride = &hybrid->strideComponent();
    } else if (auto *cap = dynamic_cast<CapPredictor *>(&pred)) {
        p.lb = &cap->loadBuffer();
        p.cap = &cap->component();
        p.lt = &cap->component().linkTable();
    } else if (auto *stride = dynamic_cast<StridePredictor *>(&pred)) {
        p.lb = &stride->loadBuffer();
        p.stride = &stride->component();
    } else if (auto *last = dynamic_cast<LastAddressPredictor *>(&pred)) {
        p.lb = &last->loadBuffer();
    }
    return p;
}

void
appendSection(ByteWriter &w, std::uint32_t id, const std::string &payload)
{
    w.u32(id);
    w.u64(payload.size());
    w.bytes(payload);
    w.u32(crc32(payload.data(), payload.size()));
}

/** One walked section: id, payload view, CRC verdict. */
struct WalkedSection
{
    std::uint32_t id = 0;
    std::string_view payload;
    bool intact = false;
};

struct WalkedFile
{
    std::uint32_t version = 0;
    std::string predictor;
    std::uint32_t declared = 0; ///< section count from the header
    std::vector<WalkedSection> sections;
    bool footerOk = false;
    std::size_t bodyEnd = 0; ///< offset where the footer should start
};

/**
 * Parse the header and walk as many sections as the bytes allow.
 * Only header-level damage errors out; section damage is recorded in
 * the per-section intact flags (a truncated section also ends the
 * walk, leaving later promised sections unrepresented).
 */
Expected<WalkedFile>
walkStateBytes(std::string_view bytes)
{
    WalkedFile file;
    ByteReader r(bytes);
    std::string_view magic;
    if (!r.bytes(magic, sizeof(stateMagic)) ||
        std::memcmp(magic.data(), stateMagic, sizeof(stateMagic)) != 0) {
        return makeError(ErrorCode::BadMagic,
                         "not a predictor snapshot (bad magic)");
    }
    if (!r.u32(file.version)) {
        return makeError(ErrorCode::Truncated,
                         "snapshot ends inside the header");
    }
    if (file.version == 0 || file.version > stateFormatVersion) {
        return makeError(ErrorCode::BadVersion,
                         "snapshot format version " +
                             std::to_string(file.version) +
                             " is newer than supported version " +
                             std::to_string(stateFormatVersion));
    }
    std::uint32_t name_len = 0;
    if (!r.u32(name_len)) {
        return makeError(ErrorCode::Truncated,
                         "snapshot ends inside the header");
    }
    if (name_len > maxStateNameLen) {
        return makeError(ErrorCode::BadHeader,
                         "predictor name length " +
                             std::to_string(name_len) +
                             " exceeds the sanity bound");
    }
    std::string_view name;
    if (!r.bytes(name, name_len) || !r.u32(file.declared)) {
        return makeError(ErrorCode::Truncated,
                         "snapshot ends inside the header");
    }
    file.predictor.assign(name);
    if (file.declared > maxStateSections) {
        return makeError(ErrorCode::BadHeader,
                         "section count " + std::to_string(file.declared) +
                             " exceeds the sanity bound");
    }
    for (std::uint32_t i = 0; i < file.declared; ++i) {
        WalkedSection section;
        std::uint64_t length = 0;
        if (!r.u32(section.id) || !r.u64(length))
            break; // truncated mid-frame: stop the walk
        if (length > r.remaining())
            break; // payload truncated
        std::string_view payload;
        std::uint32_t stored_crc = 0;
        if (!r.bytes(payload, static_cast<std::size_t>(length)) ||
            !r.u32(stored_crc))
            break;
        section.payload = payload;
        section.intact =
            crc32(payload.data(), payload.size()) == stored_crc;
        file.sections.push_back(section);
    }
    file.bodyEnd = r.pos();
    std::uint32_t footer = 0;
    if (file.sections.size() == file.declared && r.u32(footer)) {
        file.footerOk =
            crc32(bytes.data(), file.bodyEnd) == footer && r.done();
    }
    return file;
}

} // namespace

Expected<std::string>
encodePredictorState(const AddressPredictor &pred,
                     const std::vector<StateExtraSection> &extras)
{
    const ConstPredictorParts parts = partsOf(pred);
    if (parts.lb == nullptr) {
        return makeError(ErrorCode::InvalidArgument,
                         "predictor '" + pred.name() +
                             "' does not support state serialization");
    }
    for (const auto &extra : extras) {
        if (extra.id < firstCallerSection) {
            return makeError(ErrorCode::InvalidArgument,
                             "caller section id " +
                                 std::to_string(extra.id) +
                                 " collides with the reserved range");
        }
    }

    // Sections: extras first, then gates, LT, and the LB last —
    // smallest first, so truncation costs the cheapest state.
    std::vector<std::pair<std::uint32_t, std::string>> sections;
    for (const auto &extra : extras)
        sections.emplace_back(extra.id, extra.payload);
    if (parts.cap != nullptr) {
        sections.emplace_back(
            static_cast<std::uint32_t>(StateSection::CapGates),
            encodeCapGates(parts.cap->gateStats()));
    }
    if (parts.stride != nullptr) {
        sections.emplace_back(
            static_cast<std::uint32_t>(StateSection::StrideGates),
            encodeStrideGates(parts.stride->gateStats()));
    }
    if (parts.lt != nullptr) {
        sections.emplace_back(
            static_cast<std::uint32_t>(StateSection::LinkTable),
            encodeLinkTable(*parts.lt));
    }
    sections.emplace_back(
        static_cast<std::uint32_t>(StateSection::LoadBuffer),
        encodeLoadBuffer(*parts.lb));

    const std::string name = pred.name();
    ByteWriter w;
    w.bytes(std::string_view(stateMagic, sizeof(stateMagic)));
    w.u32(stateFormatVersion);
    w.u32(static_cast<std::uint32_t>(name.size()));
    w.bytes(name);
    w.u32(static_cast<std::uint32_t>(sections.size()));
    for (const auto &[id, payload] : sections)
        appendSection(w, id, payload);
    const std::uint32_t footer =
        crc32(w.buffer().data(), w.buffer().size());
    w.u32(footer);
    return w.take();
}

Expected<StateReadResult>
decodePredictorState(std::string_view bytes, AddressPredictor &pred,
                     const StateReadOptions &options,
                     std::vector<StateExtraSection> *extras)
{
    auto walked = walkStateBytes(bytes);
    if (!walked)
        return std::move(walked.error())
            .withContext("restoring predictor state");
    const WalkedFile &file = *walked;

    if (file.predictor != pred.name()) {
        return makeError(ErrorCode::InvalidArgument,
                         "snapshot holds '" + file.predictor +
                             "' state, target predictor is '" +
                             pred.name() + "'");
    }

    PredictorParts parts = partsOf(pred);
    if (parts.lb == nullptr) {
        return makeError(ErrorCode::InvalidArgument,
                         "predictor '" + pred.name() +
                             "' does not support state serialization");
    }

    const bool frame_complete =
        file.sections.size() == file.declared && file.footerOk;
    if (!options.salvage && !frame_complete) {
        if (file.sections.size() != file.declared) {
            return makeError(
                ErrorCode::Truncated,
                "snapshot holds " +
                    std::to_string(file.sections.size()) + " of " +
                    std::to_string(file.declared) +
                    " promised sections");
        }
        return makeError(ErrorCode::BadChecksum,
                         "snapshot footer CRC mismatch");
    }

    // Start from cleared structures; intact sections overwrite them,
    // so a dropped section degrades to a cold (but audit-clean) table.
    parts.lb->clear();
    parts.lb->setLruClock(0);
    parts.lb->setAllocations(0);
    if (parts.lt != nullptr) {
        parts.lt->clear();
        parts.lt->setLruClock(0);
        parts.lt->setCounters(0, 0, 0);
    }
    if (parts.cap != nullptr)
        parts.cap->setGateStats(CapGateStats{});
    if (parts.stride != nullptr)
        parts.stride->setGateStats(StrideGateStats{});

    StateReadResult result;
    result.version = file.version;
    result.sections = file.declared;

    auto damaged = [&](std::uint32_t id,
                       const std::string &reason) -> Expected<void> {
        if (!options.salvage) {
            return makeError(ErrorCode::BadRecord, reason)
                .withContext("section " + std::to_string(id));
        }
        result.droppedSections.push_back(id);
        return ok();
    };

    for (const WalkedSection &section : file.sections) {
        std::string reason;
        bool applied = false;
        if (!section.intact) {
            if (auto status = damaged(section.id, "section CRC mismatch");
                !status)
                return status.error();
            continue;
        }
        switch (static_cast<StateSection>(section.id)) {
          case StateSection::LoadBuffer:
            applied = decodeLoadBuffer(section.payload, *parts.lb, reason);
            break;
          case StateSection::LinkTable:
            if (parts.lt == nullptr) {
                reason = "link-table section for a predictor without one";
            } else {
                applied =
                    decodeLinkTable(section.payload, *parts.lt, reason);
            }
            break;
          case StateSection::CapGates: {
            CapGateStats gates;
            if (parts.cap == nullptr) {
                reason = "CAP gate section for a predictor without CAP";
            } else if (decodeCapGates(section.payload, gates, reason)) {
                parts.cap->setGateStats(gates);
                applied = true;
            }
            break;
          }
          case StateSection::StrideGates: {
            StrideGateStats gates;
            if (parts.stride == nullptr) {
                reason = "stride gate section for a predictor without "
                         "a stride component";
            } else if (decodeStrideGates(section.payload, gates, reason)) {
                parts.stride->setGateStats(gates);
                applied = true;
            }
            break;
          }
          default:
            if (section.id >= firstCallerSection) {
                if (extras != nullptr) {
                    extras->push_back(StateExtraSection{
                        section.id, std::string(section.payload)});
                }
                applied = true;
            } else {
                reason = "unknown reserved section id";
            }
            break;
        }
        if (applied) {
            ++result.restored;
        } else {
            // Geometry mismatches are a caller error, not file damage:
            // salvage must not silently discard a whole table because
            // the target predictor was configured differently.
            if (reason.find("geometry mismatch") != std::string::npos) {
                return makeError(ErrorCode::InvalidArgument, reason)
                    .withContext("section " + std::to_string(section.id));
            }
            if (auto status = damaged(section.id, reason); !status)
                return status.error();
        }
    }

    result.salvaged = !result.droppedSections.empty() ||
                      file.sections.size() != file.declared;
    if (file.sections.size() != file.declared) {
        // Promised sections the walk never reached. Their ids are not
        // in the file any more, but the predictor sections this
        // target expected and never saw must be among them (the
        // encoder writes the LoadBuffer last, so truncation loses
        // these first); caller sections lost with them are
        // unknowable and reported as id 0.
        const auto walked = [&file](StateSection id) {
            for (const WalkedSection &section : file.sections) {
                if (section.id == static_cast<std::uint32_t>(id))
                    return true;
            }
            return false;
        };
        std::vector<std::uint32_t> missing;
        if (parts.cap != nullptr && !walked(StateSection::CapGates))
            missing.push_back(
                static_cast<std::uint32_t>(StateSection::CapGates));
        if (parts.stride != nullptr &&
            !walked(StateSection::StrideGates))
            missing.push_back(
                static_cast<std::uint32_t>(StateSection::StrideGates));
        if (parts.lt != nullptr && !walked(StateSection::LinkTable))
            missing.push_back(
                static_cast<std::uint32_t>(StateSection::LinkTable));
        if (!walked(StateSection::LoadBuffer))
            missing.push_back(
                static_cast<std::uint32_t>(StateSection::LoadBuffer));

        std::uint32_t shortfall = file.declared -
            static_cast<std::uint32_t>(file.sections.size());
        for (std::uint32_t id : missing) {
            if (shortfall == 0)
                break;
            result.droppedSections.push_back(id);
            --shortfall;
        }
        while (shortfall-- > 0)
            result.droppedSections.push_back(0);
    }

    if (auto audited = pred.audit(); !audited) {
        return std::move(audited.error())
            .withContext("auditing restored predictor state");
    }
    return result;
}

Expected<void>
writePredictorState(const AddressPredictor &pred, const std::string &path,
                    const std::vector<StateExtraSection> &extras)
{
    auto encoded = encodePredictorState(pred, extras);
    if (!encoded)
        return std::move(encoded.error()).withContext("writing " + path);
    return writeFileAtomic(path, *encoded);
}

Expected<StateReadResult>
readPredictorState(const std::string &path, AddressPredictor &pred,
                   const StateReadOptions &options,
                   std::vector<StateExtraSection> *extras)
{
    auto bytes = readFileBytes(path);
    if (!bytes)
        return std::move(bytes.error()).withContext("reading " + path);
    auto result = decodePredictorState(*bytes, pred, options, extras);
    if (!result)
        return std::move(result.error()).withContext("reading " + path);
    return result;
}

Expected<StateFileInfo>
inspectStateBytes(std::string_view bytes)
{
    auto walked = walkStateBytes(bytes);
    if (!walked)
        return walked.error();
    StateFileInfo info;
    info.version = walked->version;
    info.predictor = walked->predictor;
    info.sections = walked->declared;
    for (const WalkedSection &section : walked->sections) {
        StateSectionInfo si;
        si.id = section.id;
        si.length = section.payload.size();
        si.intact = section.intact;
        info.sectionInfo.push_back(si);
    }
    info.footerOk = walked->footerOk;
    info.complete = walked->footerOk &&
                    walked->sections.size() == walked->declared;
    for (const WalkedSection &section : walked->sections)
        info.complete = info.complete && section.intact;
    return info;
}

Expected<StateFileInfo>
inspectStateFile(const std::string &path)
{
    auto bytes = readFileBytes(path);
    if (!bytes)
        return std::move(bytes.error()).withContext("inspecting " + path);
    return inspectStateBytes(*bytes);
}

} // namespace clap
