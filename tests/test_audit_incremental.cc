/**
 * @file
 * Differential fuzz of the incremental auditor (core/audit.hh). The
 * production audit checks only the table sets written since they last
 * passed; after every step of a seeded stream it must report the same
 * verdict and error text as the full-sweep oracle
 * (tests/audit_oracle.hh). The stream mixes predict/update traffic in
 * the immediate and pipelined models, FaultInjector flips of every
 * state class, raw setImageAt/coldAt corruptions and repairs, and
 * snapshot restores, over the cap, stride, hybrid and last-address
 * predictors.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "audit_oracle.hh"
#include "core/audit.hh"
#include "core/cap_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/last_address_predictor.hh"
#include "core/state_io.hh"
#include "core/stride_predictor.hh"
#include "sim/fault_injector.hh"
#include "util/rng.hh"

namespace clap
{
namespace
{

enum class Kind
{
    Cap,
    Stride,
    Hybrid,
    Last,
};

/// Distinct load PCs in the stream: more than the small LB holds, so
/// allocations keep evicting.
constexpr unsigned kStreamPcs = 96;
constexpr std::uint64_t kFirstPc = 0x10000;

LoadBufferConfig
smallLb(unsigned assoc)
{
    LoadBufferConfig lb;
    lb.entries = 64;
    lb.assoc = assoc;
    return lb;
}

CapConfig
smallCap(unsigned lt_assoc)
{
    CapConfig cap;
    cap.ltEntries = 64;
    cap.ltAssoc = lt_assoc;
    cap.ltTagBits = 4;
    return cap;
}

FaultInjectorConfig
everyCallInjects(std::uint64_t seed)
{
    FaultInjectorConfig config;
    config.faultsPerMillionLoads = 1e6; // onLoad() always flips a bit
    config.seed = seed;
    return config;
}

/** One predictor under test, with handles on its tables. */
struct Subject
{
    explicit Subject(std::uint64_t seed) : injector(everyCallInjects(seed))
    {
    }

    std::unique_ptr<AddressPredictor> predictor;
    LoadBuffer *lb = nullptr;
    LinkTable *lt = nullptr; ///< null for LB-only predictors
    /// audit()'s context label; empty when audit() checks no tables
    /// (last-address), where auditLoadBuffer() is compared instead.
    std::string context;
    FaultInjector injector;

    /** The production verdict: audit(), or the LB audit directly. */
    Expected<void>
    audit() const
    {
        return context.empty() ? auditLoadBuffer(*lb)
                               : predictor->audit();
    }

    /** The oracle's verdict for the same call. */
    Expected<void>
    oracle() const
    {
        if (context.empty())
            return test::sweepLoadBuffer(*lb);
        return test::sweepPredictorTables(*lb, lt, context);
    }
};

std::unique_ptr<Subject>
makeSubject(Kind kind, bool pipelined, std::uint64_t seed,
            bool full_size = false)
{
    auto s = std::make_unique<Subject>(seed);
    switch (kind) {
      case Kind::Cap: {
        CapPredictorConfig config;
        config.lb = smallLb(4);
        config.cap = smallCap(2);
        config.pipelined = pipelined;
        auto p = std::make_unique<CapPredictor>(config);
        s->lb = &p->loadBuffer();
        s->lt = &p->component().linkTable();
        s->injector.attach(*p);
        s->context = "cap predictor";
        s->predictor = std::move(p);
        break;
      }
      case Kind::Stride: {
        StridePredictorConfig config;
        config.lb = smallLb(8);
        config.pipelined = pipelined;
        auto p = std::make_unique<StridePredictor>(config);
        s->lb = &p->loadBuffer();
        s->injector.attach(*p);
        s->context = "stride predictor";
        s->predictor = std::move(p);
        break;
      }
      case Kind::Hybrid: {
        HybridConfig config;
        if (!full_size) {
            config.lb = smallLb(2);
            config.cap = smallCap(1);
        }
        config.pipelined = pipelined;
        auto p = std::make_unique<HybridPredictor>(config);
        s->lb = &p->loadBuffer();
        s->lt = &p->capComponent().linkTable();
        s->injector.attach(*p);
        s->context = "hybrid predictor";
        s->predictor = std::move(p);
        break;
      }
      case Kind::Last: {
        LastAddressConfig config;
        config.lb = smallLb(4);
        auto p = std::make_unique<LastAddressPredictor>(config);
        s->lb = &p->loadBuffer();
        s->injector.attach(*s->lb);
        s->predictor = std::move(p);
        break;
      }
    }
    return s;
}

/**
 * Seeded dynamic loads over kStreamPcs static loads: a third strided,
 * a third cycling through a short address list (CAP links form), a
 * third drawing from a small random pool.
 */
class LoadStream
{
  public:
    explicit LoadStream(std::uint64_t seed) : rng_(seed) {}

    /** Next load's context; its actual address goes to @p actual. */
    LoadInfo
    next(std::uint64_t &actual)
    {
        const unsigned k = static_cast<unsigned>(rng_.below(kStreamPcs));
        const std::uint64_t n = visits_[k]++;
        switch (k % 3) {
          case 0:
            actual = 0x100000 * (k + 1) + n * 8;
            break;
          case 1:
            actual = 0x200000 + k * 0x1000 + (n % 5) * 0x40;
            break;
          default:
            actual = 0x300000 + rng_.below(16) * 0x10;
            break;
        }
        LoadInfo info;
        info.pc = kFirstPc + 4 * k;
        info.immOffset = static_cast<std::int32_t>(k % 4) * 8;
        info.ghr = rng_.next();
        info.pathHist = rng_.next();
        return info;
    }

  private:
    Rng rng_;
    std::uint64_t visits_[kStreamPcs] = {};
};

struct Pending
{
    LoadInfo info;
    Prediction pred;
    std::uint64_t actual = 0;
};

/** Raw LB corruption of one slot: a duplicate tag (or a stray copy
 *  that may duplicate one). Returns the slot written. */
std::size_t
corruptLb(LoadBuffer &lb, Rng &rng)
{
    const std::size_t assoc = lb.config().assoc;
    const std::size_t i = rng.below(lb.numEntries());
    LBEntryImage image = lb.imageAt(i);
    switch (rng.below(3)) {
      case 0: // take a way's tag from the same set
        image.tag = lb.tagAt(i - i % assoc + rng.below(assoc));
        image.valid = true;
        break;
      case 1: // retag to a stream PC
        image.tag = (kFirstPc >> 2) + rng.below(kStreamPcs);
        image.valid = true;
        break;
      default: // another slot's whole image
        image = lb.imageAt(rng.below(lb.numEntries()));
        break;
    }
    lb.setImageAt(i, image);
    return i;
}

/**
 * Raw memory write of a history register whose value exceeds the
 * width it records: @p target gets a full-width value spliced with
 * the width field of a 4-bit register. No member function can do
 * this; a soft error in the cold lane could.
 */
void
writeOverwideHistory(HistoryRegister &target)
{
    HistoryRegister value(63, 1);
    value.setValue(mask(63));
    const HistoryRegister narrow(4, 1);
    const HistoryRegister wide(63, 1);
    unsigned char out[sizeof(HistoryRegister)];
    unsigned char n[sizeof(HistoryRegister)];
    unsigned char w[sizeof(HistoryRegister)];
    std::memcpy(out, &value, sizeof(out));
    std::memcpy(n, &narrow, sizeof(n));
    std::memcpy(w, &wide, sizeof(w));
    for (std::size_t b = 0; b < sizeof(out); ++b) {
        if (n[b] != w[b])
            out[b] = n[b]; // the width field's bytes
    }
    std::memcpy(&target, out, sizeof(out));
}

/** Raw cold-lane corruption of one slot through the mutable
 *  coldAt(). Returns the slot written. */
std::size_t
corruptCold(LoadBuffer &lb, Rng &rng)
{
    const std::size_t i = rng.below(lb.numEntries());
    LBEntry &entry = lb.coldAt(i);
    writeOverwideHistory(rng.below(2) == 0 ? entry.hist
                                           : entry.specHist);
    return i;
}

/** Raw LT corruption of one slot: a tag or PF bit above its field,
 *  or a duplicate tag. Returns the slot written. */
std::size_t
corruptLt(LinkTable &lt, Rng &rng)
{
    const CapConfig &config = lt.config();
    const std::size_t assoc = lt.assoc();
    const std::size_t i = rng.below(lt.numEntries());
    LTEntry entry = lt.imageAt(i);
    switch (rng.below(3)) {
      case 0:
        entry.valid = true;
        entry.tag |= std::uint64_t{1}
                     << (config.ltTagBits +
                         rng.below(64 - config.ltTagBits));
        break;
      case 1:
        entry.pf = static_cast<std::uint8_t>(
            entry.pf |
            (1u << (config.pfBits + rng.below(8 - config.pfBits))));
        break;
      default:
        entry.tag = lt.tagAt(i - i % assoc + rng.below(assoc));
        entry.valid = true;
        break;
    }
    lt.setImageAt(i, entry);
    return i;
}

/** A slot a raw write corrupted, awaiting repair. */
struct Written
{
    bool inLt = false;
    std::size_t slot = 0;
};

/** Raw repair: invalidate the slot (and clear an LT slot's PF). */
void
repair(const Written &w, LoadBuffer &lb, LinkTable *lt)
{
    if (w.inLt) {
        lt->setImageAt(w.slot, LTEntry{});
        return;
    }
    LBEntryImage image = lb.imageAt(w.slot);
    image.valid = false;
    lb.setImageAt(w.slot, image);
}

struct Tally
{
    unsigned clean = 0;
    unsigned corrupt = 0;
    unsigned restores = 0;
};

/**
 * @p steps seeded steps over one predictor; after each, the audit
 * must equal the oracle. Pipelined runs resolve predictions 8 loads
 * late.
 */
void
fuzz(Kind kind, bool pipelined, std::uint64_t seed, unsigned steps,
     Tally &tally, bool full_size = false)
{
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                 (pipelined ? " pipelined" : " immediate") + " seed " +
                 std::to_string(seed));
    const auto s = makeSubject(kind, pipelined, seed, full_size);
    const std::size_t gap = pipelined ? 8 : 0;
    LoadStream stream(seed);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::deque<Pending> pending;
    std::string snapshot; // taken while the oracle read clean
    std::vector<Written> written;

    const auto drain = [&] {
        for (const Pending &p : pending)
            s->predictor->update(p.info, p.actual, p.pred);
        pending.clear();
    };

    for (unsigned step = 0; step < steps; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 57) {
            const std::uint64_t loads = 1 + rng.below(16);
            for (std::uint64_t n = 0; n < loads; ++n) {
                Pending p;
                p.info = stream.next(p.actual);
                p.pred = s->predictor->predict(p.info);
                pending.push_back(p);
                while (pending.size() > gap) {
                    const Pending &head = pending.front();
                    s->predictor->update(head.info, head.actual,
                                         head.pred);
                    pending.pop_front();
                }
            }
        } else if (op < 72) {
            const std::uint64_t flips = 1 + rng.below(3);
            for (std::uint64_t n = 0; n < flips; ++n)
                s->injector.onLoad();
        } else if (op < 83) {
            Written w;
            w.inLt = s->lt != nullptr && rng.below(2) == 0;
            if (w.inLt)
                w.slot = corruptLt(*s->lt, rng);
            else if (rng.below(2) == 0)
                w.slot = corruptLb(*s->lb, rng);
            else
                w.slot = corruptCold(*s->lb, rng);
            written.push_back(w);
        } else if (op < 95) {
            if (!written.empty()) {
                const std::size_t k = rng.below(written.size());
                repair(written[k], *s->lb, s->lt);
                written.erase(written.begin() +
                              static_cast<std::ptrdiff_t>(k));
            }
        } else if (op < 98) {
            drain();
            if (s->oracle()) {
                auto bytes = encodePredictorState(*s->predictor);
                ASSERT_TRUE(bytes) << bytes.error().str();
                snapshot = std::move(*bytes);
            }
        } else if (!snapshot.empty()) {
            drain();
            auto restored = decodePredictorState(snapshot, *s->predictor);
            ASSERT_TRUE(restored) << restored.error().str();
            ++tally.restores;
        }

        const Expected<void> want = s->oracle();
        const Expected<void> got = s->audit();
        ASSERT_EQ(got.hasValue(), want.hasValue())
            << "step " << step << ": oracle "
            << (want ? std::string("clean") : want.error().str());
        if (want) {
            ++tally.clean;
        } else {
            ++tally.corrupt;
            ASSERT_EQ(got.error().code(), want.error().code())
                << "step " << step;
            ASSERT_EQ(got.error().str(), want.error().str())
                << "step " << step;
        }
    }

    const FaultCounts &faults = s->injector.counts();
    EXPECT_GT(faults.confidence, 0u);
    if (s->lt != nullptr) {
        EXPECT_GT(faults.ltLink, 0u);
        EXPECT_GT(faults.ltTag, 0u);
        EXPECT_GT(faults.ltPf, 0u);
        EXPECT_GT(faults.lbHistory, 0u);
    }
}

/** Both models, several seeds; both verdicts must occur often. */
void
fuzzKind(Kind kind)
{
    constexpr unsigned kSteps = 3000;
    for (const bool pipelined : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Tally tally;
            fuzz(kind, pipelined, seed, kSteps, tally);
            if (testing::Test::HasFatalFailure())
                return;
            EXPECT_GT(tally.clean, kSteps / 20);
            EXPECT_GT(tally.corrupt, kSteps / 20);
            EXPECT_GT(tally.restores, 0u);
        }
    }
}

TEST(AuditDifferential, CapMatchesFullSweep)
{
    fuzzKind(Kind::Cap);
}

TEST(AuditDifferential, StrideMatchesFullSweep)
{
    fuzzKind(Kind::Stride);
}

TEST(AuditDifferential, HybridMatchesFullSweep)
{
    fuzzKind(Kind::Hybrid);
}

TEST(AuditDifferential, LastAddressMatchesFullSweep)
{
    fuzzKind(Kind::Last);
}

TEST(AuditDifferential, HybridAtDefaultGeometryMatchesFullSweep)
{
    for (const bool pipelined : {false, true}) {
        Tally tally;
        fuzz(Kind::Hybrid, pipelined, 7, 400, tally, /*full_size=*/true);
        if (HasFatalFailure())
            return;
        EXPECT_GT(tally.corrupt, 0u);
    }
}

TEST(AuditDifferential, FailingSetStaysMarkedUntilRepaired)
{
    HybridPredictor hybrid{HybridConfig{}};
    LoadBuffer &lb = hybrid.loadBuffer();
    const LinkTable &lt = hybrid.capComponent().linkTable();
    EXPECT_TRUE(hybrid.audit());

    // Two ways of the last set with the same tag.
    LBEntryImage image;
    image.valid = true;
    image.tag = 0x77;
    const std::size_t base = lb.numEntries() - lb.config().assoc;
    lb.setImageAt(base, image);
    lb.setImageAt(base + 1, image);
    const std::string want =
        test::sweepPredictorTables(lb, &lt, "hybrid predictor")
            .error()
            .str();
    for (int repeat = 0; repeat < 2; ++repeat) {
        auto failed = hybrid.audit();
        ASSERT_FALSE(failed);
        EXPECT_EQ(failed.error().str(), want);
    }

    image.valid = false;
    lb.setImageAt(base + 1, image);
    EXPECT_TRUE(hybrid.audit());
}

} // namespace
} // namespace clap
