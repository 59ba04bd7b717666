/**
 * @file
 * The trace record "ISA". The workload kernels emit a stream of these
 * records; the predictor simulator consumes only the load records
 * (PC, effective address, immediate offset) plus branch outcomes for
 * the global history register, and the timing simulator additionally
 * uses the register dependencies and instruction classes.
 *
 * This plays the role of the paper's proprietary IA-32 traces (45
 * traces of 30M instructions). See DESIGN.md section 2 for the
 * substitution rationale.
 */

#ifndef CLAP_TRACE_RECORD_HH
#define CLAP_TRACE_RECORD_HH

#include <cstddef>
#include <cstdint>

namespace clap
{

/** Instruction classes distinguished by the simulators. */
enum class InstClass : std::uint8_t
{
    Alu,        ///< single-cycle integer op
    MulDiv,     ///< long-latency integer op
    Load,       ///< memory read; drives the address predictors
    Store,      ///< memory write
    Branch,     ///< conditional branch; updates the GHR
    Jump,       ///< unconditional direct jump
    Call,       ///< function call; updates the path history
    Ret,        ///< function return
};

/** Number of instruction classes: the valid class bytes are
 *  0..numInstClasses-1. Not an enumerator, so that the 3-bit
 *  TraceRecord::cls field holds every InstClass value. */
constexpr std::size_t numInstClasses = 8;
static_assert(static_cast<std::size_t>(InstClass::Ret) + 1 ==
              numInstClasses);

/** Printable mnemonic for an instruction class. */
const char *instClassName(InstClass cls);

/**
 * One dynamic instruction, 24 bytes. Register identifiers are small
 * integers (0 = no register, 1..255 usable); the timing model renames
 * them.
 *
 * For loads, @c effAddr is the effective address and @c immOffset the
 * immediate displacement encoded in the (synthetic) opcode — the value
 * the CAP predictor subtracts to obtain the shared base address
 * (paper section 3.3).
 *
 * Layout: pc, one address field, immOffset, the three registers, and
 * one byte packing cls (3 bits), taken (1 bit) and memSize (4 bits).
 * The address field is @c effAddr for Load/Store and @c target for
 * every other class; a record never carries both, so the two names
 * share storage and writing one overwrites the other. memSize is at
 * most maxMemSize. The 40-byte on-disk record (trace/trace_io.hh)
 * keeps separate effAddr and target slots; the reader rejects any
 * record this layout cannot hold.
 */
struct TraceRecord
{
    /// Largest access size the 4-bit memSize field holds.
    static constexpr unsigned maxMemSize = 15;

    std::uint64_t pc = 0;
    union
    {
        std::uint64_t effAddr = 0; ///< loads/stores: effective address
        std::uint64_t target;      ///< other classes: target PC
    };
    std::int32_t immOffset = 0;  ///< loads: opcode immediate offset
    std::uint8_t srcA = 0;       ///< first source register (0 = none)
    std::uint8_t srcB = 0;       ///< second source register (0 = none)
    std::uint8_t dst = 0;        ///< destination register (0 = none)
    InstClass cls : 3 = InstClass::Alu;
    bool taken : 1 = false;      ///< branches: outcome
    std::uint8_t memSize : 4 = 0; ///< loads/stores: access size in bytes

    bool isLoad() const { return cls == InstClass::Load; }
    bool isStore() const { return cls == InstClass::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isBranch() const { return cls == InstClass::Branch; }

    /** True when this record redirects the instruction stream. */
    bool
    changesFlow() const
    {
        switch (cls) {
          case InstClass::Jump:
          case InstClass::Call:
          case InstClass::Ret:
            return true;
          case InstClass::Branch:
            return taken;
          default:
            return false;
        }
    }

    /** The union member rules out a defaulted comparison. Reading the
     *  address field by either name, whichever was written, is union
     *  type punning, which GCC and Clang define. */
    bool
    operator==(const TraceRecord &other) const
    {
        return pc == other.pc && effAddr == other.effAddr &&
            immOffset == other.immOffset && srcA == other.srcA &&
            srcB == other.srcB && dst == other.dst && cls == other.cls &&
            taken == other.taken && memSize == other.memSize;
    }
};

static_assert(sizeof(TraceRecord) == 24,
              "TraceRecord must stay 24 bytes: every in-memory trace "
              "is a vector of them");

} // namespace clap

#endif // CLAP_TRACE_RECORD_HH
