/**
 * @file
 * Workload-kernel framework. A Kernel is a small synthetic program
 * fragment that owns simulated data structures and emits trace records
 * when stepped. The TraceComposer interleaves several kernels into one
 * trace, mimicking a real program alternating between activities.
 *
 * Kernels emit *complete* instruction sequences (address computation,
 * compares, branches around loops, calls/returns), not just loads, so
 * that the timing simulator sees realistic dependency chains: in a
 * pointer chase the next load's address register is the previous
 * load's destination, which is exactly why the paper argues address
 * prediction is the enabler for parallel execution on RDS code
 * (section 2, footnote 2).
 */

#ifndef CLAP_WORKLOADS_KERNEL_HH
#define CLAP_WORKLOADS_KERNEL_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "trace/trace.hh"
#include "workloads/sim_heap.hh"

namespace clap
{

/**
 * Environment handed to a kernel at initialization: shared RNG, heap,
 * stack, the sink to emit into, and the kernel's private code region
 * and architectural register range.
 */
struct KernelContext
{
    Rng *rng = nullptr;
    SimHeap *heap = nullptr;
    SimStack *stack = nullptr;
    TraceSink *sink = nullptr;
    std::uint64_t codeBase = AddressSpace::codeBase;
    std::uint8_t regBase = 1;   ///< first register id owned by kernel
    std::uint8_t regCount = 16; ///< number of registers owned

    /**
     * Number of static code copies of the kernel (think inlining /
     * unrolled call sites). Each step randomly executes one copy;
     * all copies share the kernel's data structures. Raising this
     * multiplies the static-load count — the knob behind the paper's
     * "applications featuring a higher number of static loads"
     * (CAD, JAVA, NT, TPC, W95 in figure 6).
     */
    unsigned codeVariants = 1;
};

/**
 * Helper that formats and appends trace records. Static instructions
 * are identified by small per-kernel slot numbers; slot s maps to
 * pc = codeBase + 4*s, so each kernel's static loads have stable PCs
 * across the whole trace (a prerequisite for per-static-load
 * prediction).
 */
class Emitter
{
  public:
    Emitter() = default;
    explicit Emitter(const KernelContext &ctx)
        : sink_(ctx.sink), codeBase_(ctx.codeBase)
    {}

    /** Select which static code copy subsequent slots map into. */
    void setVariant(unsigned variant) { variant_ = variant; }

    /** PC of static slot @p slot in the current code variant. */
    std::uint64_t
    pc(unsigned slot) const
    {
        return codeBase_ + variantStride * variant_ + 4 * slot;
    }

    /** Simple one-cycle ALU op. */
    void
    alu(unsigned slot, std::uint8_t dst, std::uint8_t src_a = 0,
        std::uint8_t src_b = 0)
    {
        TraceRecord rec;
        rec.pc = pc(slot);
        rec.cls = InstClass::Alu;
        rec.dst = dst;
        rec.srcA = src_a;
        rec.srcB = src_b;
        sink_->append(rec);
    }

    /**
     * Load from simulated address @p addr with opcode immediate
     * @p imm. @p addr_reg is the register holding the base (creates
     * the dependency), @p dst receives the loaded value.
     * @throws std::invalid_argument if @p size exceeds
     *         TraceRecord::maxMemSize.
     */
    void
    load(unsigned slot, std::uint64_t addr, std::int32_t imm,
         std::uint8_t dst, std::uint8_t addr_reg = 0,
         std::uint8_t size = 4)
    {
        TraceRecord rec;
        rec.pc = pc(slot);
        rec.cls = InstClass::Load;
        rec.effAddr = addr;
        rec.immOffset = imm;
        rec.dst = dst;
        rec.srcA = addr_reg;
        rec.memSize = checkedMemSize(size);
        sink_->append(rec);
    }

    /** Store of @p val_reg to simulated address @p addr.
     *  @throws std::invalid_argument like load(). */
    void
    store(unsigned slot, std::uint64_t addr, std::int32_t imm,
          std::uint8_t val_reg, std::uint8_t addr_reg = 0,
          std::uint8_t size = 4)
    {
        TraceRecord rec;
        rec.pc = pc(slot);
        rec.cls = InstClass::Store;
        rec.effAddr = addr;
        rec.immOffset = imm;
        rec.srcA = val_reg;
        rec.srcB = addr_reg;
        rec.memSize = checkedMemSize(size);
        sink_->append(rec);
    }

    /** Conditional branch at @p slot targeting @p target_slot. */
    void
    branch(unsigned slot, bool taken, unsigned target_slot,
           std::uint8_t cond_reg = 0)
    {
        TraceRecord rec;
        rec.pc = pc(slot);
        rec.cls = InstClass::Branch;
        rec.taken = taken;
        rec.target = pc(target_slot);
        rec.srcA = cond_reg;
        sink_->append(rec);
    }

    /** Call from @p slot to absolute target PC @p target_pc. */
    void
    call(unsigned slot, std::uint64_t target_pc)
    {
        TraceRecord rec;
        rec.pc = pc(slot);
        rec.cls = InstClass::Call;
        rec.target = target_pc;
        sink_->append(rec);
    }

    /** Return executed at @p slot. */
    void
    ret(unsigned slot)
    {
        TraceRecord rec;
        rec.pc = pc(slot);
        rec.cls = InstClass::Ret;
        sink_->append(rec);
    }

  private:
    /** @p size, if the record's 4-bit memSize field can hold it. */
    static std::uint8_t
    checkedMemSize(std::uint8_t size)
    {
        if (size > TraceRecord::maxMemSize) {
            throw std::invalid_argument(
                "access size " + std::to_string(size) +
                " exceeds the trace record's limit of " +
                std::to_string(TraceRecord::maxMemSize) + " bytes");
        }
        return size;
    }

    /** Byte distance between code variants (256 slots each). */
    static constexpr std::uint64_t variantStride = 0x400;

    TraceSink *sink_ = nullptr;
    std::uint64_t codeBase_ = 0;
    unsigned variant_ = 0;
};

/**
 * Base class for workload kernels. Lifecycle: construct with
 * parameters, init() once with the context (build data structures),
 * then step() repeatedly; each step emits one bounded unit of work.
 */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Bind to a context and build the kernel's data structures. */
    virtual void init(KernelContext &ctx) = 0;

    /** Emit one unit of work (roughly 10..300 instructions). */
    virtual void step() = 0;

    /** Kernel family name for diagnostics. */
    virtual std::string name() const = 0;

  protected:
    /** Stash the parts of the context kernels always need. */
    void
    bind(KernelContext &ctx)
    {
        rng_ = ctx.rng;
        heap_ = ctx.heap;
        stack_ = ctx.stack;
        emit_ = Emitter(ctx);
        regBase_ = ctx.regBase;
        regCount_ = ctx.regCount;
        codeVariants_ = ctx.codeVariants;
    }

    /**
     * Select a random code variant for this step. Every kernel calls
     * this at the top of step().
     */
    void
    pickVariant()
    {
        if (codeVariants_ > 1)
            emit_.setVariant(
                static_cast<unsigned>(rng_->below(codeVariants_)));
    }

    /** The kernel's @p i-th private register. */
    std::uint8_t
    reg(unsigned i) const
    {
        return static_cast<std::uint8_t>(regBase_ + i % regCount_);
    }

    Rng *rng_ = nullptr;
    SimHeap *heap_ = nullptr;
    SimStack *stack_ = nullptr;
    Emitter emit_;
    std::uint8_t regBase_ = 1;
    std::uint8_t regCount_ = 16;
    unsigned codeVariants_ = 1;
};

} // namespace clap

#endif // CLAP_WORKLOADS_KERNEL_HH
