/** @file Unit tests for the simulated heap and workload kernels. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "test_util.hh"
#include "trace/trace_stats.hh"
#include "workloads/array_kernels.hh"
#include "workloads/control_kernels.hh"
#include "workloads/misc_kernels.hh"
#include "workloads/rds_kernels.hh"

namespace clap
{
namespace
{

/** Harness that owns the kernel environment and collects records. */
class KernelHarness
{
  public:
    explicit KernelHarness(std::uint64_t seed = 1)
        : rng_(seed), heap_(rng_)
    {
        ctx_.rng = &rng_;
        ctx_.heap = &heap_;
        ctx_.stack = &stack_;
        ctx_.sink = &trace_;
        ctx_.codeBase = 0x08050000;
        ctx_.regBase = 1;
    }

    KernelContext &context() { return ctx_; }
    Trace &trace() { return trace_; }

    /** Loads of a given static PC, in program order. */
    std::vector<std::uint64_t>
    loadsAt(std::uint64_t pc) const
    {
        std::vector<std::uint64_t> addrs;
        for (const auto &rec : trace_.records()) {
            if (rec.isLoad() && rec.pc == pc)
                addrs.push_back(rec.effAddr);
        }
        return addrs;
    }

    /** All load records. */
    std::vector<TraceRecord>
    loads() const
    {
        std::vector<TraceRecord> out;
        for (const auto &rec : trace_.records()) {
            if (rec.isLoad())
                out.push_back(rec);
        }
        return out;
    }

  private:
    Rng rng_;
    SimHeap heap_;
    SimStack stack_;
    Trace trace_;
    KernelContext ctx_;
};

TEST(SimHeap, AllocationsAlignedAndDisjoint)
{
    Rng rng(1);
    SimHeap heap(rng);
    std::uint64_t prev_end = 0;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t addr = heap.alloc(24, 16);
        EXPECT_EQ(addr % 16, 0u);
        EXPECT_GE(addr, prev_end);
        prev_end = addr + 24;
    }
}

TEST(SimHeap, GlobalRegionSeparateFromHeap)
{
    Rng rng(1);
    SimHeap heap(rng);
    const std::uint64_t global = heap.allocGlobal(8);
    const std::uint64_t heap_obj = heap.alloc(8);
    EXPECT_GE(global, AddressSpace::globalBase);
    EXPECT_LT(global, AddressSpace::heapBase);
    EXPECT_GE(heap_obj, AddressSpace::heapBase);
}

TEST(SimStack, PushPopBalanced)
{
    SimStack stack;
    const std::uint64_t sp0 = stack.sp();
    const std::uint64_t frame = stack.push(32);
    EXPECT_LT(frame, sp0);
    EXPECT_EQ(stack.depth(), 1u);
    stack.pop(32);
    EXPECT_EQ(stack.sp(), sp0);
    EXPECT_EQ(stack.depth(), 0u);
}

TEST(LinkedListKernel, TraversalRepeatsSameChain)
{
    KernelHarness h;
    LinkedListKernel kernel({.numNodes = 8, .numDataFields = 1,
                             .mutateProb = 0.0});
    kernel.init(h.context());
    kernel.step();
    kernel.step();

    // The next-pointer load (slot 3 for 1 data field) must visit the
    // same 8 node addresses in both traversals.
    const auto next_loads = h.loadsAt(0x08050000 + 4 * 3);
    ASSERT_EQ(next_loads.size(), 16u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(next_loads[i], next_loads[i + 8]);
}

TEST(LinkedListKernel, FieldsShareBaseAddresses)
{
    KernelHarness h;
    LinkedListKernel kernel({.numNodes = 6, .numDataFields = 2,
                             .mutateProb = 0.0});
    kernel.init(h.context());
    kernel.step();

    // field0 (slot 1, imm 0), field1 (slot 2, imm 4), next (slot 4,
    // imm 8): same node base per iteration.
    const auto f0 = h.loadsAt(0x08050000 + 4 * 1);
    const auto f1 = h.loadsAt(0x08050000 + 4 * 2);
    const auto nx = h.loadsAt(0x08050000 + 4 * 4);
    ASSERT_EQ(f0.size(), 6u);
    ASSERT_EQ(f1.size(), 6u);
    ASSERT_EQ(nx.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(f1[i], f0[i] + 4);
        EXPECT_EQ(nx[i], f0[i] + 8);
    }
}

TEST(LinkedListKernel, PointerVariableLoadIsConstant)
{
    KernelHarness h;
    LinkedListKernel kernel({.numNodes = 5, .numDataFields = 1,
                             .mutateProb = 0.0});
    kernel.init(h.context());
    kernel.step();
    const auto ptr_loads = h.loadsAt(0x08050000 + 4 * 0);
    ASSERT_EQ(ptr_loads.size(), 5u);
    for (const auto addr : ptr_loads)
        EXPECT_EQ(addr, ptr_loads[0]);
}

TEST(LinkedListKernel, MutationChangesChain)
{
    KernelHarness h;
    LinkedListKernel kernel({.numNodes = 8, .numDataFields = 1,
                             .mutateProb = 1.0});
    kernel.init(h.context());
    const auto before = kernel.chain();
    kernel.step(); // mutates with probability 1
    EXPECT_NE(kernel.chain(), before);
}

TEST(LinkedListKernel, ChainIsNotStrided)
{
    KernelHarness h;
    LinkedListKernel kernel({.numNodes = 16, .numDataFields = 1,
                             .mutateProb = 0.0});
    kernel.init(h.context());
    const auto &chain = kernel.chain();
    std::set<std::int64_t> deltas;
    for (std::size_t i = 1; i < chain.size(); ++i)
        deltas.insert(static_cast<std::int64_t>(chain[i] - chain[i - 1]));
    EXPECT_GT(deltas.size(), 1u);
}

TEST(CallSiteKernel, SiteSequenceRecurs)
{
    KernelHarness h;
    CallSiteKernel kernel({.numSites = 3, .seqLen = 4,
                           .calleeLoads = 2, .noiseProb = 0.0});
    kernel.init(h.context());
    const auto seq = kernel.siteSequence();
    ASSERT_EQ(seq.size(), 4u);

    for (int i = 0; i < 8; ++i)
        kernel.step();
    // The first callee load (slot 16) visits the per-site block: its
    // address sequence must have period seqLen.
    const auto addrs = h.loadsAt(0x08050000 + 4 * 16);
    ASSERT_EQ(addrs.size(), 8u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(addrs[i], addrs[i + 4]);
}

TEST(CallSiteKernel, EmitsCallAndReturnRecords)
{
    KernelHarness h;
    CallSiteKernel kernel({.numSites = 2, .seqLen = 2,
                           .calleeLoads = 1, .noiseProb = 0.0});
    kernel.init(h.context());
    kernel.step();
    const auto stats = computeTraceStats(h.trace());
    EXPECT_EQ(stats.count(InstClass::Call), 1u);
    EXPECT_EQ(stats.count(InstClass::Ret), 1u);
}

TEST(StackFrameKernel, StableDepthGivesRecurringReloads)
{
    KernelHarness h;
    StackFrameKernel kernel({.maxDepth = 3, .savedRegs = 2,
                             .bodyAlu = 1});
    kernel.init(h.context());
    for (int i = 0; i < 30; ++i)
        kernel.step();

    // The outermost function's reload (slot 16, emitted on
    // full-depth invocations) must always reload from the same frame
    // address.
    const auto addrs = h.loadsAt(0x08050000 + 4 * 16);
    ASSERT_GE(addrs.size(), 10u);
    for (const auto addr : addrs)
        EXPECT_EQ(addr, addrs[0]);
}

TEST(StrideArrayKernel, EmitsConstantStride)
{
    KernelHarness h;
    StrideArrayKernel kernel({.numArrays = 1, .numElems = 128,
                              .elemSize = 8, .chunk = 32});
    kernel.init(h.context());
    kernel.step();
    const auto addrs = h.loadsAt(0x08050000 + 4 * 1);
    ASSERT_EQ(addrs.size(), 32u);
    for (std::size_t i = 1; i < addrs.size(); ++i)
        EXPECT_EQ(addrs[i] - addrs[i - 1], 8u);
}

TEST(StrideArrayKernel, WrapsAtArrayEnd)
{
    KernelHarness h;
    StrideArrayKernel kernel({.numArrays = 1, .numElems = 16,
                              .elemSize = 4, .chunk = 40});
    kernel.init(h.context());
    kernel.step();
    const auto addrs = h.loadsAt(0x08050000 + 4 * 1);
    ASSERT_EQ(addrs.size(), 40u);
    EXPECT_EQ(addrs[16], addrs[0]);
    EXPECT_EQ(addrs[35], addrs[3]);
}

TEST(MatrixKernel, ColumnWalkUsesRowPitch)
{
    KernelHarness h;
    MatrixKernel kernel({.rows = 8, .cols = 16, .elemSize = 4,
                         .chunk = 8});
    kernel.init(h.context());
    kernel.step();
    const auto addrs = h.loadsAt(0x08050000 + 4 * 1);
    ASSERT_EQ(addrs.size(), 8u);
    for (std::size_t i = 1; i < addrs.size(); ++i)
        EXPECT_EQ(addrs[i] - addrs[i - 1], 16u * 4);
}

TEST(RepeatedBurstKernel, PatternRepeatsExactly)
{
    KernelHarness h;
    RepeatedBurstKernel kernel({.numRuns = 3, .runLen = 5,
                                .stride = 2});
    kernel.init(h.context());
    kernel.step();
    kernel.step();
    const auto addrs = h.loadsAt(0x08050000 + 4 * 1);
    ASSERT_EQ(addrs.size(), 30u);
    for (int i = 0; i < 15; ++i)
        EXPECT_EQ(addrs[i], addrs[i + 15]);
    // Within a run the stride is 2; across runs it is not.
    EXPECT_EQ(addrs[1] - addrs[0], 2u);
    EXPECT_NE(addrs[5] - addrs[4], 2u);
}

TEST(GlobalScalarKernel, EachStaticLoadConstant)
{
    KernelHarness h;
    GlobalScalarKernel kernel({.numGlobals = 4, .readsPerStep = 16});
    kernel.init(h.context());
    kernel.step();
    for (unsigned g = 0; g < 4; ++g) {
        const auto addrs = h.loadsAt(0x08050000 + 4 * g);
        ASSERT_EQ(addrs.size(), 4u) << "global " << g;
        for (const auto addr : addrs)
            EXPECT_EQ(addr, addrs[0]);
    }
}

TEST(HashTableKernel, BucketLoadsCoverTable)
{
    KernelHarness h;
    HashTableKernel kernel({.numBuckets = 64, .numEntries = 128,
                            .probesPerStep = 32, .hotKeyProb = 0.0,
                            .hotKeys = 0});
    kernel.init(h.context());
    for (int i = 0; i < 10; ++i)
        kernel.step();
    const auto bucket_loads = h.loadsAt(0x08050000 + 4 * 1);
    ASSERT_EQ(bucket_loads.size(), 320u);
    std::set<std::uint64_t> distinct(bucket_loads.begin(),
                                     bucket_loads.end());
    EXPECT_GT(distinct.size(), 40u); // most buckets touched
}

TEST(BinaryTreeKernel, SearchesVisitRootFirst)
{
    KernelHarness h;
    BinaryTreeKernel kernel({.numNodes = 15, .keyPeriod = 3,
                             .randomKeyProb = 0.0});
    kernel.init(h.context());
    for (int i = 0; i < 6; ++i)
        kernel.step();
    // Root-pointer load (slot 0): constant address.
    const auto root_loads = h.loadsAt(0x08050000 + 4 * 0);
    ASSERT_EQ(root_loads.size(), 6u);
    for (const auto addr : root_loads)
        EXPECT_EQ(addr, root_loads[0]);
    // Key loads (slot 1) recur with period keyPeriod searches.
    const auto key_loads = h.loadsAt(0x08050000 + 4 * 1);
    EXPECT_EQ(key_loads.size() % 2, 0u); // two identical halves
    const std::size_t half = key_loads.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        EXPECT_EQ(key_loads[i], key_loads[i + half]);
}

TEST(ArrayListKernel, GoStyleImmediateIsArrayBase)
{
    KernelHarness h;
    ArrayListKernel kernel({.numElems = 32, .numLists = 1,
                            .listLen = 8});
    kernel.init(h.context());
    kernel.step();
    const auto loads = h.loads();
    ASSERT_FALSE(loads.empty());
    for (const auto &rec : loads) {
        // Every load's effective address sits inside the array that
        // its immediate names: 0 <= addr - imm < 4*numElems.
        const std::uint64_t imm =
            static_cast<std::uint32_t>(rec.immOffset);
        EXPECT_GE(rec.effAddr, imm);
        EXPECT_LT(rec.effAddr, imm + 4 * 32);
    }
}

TEST(Kernels, PointerChaseLoadsAreRegisterDependent)
{
    KernelHarness h;
    LinkedListKernel kernel({.numNodes = 4, .numDataFields = 1,
                             .mutateProb = 0.0});
    kernel.init(h.context());
    kernel.step();
    // The next-pointer load reads and writes the same register.
    for (const auto &rec : h.trace().records()) {
        if (rec.isLoad() && rec.pc == 0x08050000 + 4 * 3)
            EXPECT_EQ(rec.srcA, rec.dst);
    }
}

TEST(Kernels, VariantsMultiplyStaticLoads)
{
    KernelHarness h1;
    KernelHarness h8;
    GlobalScalarKernel k1({.numGlobals = 4, .readsPerStep = 16});
    GlobalScalarKernel k8({.numGlobals = 4, .readsPerStep = 16});
    h1.context().codeVariants = 1;
    h8.context().codeVariants = 8;
    k1.init(h1.context());
    k8.init(h8.context());
    for (int i = 0; i < 50; ++i) {
        k1.step();
        k8.step();
    }
    const auto s1 = computeTraceStats(h1.trace());
    const auto s8 = computeTraceStats(h8.trace());
    EXPECT_GT(s8.staticLoads, 3 * s1.staticLoads);
}

TEST(Emitter, RejectsAccessSizeTheRecordCannotHold)
{
    KernelHarness h;
    Emitter em(h.context());
    em.load(0, 0x1000, 0, 1, 0, TraceRecord::maxMemSize);
    em.store(1, 0x1000, 0, 1, 0, TraceRecord::maxMemSize);
    ASSERT_EQ(h.trace().size(), 2u);
    EXPECT_EQ(h.trace()[0].memSize, TraceRecord::maxMemSize);
    EXPECT_EQ(h.trace()[1].memSize, TraceRecord::maxMemSize);

    // One past the 4-bit field would silently wrap to 0.
    EXPECT_THROW(em.load(2, 0x1000, 0, 1, 0, 16), std::invalid_argument);
    EXPECT_THROW(em.store(3, 0x1000, 0, 1, 0, 255),
                 std::invalid_argument);
    EXPECT_EQ(h.trace().size(), 2u);
}

} // namespace
} // namespace clap
