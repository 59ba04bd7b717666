/** @file Unit tests for trace records, containers and statistics. */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "trace/trace.hh"
#include "trace/trace_stats.hh"

namespace clap
{
namespace
{

TEST(TraceRecord, ClassPredicates)
{
    TraceRecord rec;
    rec.cls = InstClass::Load;
    EXPECT_TRUE(rec.isLoad());
    EXPECT_TRUE(rec.isMem());
    EXPECT_FALSE(rec.isStore());
    EXPECT_FALSE(rec.isBranch());

    rec.cls = InstClass::Store;
    EXPECT_TRUE(rec.isStore());
    EXPECT_TRUE(rec.isMem());

    rec.cls = InstClass::Branch;
    EXPECT_TRUE(rec.isBranch());
    EXPECT_FALSE(rec.isMem());
}

TEST(TraceRecord, ChangesFlow)
{
    TraceRecord rec;
    rec.cls = InstClass::Alu;
    EXPECT_FALSE(rec.changesFlow());

    rec.cls = InstClass::Jump;
    EXPECT_TRUE(rec.changesFlow());
    rec.cls = InstClass::Call;
    EXPECT_TRUE(rec.changesFlow());
    rec.cls = InstClass::Ret;
    EXPECT_TRUE(rec.changesFlow());

    rec.cls = InstClass::Branch;
    rec.taken = false;
    EXPECT_FALSE(rec.changesFlow());
    rec.taken = true;
    EXPECT_TRUE(rec.changesFlow());
}

TEST(TraceRecord, PackedFieldsHoldTheirFullRange)
{
    // cls, taken and memSize share one byte: each must hold its
    // largest value without disturbing its neighbours.
    TraceRecord rec;
    rec.cls = InstClass::Ret;
    rec.memSize = TraceRecord::maxMemSize;
    rec.taken = true;
    EXPECT_EQ(rec.cls, InstClass::Ret);
    EXPECT_EQ(rec.memSize, TraceRecord::maxMemSize);
    EXPECT_TRUE(rec.taken);
    rec.taken = false;
    EXPECT_EQ(rec.cls, InstClass::Ret);
    EXPECT_EQ(rec.memSize, TraceRecord::maxMemSize);
    rec.cls = InstClass::Alu;
    rec.memSize = 0;
    EXPECT_FALSE(rec.taken);
    EXPECT_EQ(rec, TraceRecord{});
}

TEST(TraceRecord, EffAddrAndTargetShareTheAddressField)
{
    TraceRecord branch;
    branch.cls = InstClass::Branch;
    branch.target = 0x08048000;
    EXPECT_EQ(branch.effAddr, 0x08048000u);

    TraceRecord other = branch;
    other.target = 0x08048004;
    EXPECT_NE(other, branch);
}

TEST(TraceRecord, ClassNamesAreDistinct)
{
    EXPECT_STREQ(instClassName(InstClass::Load), "load");
    EXPECT_STREQ(instClassName(InstClass::Branch), "branch");
    EXPECT_STRNE(instClassName(InstClass::Alu),
                 instClassName(InstClass::Store));
}

TEST(Trace, AppendAndIndex)
{
    Trace trace("t");
    EXPECT_EQ(trace.size(), 0u);
    test::addLoad(trace, 0x100, 0x2000);
    test::addLoad(trace, 0x104, 0x3000);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].effAddr, 0x2000u);
    EXPECT_EQ(trace[1].pc, 0x104u);
    EXPECT_EQ(trace.name(), "t");
}

TEST(TraceCursor, IteratesAndRewinds)
{
    Trace trace("t");
    test::addLoad(trace, 0x100, 0x2000);
    test::addLoad(trace, 0x104, 0x3000);

    TraceCursor cursor(trace);
    TraceRecord rec;
    ASSERT_TRUE(cursor.next(rec));
    EXPECT_EQ(rec.effAddr, 0x2000u);
    ASSERT_TRUE(cursor.next(rec));
    EXPECT_EQ(rec.effAddr, 0x3000u);
    EXPECT_FALSE(cursor.next(rec));

    cursor.rewind();
    ASSERT_TRUE(cursor.next(rec));
    EXPECT_EQ(rec.effAddr, 0x2000u);
}

TEST(TraceCursor, PeekDoesNotAdvance)
{
    Trace trace("t");
    test::addLoad(trace, 0x100, 0x2000);
    test::addLoad(trace, 0x104, 0x3000);

    TraceCursor cursor(trace);
    const TraceRecord *head = cursor.peek();
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->effAddr, 0x2000u);
    EXPECT_EQ(cursor.peek(), head); // still the same record
    EXPECT_EQ(cursor.position(), 0u);

    cursor.advance();
    ASSERT_NE(cursor.peek(), nullptr);
    EXPECT_EQ(cursor.peek()->effAddr, 0x3000u);
    cursor.advance();
    EXPECT_EQ(cursor.peek(), nullptr);
}

TEST(TraceCursor, PeekPointsIntoTheTraceStorage)
{
    // The zero-copy contract: peek() hands out the trace's own
    // record, not a copy.
    Trace trace("t");
    test::addLoad(trace, 0x100, 0x2000);
    TraceCursor cursor(trace);
    EXPECT_EQ(cursor.peek(), &trace[0]);
}

TEST(TraceCursor, RemainingExposesTheUnconsumedTail)
{
    Trace trace("t");
    test::addLoad(trace, 0x100, 0x2000);
    test::addLoad(trace, 0x104, 0x3000);
    test::addLoad(trace, 0x108, 0x4000);

    TraceCursor cursor(trace);
    EXPECT_EQ(cursor.remaining().size(), 3u);
    EXPECT_EQ(cursor.remaining().data(), trace.records().data());

    cursor.advance();
    const std::span<const TraceRecord> tail = cursor.remaining();
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].effAddr, 0x3000u);
    EXPECT_EQ(tail[1].effAddr, 0x4000u);

    cursor.advance();
    cursor.advance();
    EXPECT_TRUE(cursor.remaining().empty());

    cursor.rewind();
    EXPECT_EQ(cursor.remaining().size(), 3u);
}

TEST(Trace, ReserveIsRelativeToCurrentSize)
{
    Trace trace("t");
    test::addLoad(trace, 0x100, 0x2000);
    trace.reserve(10); // room for 10 *more* records
    EXPECT_GE(trace.records().capacity(), 11u);
}

TEST(TraceStats, CountsClassesAndStatics)
{
    Trace trace("t");
    test::addLoad(trace, 0x100, 0x2000);
    test::addLoad(trace, 0x100, 0x2004); // same static load
    test::addLoad(trace, 0x104, 0x3000);
    test::addBranch(trace, 0x108, true);
    test::addBranch(trace, 0x108, false);

    const TraceStats stats = computeTraceStats(trace);
    EXPECT_EQ(stats.totalInsts, 5u);
    EXPECT_EQ(stats.loads(), 3u);
    EXPECT_EQ(stats.branches(), 2u);
    EXPECT_EQ(stats.staticLoads, 2u);
    EXPECT_EQ(stats.staticInsts, 3u);
    EXPECT_EQ(stats.takenBranches, 1u);
    EXPECT_DOUBLE_EQ(stats.takenRate(), 0.5);
    EXPECT_DOUBLE_EQ(stats.loadFraction(), 0.6);
}

TEST(TraceStats, EmptyTrace)
{
    Trace trace("e");
    const TraceStats stats = computeTraceStats(trace);
    EXPECT_EQ(stats.totalInsts, 0u);
    EXPECT_EQ(stats.loadFraction(), 0.0);
    EXPECT_EQ(stats.takenRate(), 0.0);
}

} // namespace
} // namespace clap
