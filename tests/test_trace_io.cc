/** @file Unit tests for binary trace file I/O. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "test_util.hh"
#include "trace/trace_io.hh"

namespace clap
{
namespace
{

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("clap_trace_io_test_" +
                  std::to_string(::getpid()) + ".trc"))
                    .string();
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

/** One record of every kind the workload Emitter produces (alu,
 *  load, branch, store, call, ret), each with every field its kind
 *  uses set to a nonzero value. */
Trace
sampleTrace()
{
    Trace trace("sample");
    TraceRecord rec;
    rec.pc = 0x0804800c;
    rec.cls = InstClass::Alu;
    rec.dst = 5;
    rec.srcA = 6;
    rec.srcB = 7;
    trace.append(rec);

    rec = TraceRecord{};
    rec.pc = 0x08048010;
    rec.cls = InstClass::Load;
    rec.effAddr = 0x10000020;
    rec.immOffset = -8;
    rec.srcA = 3;
    rec.dst = 4;
    rec.memSize = 4;
    trace.append(rec);

    rec = TraceRecord{};
    rec.pc = 0x08048014;
    rec.cls = InstClass::Branch;
    rec.taken = true;
    rec.target = 0x08048000;
    trace.append(rec);

    rec = TraceRecord{};
    rec.pc = 0x08048018;
    rec.cls = InstClass::Store;
    rec.effAddr = 0xbfff0000;
    rec.srcA = 1;
    rec.srcB = 2;
    rec.memSize = 8;
    trace.append(rec);

    rec = TraceRecord{};
    rec.pc = 0x0804801c;
    rec.cls = InstClass::Call;
    rec.target = 0x08049000;
    trace.append(rec);

    rec = TraceRecord{};
    rec.pc = 0x08049004;
    rec.cls = InstClass::Ret;
    trace.append(rec);
    return trace;
}

TEST_F(TraceIoTest, RoundTripPreservesEverything)
{
    const Trace original = sampleTrace();
    ASSERT_TRUE(writeTrace(original, path_));

    Trace loaded;
    ASSERT_TRUE(readTrace(path_, loaded));
    EXPECT_EQ(loaded.name(), "sample");
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips)
{
    Trace empty("empty");
    ASSERT_TRUE(writeTrace(empty, path_));
    Trace loaded;
    ASSERT_TRUE(readTrace(path_, loaded));
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_EQ(loaded.name(), "empty");
}

TEST_F(TraceIoTest, MissingFileFails)
{
    Trace loaded;
    EXPECT_FALSE(readTrace("/nonexistent/dir/file.trc", loaded));
}

TEST_F(TraceIoTest, BadMagicFails)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("NOTATRACEFILE_AT_ALL", 1, 20, f);
    std::fclose(f);

    Trace loaded;
    EXPECT_FALSE(readTrace(path_, loaded));
    EXPECT_EQ(loaded.size(), 0u);
}

TEST_F(TraceIoTest, TruncatedFileFails)
{
    const Trace original = sampleTrace();
    ASSERT_TRUE(writeTrace(original, path_));

    // Chop the last 10 bytes off.
    const auto full = std::filesystem::file_size(path_);
    std::filesystem::resize_file(path_, full - 10);

    Trace loaded;
    EXPECT_FALSE(readTrace(path_, loaded));
    EXPECT_EQ(loaded.size(), 0u);
}

TEST_F(TraceIoTest, StreamingWriterMatchesBulkWriter)
{
    const Trace original = sampleTrace();
    {
        TraceFileWriter writer(path_, "sample");
        ASSERT_TRUE(writer.ok());
        for (const auto &rec : original.records())
            writer.append(rec);
        EXPECT_EQ(writer.size(), original.size());
        ASSERT_TRUE(writer.close());
    }
    Trace loaded;
    ASSERT_TRUE(readTrace(path_, loaded));
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]);
}

TEST_F(TraceIoTest, WriterToUnwritablePathReportsError)
{
    TraceFileWriter writer("/nonexistent/dir/file.trc", "x");
    EXPECT_FALSE(writer.ok());
    writer.append(TraceRecord{}); // must not crash
    EXPECT_FALSE(writer.close());
}

TEST_F(TraceIoTest, LargeTraceRoundTrips)
{
    Trace big("big");
    for (unsigned i = 0; i < 10000; ++i)
        test::addLoad(big, 0x1000 + 4 * (i % 64), 0x10000000 + 8 * i);
    ASSERT_TRUE(writeTrace(big, path_));
    Trace loaded;
    ASSERT_TRUE(readTrace(path_, loaded));
    ASSERT_EQ(loaded.size(), big.size());
    EXPECT_EQ(loaded[9999], big[9999]);
}

} // namespace
} // namespace clap
