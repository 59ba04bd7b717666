/**
 * @file
 * Corruption-hardening tests for the trace file format: every way a
 * file can be damaged (magic, version, count, name length, record
 * class, mid-record truncation, CRC footer) must yield the exact
 * typed Error — never an assert, abort, over-allocation, or UB — and
 * salvage mode must recover the valid record prefix. Also covers
 * v1 -> v2 compatibility and the writer's no-partial-file guarantee.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "test_util.hh"
#include "trace/trace_io.hh"
#include "util/atomic_file.hh"
#include "util/bytes.hh"

namespace clap
{
namespace
{

// On-disk layout constants for the sample file below (name "sample"):
// fixed header 24 bytes + 6 name bytes, then 40-byte records.
constexpr std::size_t headerBytes = 24 + 6;
constexpr std::size_t recordBytes = 40;
constexpr std::size_t numRecords = 5;

class TraceCorruptionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("clap_trace_corruption_" +
                  std::to_string(::getpid()) + ".trc"))
                    .string();
        Trace trace("sample");
        for (unsigned i = 0; i < numRecords; ++i)
            test::addLoad(trace, 0x1000 + 4 * i, 0x2000 + 8 * i);
        ASSERT_TRUE(writeTrace(trace, path_, {}));
        reference_ = trace;
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Overwrite @p len bytes at @p offset. */
    void
    patch(std::size_t offset, const std::vector<std::uint8_t> &bytes)
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

    void
    truncateTo(std::size_t size)
    {
        std::filesystem::resize_file(path_, size);
    }

    std::size_t fileSize() const
    {
        return std::filesystem::file_size(path_);
    }

    std::string path_;
    Trace reference_;
};

/** One corruption scenario and the Error it must produce. */
struct CorruptionCase
{
    const char *label;
    std::size_t offset;                ///< patch location
    std::vector<std::uint8_t> bytes;   ///< patch payload
    ErrorCode expected;
    std::uint32_t version = traceFormatVersion; ///< of the sample file
};

/**
 * Print a case by its patch offset and expected code (and its format
 * version when not the current one). Without this gtest dumps the raw
 * struct bytes, which include the label pointer, so the listed test
 * names (and thus the ctest names) would change with every run under
 * ASLR.
 */
void
PrintTo(const CorruptionCase &c, std::ostream *os)
{
    *os << '@' << c.offset << ' ' << errorCodeName(c.expected);
    if (c.version != traceFormatVersion)
        *os << " v" << c.version;
}

// Field offsets inside a 40-byte on-disk record.
constexpr std::size_t targetField = 16;
constexpr std::size_t classField = 28;
constexpr std::size_t memSizeField = 32;

/** Start of record 2 of the sample file: a load with a nonzero
 *  effAddr and a zero target. */
constexpr std::size_t record2 = headerBytes + 2 * recordBytes;

const CorruptionCase corruptionCases[] = {
    {"flipped magic byte", 0, {'X'}, ErrorCode::BadMagic},
    {"zeroed magic", 0, {0, 0, 0, 0, 0, 0, 0, 0}, ErrorCode::BadMagic},
    {"unsupported version 99", 8, {99, 0, 0, 0}, ErrorCode::BadVersion},
    {"version zero", 8, {0, 0, 0, 0}, ErrorCode::BadVersion},
    // Count field (offset 12, u64): header promises far more records
    // than the file holds -> must be caught BEFORE any reserve().
    {"huge count", 12, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
     ErrorCode::Truncated},
    {"count one too many", 12, {numRecords + 1, 0, 0, 0, 0, 0, 0, 0},
     ErrorCode::Truncated},
    // Name length (offset 20, u32): out of sanity bounds -> must be
    // caught BEFORE the std::string allocation.
    {"huge name_len", 20, {0xff, 0xff, 0xff, 0xff},
     ErrorCode::BadHeader},
    {"name_len just over bound", 20, {0x01, 0x10, 0, 0},
     ErrorCode::BadHeader},
    // Class byte of record 2 (byte 28 of the record).
    {"invalid class byte", headerBytes + recordBytes + 28, {0xee},
     ErrorCode::BadRecord},
    {"class = NumClasses", headerBytes + recordBytes + 28,
     {static_cast<std::uint8_t>(numInstClasses)}, ErrorCode::BadRecord},
    // Records the 24-byte in-memory TraceRecord cannot hold: it has
    // one address field (effAddr for loads/stores, target otherwise)
    // and a 4-bit memSize. The CRC is valid (see below), so the
    // record rule is what fails.
    {"load with target v1", record2 + targetField, {0x01},
     ErrorCode::BadRecord, traceFormatVersionV1},
    {"load with target v2", record2 + targetField, {0x01},
     ErrorCode::BadRecord},
    {"branch with effAddr v1", record2 + classField,
     {static_cast<std::uint8_t>(InstClass::Branch)}, ErrorCode::BadRecord,
     traceFormatVersionV1},
    {"branch with effAddr v2", record2 + classField,
     {static_cast<std::uint8_t>(InstClass::Branch)},
     ErrorCode::BadRecord},
    {"memSize 16 v1", record2 + memSizeField, {16}, ErrorCode::BadRecord,
     traceFormatVersionV1},
    {"memSize 16 v2", record2 + memSizeField, {16}, ErrorCode::BadRecord},
    // Payload corruption that keeps the class byte valid is caught by
    // the CRC-32 footer.
    {"flipped payload byte", headerBytes + 2 * recordBytes + 3, {0xab},
     ErrorCode::BadChecksum},
    {"corrupt CRC footer", headerBytes + numRecords * recordBytes,
     {0xde, 0xad, 0xbe, 0xef}, ErrorCode::BadChecksum},
};

class CorruptionCaseTest
    : public TraceCorruptionTest,
      public ::testing::WithParamInterface<CorruptionCase>
{
};

TEST_P(CorruptionCaseTest, ReturnsTypedError)
{
    const CorruptionCase &c = GetParam();
    if (c.version != traceFormatVersion) {
        TraceWriteOptions options;
        options.version = c.version;
        ASSERT_TRUE(writeTrace(reference_, path_, options));
    }
    patch(c.offset, c.bytes);
    const bool bad_record = c.expected == ErrorCode::BadRecord;
    if (bad_record && c.version == traceFormatVersion) {
        // Re-seal the footer over the patched records, so the read
        // fails on the record itself and not on its checksum.
        auto bytes = readFileBytes(path_);
        ASSERT_TRUE(bytes) << bytes.error().str();
        ByteWriter footer;
        footer.u32(crc32(bytes->data() + headerBytes,
                         numRecords * recordBytes));
        patch(headerBytes + numRecords * recordBytes,
              {footer.buffer().begin(), footer.buffer().end()});
    }

    Trace loaded;
    const auto result = readTrace(path_, loaded, TraceReadOptions{});
    ASSERT_FALSE(result) << c.label;
    EXPECT_EQ(result.error().code(), c.expected)
        << c.label << ": " << result.error().str();
    EXPECT_FALSE(result.error().message().empty());
    // The diagnostic names the file.
    EXPECT_NE(result.error().str().find(path_), std::string::npos);
    // The output trace is left empty, and the bool API agrees.
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_FALSE(readTrace(path_, loaded));
    if (!bad_record)
        return;

    // A bad record is named by its index, and salvage keeps every
    // record before it.
    const std::size_t index = (c.offset - headerBytes) / recordBytes;
    EXPECT_NE(result.error().message().find(
                  "record " + std::to_string(index) + " "),
              std::string::npos)
        << result.error().message();
    const auto salvaged = salvageTrace(path_, loaded);
    ASSERT_TRUE(salvaged) << salvaged.error().str();
    EXPECT_TRUE(salvaged->salvaged);
    EXPECT_EQ(salvaged->version, c.version);
    ASSERT_EQ(loaded.size(), index);
    for (std::size_t i = 0; i < index; ++i)
        EXPECT_EQ(loaded[i], reference_[i]) << "record " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CorruptionCaseTest, ::testing::ValuesIn(corruptionCases),
    [](const ::testing::TestParamInfo<CorruptionCase> &info) {
        std::string name = info.param.label;
        for (auto &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

TEST_F(TraceCorruptionTest, TruncationMidRecordIsTyped)
{
    truncateTo(headerBytes + 2 * recordBytes + 7);
    Trace loaded;
    const auto result = readTrace(path_, loaded, TraceReadOptions{});
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::Truncated);
}

TEST_F(TraceCorruptionTest, TruncationInsideHeaderIsTyped)
{
    truncateTo(10);
    Trace loaded;
    const auto result = readTrace(path_, loaded, TraceReadOptions{});
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::Truncated);
}

TEST_F(TraceCorruptionTest, MissingFileIsIoError)
{
    Trace loaded;
    const auto result =
        readTrace("/nonexistent/dir/file.trc", loaded, TraceReadOptions{});
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::IoError);
}

TEST_F(TraceCorruptionTest, SalvageRecoversTruncatedPrefix)
{
    // Chop the file mid-record 3: records 0..2 survive.
    truncateTo(headerBytes + 3 * recordBytes + 11);
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_TRUE(result->salvaged);
    EXPECT_EQ(result->declared, numRecords);
    EXPECT_EQ(result->records, 3u);
    ASSERT_EQ(loaded.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(loaded[i], reference_[i]) << "record " << i;
}

TEST_F(TraceCorruptionTest, SalvageStopsAtInvalidClassByte)
{
    patch(headerBytes + 2 * recordBytes + 28, {0xee});
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_TRUE(result->salvaged);
    EXPECT_EQ(result->records, 2u);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[1], reference_[1]);
}

TEST_F(TraceCorruptionTest, SalvageKeepsRecordsOnChecksumMismatch)
{
    // All records decodable, only the footer is wrong: salvage keeps
    // everything but flags the damage.
    patch(headerBytes + numRecords * recordBytes,
          {0xde, 0xad, 0xbe, 0xef});
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_TRUE(result->salvaged);
    EXPECT_EQ(loaded.size(), numRecords);
}

TEST_F(TraceCorruptionTest, SalvageCannotRecoverHeaderDamage)
{
    patch(0, {'X'});
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::BadMagic);
}

TEST_F(TraceCorruptionTest, CleanFileIsNotSalvaged)
{
    Trace loaded;
    const auto result = salvageTrace(path_, loaded);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_FALSE(result->salvaged);
    EXPECT_EQ(result->records, numRecords);
    EXPECT_EQ(result->version, traceFormatVersion);
}

TEST_F(TraceCorruptionTest, V1FileStillLoads)
{
    TraceWriteOptions v1;
    v1.version = traceFormatVersionV1;
    ASSERT_TRUE(writeTrace(reference_, path_, v1));

    Trace loaded;
    const auto result = readTrace(path_, loaded, TraceReadOptions{});
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_EQ(result->version, traceFormatVersionV1);
    ASSERT_EQ(loaded.size(), reference_.size());
    for (std::size_t i = 0; i < loaded.size(); ++i)
        EXPECT_EQ(loaded[i], reference_[i]);
    // Legacy bool API agrees.
    EXPECT_TRUE(readTrace(path_, loaded));
}

TEST_F(TraceCorruptionTest, V1TruncationIsStillDetected)
{
    TraceWriteOptions v1;
    v1.version = traceFormatVersionV1;
    ASSERT_TRUE(writeTrace(reference_, path_, v1));
    truncateTo(fileSize() - 10);

    Trace loaded;
    const auto result = readTrace(path_, loaded, TraceReadOptions{});
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::Truncated);

    const auto salvaged = salvageTrace(path_, loaded);
    ASSERT_TRUE(salvaged) << salvaged.error().str();
    EXPECT_EQ(salvaged->records, numRecords - 1);
}

TEST_F(TraceCorruptionTest, V2RoundTripMatchesV1Content)
{
    // The same trace written as v1 and v2 must load identically; only
    // the footer differs on disk.
    const std::string v1_path = path_ + ".v1";
    TraceWriteOptions v1;
    v1.version = traceFormatVersionV1;
    ASSERT_TRUE(writeTrace(reference_, v1_path, v1));

    Trace from_v1, from_v2;
    ASSERT_TRUE(readTrace(v1_path, from_v1));
    ASSERT_TRUE(readTrace(path_, from_v2));
    ASSERT_EQ(from_v1.size(), from_v2.size());
    for (std::size_t i = 0; i < from_v1.size(); ++i)
        EXPECT_EQ(from_v1[i], from_v2[i]);
    EXPECT_EQ(std::filesystem::file_size(v1_path) + 4,
              std::filesystem::file_size(path_));
    std::remove(v1_path.c_str());
}

TEST_F(TraceCorruptionTest, ChecksumVerificationCanBeDisabled)
{
    patch(headerBytes + numRecords * recordBytes,
          {0xde, 0xad, 0xbe, 0xef});
    TraceReadOptions options;
    options.verifyChecksum = false;
    Trace loaded;
    const auto result = readTrace(path_, loaded, options);
    ASSERT_TRUE(result) << result.error().str();
    EXPECT_EQ(loaded.size(), numRecords);
}

TEST_F(TraceCorruptionTest, WriterRejectsUnknownVersion)
{
    const std::string out = path_ + ".badver";
    TraceFileWriter writer(out, "x", 7);
    EXPECT_FALSE(writer.ok());
    EXPECT_EQ(writer.lastError().code(), ErrorCode::InvalidArgument);
    EXPECT_FALSE(writer.close());
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(TraceCorruptionTest, WriterRejectsOversizedName)
{
    const std::string out = path_ + ".badname";
    TraceFileWriter writer(out, std::string(maxTraceNameLen + 1, 'n'));
    EXPECT_FALSE(writer.ok());
    EXPECT_EQ(writer.lastError().code(), ErrorCode::InvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(TraceCorruptionTest, FailedWriteLeavesNoFile)
{
    const std::string out = "/nonexistent/dir/file.trc";
    const auto result = writeTrace(reference_, out, {});
    ASSERT_FALSE(result);
    EXPECT_EQ(result.error().code(), ErrorCode::IoError);
    EXPECT_NE(result.error().str().find(out), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(TraceCorruptionTest, FinishAfterFinishReportsError)
{
    const std::string out = path_ + ".twice";
    TraceFileWriter writer(out, "twice");
    ASSERT_TRUE(writer.ok());
    writer.append(reference_[0]);
    ASSERT_TRUE(static_cast<bool>(writer.finish()));
    const auto again = writer.finish();
    ASSERT_FALSE(again);
    EXPECT_EQ(again.error().code(), ErrorCode::IoError);
    // The successfully written file is untouched by the second call.
    EXPECT_TRUE(std::filesystem::exists(out));
    std::remove(out.c_str());
}

} // namespace
} // namespace clap
