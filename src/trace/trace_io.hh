/**
 * @file
 * Binary trace file format. The format is versioned and
 * little-endian with explicit per-field serialization so files are
 * portable across compilers regardless of struct padding:
 *
 *   magic   "CLAPTRC\0"          8 bytes
 *   version u32                  (1 = legacy, 2 = current)
 *   count   u64                  number of records
 *   name    u32 length + bytes   (length <= maxTraceNameLen)
 *   records count * 40 bytes     (pc, effAddr, target, immOffset,
 *                                 cls, srcA, srcB, dst, memSize, taken,
 *                                 6 zero pad bytes)
 *   footer  u32 CRC-32           (v2 only; over all record bytes)
 *
 * The on-disk record is wider than the 24-byte in-memory TraceRecord
 * (trace/record.hh), which has one address field and a 4-bit memSize.
 * The writer puts that address in the effAddr slot for loads/stores
 * and in the target slot otherwise, and 0 in the other slot; the
 * reader rejects a record that has both (see readTrace).
 *
 * Robustness guarantees (see DESIGN.md "Error handling & fault
 * model"):
 *  - every header field is sanity-bounded before it is trusted: the
 *    name length is clamped to maxTraceNameLen and the record count
 *    is cross-checked against the actual file size before any
 *    allocation, so a corrupt header cannot trigger an unbounded
 *    std::string or reserve();
 *  - every record's instruction-class byte is range-validated, so a
 *    corrupt record cannot propagate an invalid enum into the
 *    simulators, and a record the in-memory layout cannot hold (a
 *    load/store with a nonzero target, any other class with a nonzero
 *    effAddr, or memSize above 15) is rejected the same way;
 *  - v2 files carry a CRC-32 footer over the record payload;
 *  - a salvage mode recovers the valid record prefix of a truncated
 *    or tail-corrupted file;
 *  - v1 files (no footer) remain fully readable.
 *
 * The Expected-returning overloads are the primary API and report
 * precise diagnostics; the bool overloads are compatibility wrappers.
 */

#ifndef CLAP_TRACE_TRACE_IO_HH
#define CLAP_TRACE_TRACE_IO_HH

#include <cstdio>
#include <memory>
#include <string>

#include "trace/trace.hh"
#include "util/crc32.hh"
#include "util/error.hh"

namespace clap
{

/** Current on-disk format version (CRC-32 footer). */
constexpr std::uint32_t traceFormatVersion = 2;

/** Legacy footer-less format, still readable. */
constexpr std::uint32_t traceFormatVersionV1 = 1;

/** Header sanity bound on the embedded trace-name length. */
constexpr std::uint32_t maxTraceNameLen = 4096;

/** Options for the Expected-returning readTrace overload. */
struct TraceReadOptions
{
    /// Recover the valid record prefix of a truncated or
    /// tail-corrupted file instead of failing: header damage still
    /// errors out, but a short file, a bad record (see BadRecord in
    /// readTrace), or a CRC mismatch yields the records up to the
    /// damage point with TraceReadResult::salvaged set.
    bool salvage = false;

    /// Verify the v2 CRC-32 footer (ignored for v1 files).
    bool verifyChecksum = true;
};

/** Diagnostics returned by a successful read. */
struct TraceReadResult
{
    std::uint32_t version = 0;  ///< on-disk format version
    std::uint64_t declared = 0; ///< record count promised by the header
    std::uint64_t records = 0;  ///< records actually loaded
    bool salvaged = false;      ///< prefix recovery was applied
};

/** Options for the Expected-returning writeTrace overload. */
struct TraceWriteOptions
{
    /// On-disk version to emit: traceFormatVersion (default) or
    /// traceFormatVersionV1 for legacy consumers.
    std::uint32_t version = traceFormatVersion;
};

/**
 * Write @p trace to @p path.
 * @return true on success, false on any I/O failure. A failed write
 *         does not leave a partial file behind.
 */
bool writeTrace(const Trace &trace, const std::string &path);

/**
 * Write @p trace to @p path with explicit options and a precise
 * diagnostic on failure. A failed write unlinks the output.
 */
Expected<void> writeTrace(const Trace &trace, const std::string &path,
                          const TraceWriteOptions &options);

/**
 * Read a trace file written by writeTrace().
 * @param path  File to read.
 * @param trace Output; cleared first.
 * @return true on success, false on I/O failure, bad magic, bad or
 *         out-of-bounds header, corrupt record, or checksum mismatch.
 */
bool readTrace(const std::string &path, Trace &trace);

/**
 * Read a trace file with explicit options.
 * @return Read diagnostics, or a typed Error: IoError (open/read
 *         failure), BadMagic, BadVersion, BadHeader (field out of
 *         sanity bounds), Truncated (file shorter than the header
 *         promises), BadRecord (invalid class byte, or a record
 *         TraceRecord cannot hold), or BadChecksum (v2 CRC
 *         mismatch). On error @p trace is left cleared.
 */
Expected<TraceReadResult> readTrace(const std::string &path, Trace &trace,
                                    const TraceReadOptions &options);

/**
 * Convenience wrapper: readTrace with salvage enabled — recover as
 * many leading records as the file still holds.
 */
Expected<TraceReadResult> salvageTrace(const std::string &path,
                                       Trace &trace);

/**
 * Streaming writer: a TraceSink that appends records directly to a
 * file without buffering the whole trace in memory. The record count
 * in the header (and, for v2, the CRC-32 footer) is patched on
 * close. If any append or the close itself fails, the output file is
 * unlinked so no corrupt partial file is left on disk.
 */
class TraceFileWriter : public TraceSink
{
  public:
    TraceFileWriter(const std::string &path, const std::string &name,
                    std::uint32_t version = traceFormatVersion);
    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** True when the file opened, the header was written, and no
     *  append has failed since. */
    bool ok() const { return file_ != nullptr && !failed_; }

    void append(const TraceRecord &rec) override;
    std::size_t size() const override { return count_; }

    /**
     * Patch the header count, write the v2 CRC footer, and close the
     * file. On any failure (including earlier append failures) the
     * output file is removed and the Error describes the first thing
     * that went wrong.
     */
    Expected<void> finish();

    /** Compatibility wrapper around finish(). */
    bool close();

    /** First error encountered (ErrorCode::None while healthy). */
    const Error &lastError() const { return error_; }

  private:
    void fail(Error error);
    void discard();

    std::string path_;
    std::uint32_t version_;
    std::FILE *file_ = nullptr;
    std::size_t count_ = 0;
    bool failed_ = false;
    Crc32 crc_;
    Error error_;
};

} // namespace clap

#endif // CLAP_TRACE_TRACE_IO_HH
