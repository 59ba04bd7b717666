#include "trace/trace_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/bytes.hh"

namespace clap
{

namespace
{

constexpr char traceMagic[8] = {'C', 'L', 'A', 'P', 'T', 'R', 'C', '\0'};
constexpr std::size_t recordBytes = 40;
constexpr std::size_t fixedHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::size_t footerBytes = 4;

/** Offset of the u64 record count that TraceFileWriter::finish()
 *  patches once the count is known. */
constexpr long countOffset = 8 + 4;

void
encodeRecord(ByteWriter &w, const TraceRecord &rec)
{
    // The in-memory record has one address field: it goes to the slot
    // the class uses, and the other slot is 0.
    w.u64(rec.pc);
    w.u64(rec.isMem() ? rec.effAddr : 0);
    w.u64(rec.isMem() ? 0 : rec.target);
    w.u32(static_cast<std::uint32_t>(rec.immOffset));
    w.u8(static_cast<std::uint8_t>(rec.cls));
    w.u8(rec.srcA);
    w.u8(rec.srcB);
    w.u8(rec.dst);
    w.u8(rec.memSize);
    w.b(rec.taken);
    w.u16(0); // 6 zero pad bytes: 40 per record
    w.u32(0);
}

/**
 * Decode one 40-byte on-disk record into the 24-byte in-memory one.
 * @return an empty string on success, else why the record cannot
 *         reach the simulators: an out-of-range class byte, or a
 *         record the in-memory layout cannot hold (an address in the
 *         slot its class does not use, or memSize above
 *         TraceRecord::maxMemSize).
 */
std::string
decodeRecord(std::string_view bytes, TraceRecord &rec)
{
    ByteReader r(bytes);
    std::uint64_t pc = 0, eff_addr = 0, target = 0;
    std::uint32_t imm = 0;
    std::uint8_t cls = 0, src_a = 0, src_b = 0, dst = 0, mem_size = 0,
                 taken = 0;
    if (!r.u64(pc) || !r.u64(eff_addr) || !r.u64(target) ||
        !r.u32(imm) || !r.u8(cls) || !r.u8(src_a) || !r.u8(src_b) ||
        !r.u8(dst) || !r.u8(mem_size) || !r.u8(taken))
        return "is shorter than a record";
    if (cls >= numInstClasses)
        return "has out-of-range class byte " + std::to_string(cls);
    rec.cls = static_cast<InstClass>(cls);
    if (rec.isMem() ? target != 0 : eff_addr != 0) {
        return std::string("is a ") + instClassName(rec.cls) +
            " with a nonzero " + (rec.isMem() ? "target" : "effAddr");
    }
    if (mem_size > TraceRecord::maxMemSize) {
        return "has memSize " + std::to_string(mem_size) +
            " above the limit of " +
            std::to_string(TraceRecord::maxMemSize);
    }
    rec.pc = pc;
    if (rec.isMem())
        rec.effAddr = eff_addr;
    else
        rec.target = target;
    rec.immOffset = static_cast<std::int32_t>(imm);
    rec.srcA = src_a;
    rec.srcB = src_b;
    rec.dst = dst;
    rec.memSize = mem_size;
    rec.taken = taken != 0;
    return {};
}

/** fwrite all of @p bytes. */
bool
writeBytes(std::FILE *file, const std::string &bytes)
{
    return std::fwrite(bytes.data(), 1, bytes.size(), file) ==
        bytes.size();
}

/** Write the header with a zero record count (patched at finish). */
bool
writeHeader(std::FILE *file, const std::string &name,
            std::uint32_t version)
{
    ByteWriter w(fixedHeaderBytes + name.size());
    w.bytes(std::string_view(traceMagic, sizeof(traceMagic)));
    w.u32(version);
    w.u64(0);
    w.str(name);
    return writeBytes(file, w.buffer());
}

Error
ioError(std::string what)
{
    std::string msg = std::move(what);
    if (errno != 0) {
        msg += ": ";
        msg += std::strerror(errno);
    }
    return makeError(ErrorCode::IoError, std::move(msg));
}

/** RAII guard so every early return closes the input file. */
struct FileCloser
{
    std::FILE *file;
    ~FileCloser()
    {
        if (file)
            std::fclose(file);
    }
};

} // namespace

bool
writeTrace(const Trace &trace, const std::string &path)
{
    return static_cast<bool>(writeTrace(trace, path, {}));
}

Expected<void>
writeTrace(const Trace &trace, const std::string &path,
           const TraceWriteOptions &options)
{
    TraceFileWriter writer(path, trace.name(), options.version);
    for (const auto &rec : trace.records())
        writer.append(rec);
    if (auto result = writer.finish(); !result) {
        return std::move(result.error())
            .withContext("writing trace file " + path);
    }
    return ok();
}

bool
readTrace(const std::string &path, Trace &trace)
{
    return static_cast<bool>(readTrace(path, trace, TraceReadOptions{}));
}

Expected<TraceReadResult>
salvageTrace(const std::string &path, Trace &trace)
{
    TraceReadOptions options;
    options.salvage = true;
    return readTrace(path, trace, options);
}

Expected<TraceReadResult>
readTrace(const std::string &path, Trace &trace,
          const TraceReadOptions &options)
{
    trace.clear();
    const auto failWith = [&](Error error) -> Expected<TraceReadResult> {
        trace.clear();
        return std::move(error).withContext("reading trace file " +
                                            path);
    };

    errno = 0;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return failWith(ioError("cannot open"));
    FileCloser closer{file};

    // Actual size on disk: the yardstick every header field is
    // checked against before it is trusted.
    if (std::fseek(file, 0, SEEK_END) != 0)
        return failWith(ioError("cannot seek"));
    const long end = std::ftell(file);
    if (end < 0)
        return failWith(ioError("cannot tell"));
    const std::uint64_t file_size = static_cast<std::uint64_t>(end);
    if (std::fseek(file, 0, SEEK_SET) != 0)
        return failWith(ioError("cannot seek"));

    if (file_size < fixedHeaderBytes) {
        return failWith(makeError(
            ErrorCode::Truncated,
            "file is " + std::to_string(file_size) +
                " bytes, shorter than the " +
                std::to_string(fixedHeaderBytes) + "-byte header"));
    }

    // The file holds at least the fixed header, so once read none of
    // the header reads below can fail.
    char fixed[fixedHeaderBytes];
    if (std::fread(fixed, 1, fixedHeaderBytes, file) != fixedHeaderBytes)
        return failWith(ioError("cannot read header"));
    ByteReader header(std::string_view(fixed, fixedHeaderBytes));
    std::string_view magic;
    header.bytes(magic, sizeof(traceMagic));
    if (magic != std::string_view(traceMagic, sizeof(traceMagic))) {
        return failWith(makeError(ErrorCode::BadMagic,
                                  "not a CLAP trace file"));
    }

    TraceReadResult result;
    header.u32(result.version);
    if (result.version != traceFormatVersionV1 &&
        result.version != traceFormatVersion) {
        return failWith(makeError(
            ErrorCode::BadVersion,
            "unsupported format version " +
                std::to_string(result.version) + " (readable: 1, 2)"));
    }

    std::uint32_t name_len = 0;
    header.u64(result.declared);
    header.u32(name_len);
    if (name_len > maxTraceNameLen) {
        return failWith(makeError(
            ErrorCode::BadHeader,
            "name length " + std::to_string(name_len) +
                " exceeds the sanity bound " +
                std::to_string(maxTraceNameLen)));
    }
    const std::uint64_t header_size = fixedHeaderBytes + name_len;
    if (file_size < header_size) {
        return failWith(makeError(
            ErrorCode::Truncated,
            "file too short for its " + std::to_string(name_len) +
                "-byte name field"));
    }
    std::string name(name_len, '\0');
    if (name_len != 0 &&
        std::fread(name.data(), 1, name_len, file) != name_len) {
        return failWith(ioError("cannot read name"));
    }

    // Cross-check the declared count against the bytes actually
    // present before reserving anything.
    const std::uint64_t footer =
        result.version >= traceFormatVersion ? footerBytes : 0;
    const std::uint64_t payload = file_size - header_size;
    const std::uint64_t room =
        payload >= footer ? (payload - footer) / recordBytes
                          : payload / recordBytes;
    const bool count_fits = result.declared <= room;
    if (!count_fits && !options.salvage) {
        return failWith(makeError(
            ErrorCode::Truncated,
            "header declares " + std::to_string(result.declared) +
                " records but the file has room for " +
                std::to_string(room)));
    }

    trace.setName(name);
    // When salvaging a short file the footer may be gone entirely, so
    // read greedily: every whole record the payload can hold, still
    // bounded by the declared count and the real file size.
    const std::uint64_t to_read = count_fits
        ? result.declared
        : std::min(result.declared, payload / recordBytes);
    trace.reserve(static_cast<std::size_t>(to_read));

    Crc32 crc;
    TraceRecord rec;
    char buf[recordBytes];
    std::uint64_t loaded = 0;
    for (; loaded < to_read; ++loaded) {
        if (std::fread(buf, 1, recordBytes, file) != recordBytes) {
            if (options.salvage)
                break;
            return failWith(makeError(
                ErrorCode::Truncated,
                "record " + std::to_string(loaded) + " of " +
                    std::to_string(result.declared) + " cut short"));
        }
        if (const std::string why =
                decodeRecord(std::string_view(buf, recordBytes), rec);
            !why.empty()) {
            if (options.salvage)
                break;
            return failWith(makeError(
                ErrorCode::BadRecord,
                "record " + std::to_string(loaded) + " " + why));
        }
        crc.update(buf, recordBytes);
        trace.append(rec);
    }
    result.records = loaded;
    result.salvaged = loaded != result.declared;

    // v2 integrity footer. A complete, healthy read must match; in
    // salvage mode a mismatch only flags the result as salvaged
    // (there is no way to locate the damaged record).
    if (result.version >= traceFormatVersion && !result.salvaged &&
        options.verifyChecksum) {
        std::uint32_t stored = 0;
        const bool have_footer =
            std::fread(buf, 1, footerBytes, file) == footerBytes &&
            ByteReader(std::string_view(buf, footerBytes)).u32(stored);
        if (!have_footer) {
            if (!options.salvage) {
                return failWith(makeError(ErrorCode::Truncated,
                                          "missing CRC-32 footer"));
            }
            result.salvaged = true;
        } else if (stored != crc.value()) {
            if (!options.salvage) {
                return failWith(makeError(
                    ErrorCode::BadChecksum,
                    "record payload CRC-32 mismatch (stored " +
                        std::to_string(stored) + ", computed " +
                        std::to_string(crc.value()) + ")"));
            }
            result.salvaged = true;
        }
    }

    return result;
}

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 const std::string &name,
                                 std::uint32_t version)
    : path_(path), version_(version)
{
    if (version_ != traceFormatVersionV1 &&
        version_ != traceFormatVersion) {
        fail(makeError(ErrorCode::InvalidArgument,
                       "unsupported trace format version " +
                           std::to_string(version_)));
        return;
    }
    if (name.size() > maxTraceNameLen) {
        fail(makeError(ErrorCode::InvalidArgument,
                       "trace name length " +
                           std::to_string(name.size()) +
                           " exceeds the format bound " +
                           std::to_string(maxTraceNameLen)));
        return;
    }
    errno = 0;
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        fail(ioError("cannot open for writing"));
        return;
    }
    if (!writeHeader(file_, name, version_)) {
        fail(ioError("cannot write header"));
        discard();
    }
}

TraceFileWriter::~TraceFileWriter()
{
    if (file_)
        (void)finish();
}

void
TraceFileWriter::append(const TraceRecord &rec)
{
    if (!file_ || failed_)
        return;
    ByteWriter w(recordBytes);
    encodeRecord(w, rec);
    if (!writeBytes(file_, w.buffer())) {
        fail(ioError("cannot append record " + std::to_string(count_)));
        return;
    }
    crc_.update(w.buffer().data(), recordBytes);
    ++count_;
}

Expected<void>
TraceFileWriter::finish()
{
    if (!file_) {
        if (error_.code() == ErrorCode::None) {
            return makeError(ErrorCode::IoError,
                             "trace writer already closed");
        }
        return error_;
    }
    if (failed_) {
        // An earlier append already failed: the file contents are
        // unreliable, remove them and report the original error.
        discard();
        return error_;
    }

    bool write_ok = true;
    if (version_ >= traceFormatVersion) {
        ByteWriter footer;
        footer.u32(crc_.value());
        write_ok = writeBytes(file_, footer.buffer());
    }
    if (write_ok && std::fseek(file_, countOffset, SEEK_SET) == 0) {
        ByteWriter count;
        count.u64(count_);
        write_ok = writeBytes(file_, count.buffer());
    } else {
        write_ok = false;
    }
    if (!write_ok) {
        fail(ioError("cannot finalize header/footer"));
        discard();
        return error_;
    }
    std::FILE *file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) {
        fail(ioError("cannot close"));
        std::remove(path_.c_str());
        return error_;
    }
    return Expected<void>{};
}

bool
TraceFileWriter::close()
{
    return static_cast<bool>(finish());
}

void
TraceFileWriter::fail(Error error)
{
    failed_ = true;
    if (error_.code() == ErrorCode::None)
        error_ = std::move(error).withContext("trace file " + path_);
}

void
TraceFileWriter::discard()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    std::remove(path_.c_str());
}

} // namespace clap
