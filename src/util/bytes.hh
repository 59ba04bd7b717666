/**
 * @file
 * The one little-endian codec of the project. ByteWriter appends
 * fixed-width integers, raw bytes and u32-length-prefixed strings to
 * a std::string; ByteReader reads them back from a byte view and
 * reports underrun on every read. Wire frames (net/wire.hh), state
 * snapshots (core/state_io.hh), trace files (trace/trace_io.hh) and
 * the PredictionStats codec (sim/metrics.hh) all go through these two
 * classes, so the byte order and the bounds checks live only here.
 */

#ifndef CLAP_UTIL_BYTES_HH
#define CLAP_UTIL_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace clap
{

/** Little-endian append-only byte sink. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Reserve @p capacity bytes up front (one allocation). */
    explicit ByteWriter(std::size_t capacity) { out_.reserve(capacity); }

    void u8(std::uint8_t v) { out_ += static_cast<char>(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v) { le(v, 2); }
    void u32(std::uint32_t v) { le(v, 4); }
    void u64(std::uint64_t v) { le(v, 8); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void
    bytes(std::string_view data)
    {
        out_.append(data.data(), data.size());
    }

    /** u32 length prefix, then the bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s);
    }

    /** Everything written so far. */
    const std::string &buffer() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    void
    le(std::uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i)
            out_ += static_cast<char>((v >> (8 * i)) & 0xff);
    }

    std::string out_;
};

/**
 * Little-endian cursor over a byte view. Every read returns false
 * instead of reading past the end, and a failed fixed-width read
 * leaves the cursor where it was.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    bool
    u8(std::uint8_t &v)
    {
        return le(v);
    }

    /** A bool is one byte that must be 0 or 1. */
    bool
    b(bool &v)
    {
        std::uint8_t raw = 0;
        if (!u8(raw) || raw > 1)
            return false;
        v = raw != 0;
        return true;
    }

    bool u16(std::uint16_t &v) { return le(v); }
    bool u32(std::uint32_t &v) { return le(v); }
    bool u64(std::uint64_t &v) { return le(v); }

    bool
    i64(std::int64_t &v)
    {
        std::uint64_t raw = 0;
        if (!u64(raw))
            return false;
        v = static_cast<std::int64_t>(raw);
        return true;
    }

    /** View the next @p len bytes (no copy). */
    bool
    bytes(std::string_view &out, std::size_t len)
    {
        if (remaining() < len)
            return false;
        out = data_.substr(pos_, len);
        pos_ += len;
        return true;
    }

    /** u32 length prefix, then that many bytes. */
    bool
    str(std::string &s)
    {
        std::uint32_t len = 0;
        std::string_view view;
        if (!u32(len) || !bytes(view, len))
            return false;
        s.assign(view);
        return true;
    }

    bool done() const { return pos_ == data_.size(); }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return data_.size() - pos_; }

  private:
    template <typename T>
    bool
    le(T &v)
    {
        if (remaining() < sizeof(T))
            return false;
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            acc |= static_cast<std::uint64_t>(
                       static_cast<std::uint8_t>(data_[pos_ + i]))
                << (8 * i);
        v = static_cast<T>(acc);
        pos_ += sizeof(T);
        return true;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

} // namespace clap

#endif // CLAP_UTIL_BYTES_HH
