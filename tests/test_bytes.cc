/**
 * @file
 * Tests for the little-endian codec of util/bytes.hh: round trips at
 * every width, underrun at every width and offset, strict bools, and
 * length-prefixed strings whose length runs past the buffer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/bytes.hh"

namespace clap
{
namespace
{

TEST(Bytes, PrimitivesRoundTripAndBoundsCheck)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0xcdef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.i64(-2);
    w.b(true);
    w.str("hello");
    const std::string out = w.take();
    EXPECT_EQ(out.substr(0, 7), std::string("\xab\xef\xcd\xef\xbe\xad\xde",
                                            7));

    ByteReader r(out);
    std::uint8_t u8 = 0;
    std::uint16_t u16 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int64_t i64 = 0;
    bool flag = false;
    std::string s;
    EXPECT_TRUE(r.u8(u8));
    EXPECT_TRUE(r.u16(u16));
    EXPECT_TRUE(r.u32(u32));
    EXPECT_TRUE(r.u64(u64));
    EXPECT_TRUE(r.i64(i64));
    EXPECT_TRUE(r.b(flag));
    EXPECT_TRUE(r.str(s));
    EXPECT_EQ(u8, 0xab);
    EXPECT_EQ(u16, 0xcdef);
    EXPECT_EQ(u32, 0xdeadbeefu);
    EXPECT_EQ(u64, 0x0123456789abcdefull);
    EXPECT_EQ(i64, -2);
    EXPECT_TRUE(flag);
    EXPECT_EQ(s, "hello");
    EXPECT_TRUE(r.done());

    // Reading past the end fails instead of fabricating bytes: every
    // width at every offset of a 7-byte buffer, and a failed read
    // leaves the cursor where it was.
    const std::string shortBuf = out.substr(0, 7);
    for (std::size_t start = 0; start <= shortBuf.size(); ++start) {
        const std::size_t left = shortBuf.size() - start;
        const auto at = [&] {
            ByteReader cursor(shortBuf);
            std::string_view skip;
            EXPECT_TRUE(cursor.bytes(skip, start));
            return cursor;
        };
        ByteReader c1 = at(), c2 = at(), c4 = at(), c8 = at();
        EXPECT_EQ(c1.u8(u8), left >= 1) << "offset " << start;
        EXPECT_EQ(c2.u16(u16), left >= 2) << "offset " << start;
        EXPECT_EQ(c4.u32(u32), left >= 4) << "offset " << start;
        EXPECT_EQ(c8.u64(u64), left >= 8) << "offset " << start;
        if (left < 8) {
            EXPECT_EQ(c8.pos(), start);
        }
        std::string_view view;
        EXPECT_EQ(at().bytes(view, left + 1), false);
    }

    // A bool is exactly 0 or 1; every other byte is rejected.
    for (unsigned v = 0; v < 256; ++v) {
        const std::string one(1, static_cast<char>(v));
        ByteReader byte(one);
        EXPECT_EQ(byte.b(flag), v <= 1) << "byte " << v;
        if (v <= 1) {
            EXPECT_EQ(flag, v == 1);
        }
    }
}

TEST(Bytes, TruncatedStringLengthIsRejected)
{
    ByteWriter w;
    w.str("payload");
    std::string out = w.take();
    out.resize(out.size() - 3); // cut the tail of the bytes

    std::string s;
    EXPECT_FALSE(ByteReader(out).str(s));

    // A length prefix cut short, and one promising 4 GiB - 1 bytes.
    EXPECT_FALSE(ByteReader(out.substr(0, 3)).str(s));
    const std::string huge("\xff\xff\xff\xff" "abc", 7);
    EXPECT_FALSE(ByteReader(huge).str(s));
    EXPECT_TRUE(s.empty());
}

} // namespace
} // namespace clap
