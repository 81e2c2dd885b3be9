/**
 * @file
 * Unit tests for the util module: byte codecs, CRC32, string helpers,
 * plus a randomized check of every CRC-32 implementation.
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "util/byte_buffer.hpp"
#include "util/crc32.hpp"
#include "util/crc32_impl.hpp"
#include "util/strutil.hpp"
#include "util/zeroed_bytes.hpp"

namespace vrio {
namespace {

TEST(ByteWriter, LittleEndianLayout)
{
    Bytes buf;
    ByteWriter w(buf);
    w.putU16le(0x1234);
    w.putU32le(0xdeadbeef);
    w.putU64le(0x0102030405060708ull);
    ASSERT_EQ(buf.size(), 14u);
    EXPECT_EQ(buf[0], 0x34);
    EXPECT_EQ(buf[1], 0x12);
    EXPECT_EQ(buf[2], 0xef);
    EXPECT_EQ(buf[5], 0xde);
    EXPECT_EQ(buf[6], 0x08);
    EXPECT_EQ(buf[13], 0x01);
}

TEST(ByteWriter, BigEndianLayout)
{
    Bytes buf;
    ByteWriter w(buf);
    w.putU16be(0x1234);
    w.putU32be(0xdeadbeef);
    EXPECT_EQ(buf[0], 0x12);
    EXPECT_EQ(buf[1], 0x34);
    EXPECT_EQ(buf[2], 0xde);
    EXPECT_EQ(buf[5], 0xef);
}

TEST(ByteWriter, AppendsToExistingBuffer)
{
    Bytes buf = {0xaa};
    ByteWriter w(buf);
    w.putU8(0xbb);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(w.written(), 1u);
    EXPECT_EQ(buf[0], 0xaa);
}

TEST(ByteReaderWriter, RoundTripAllWidths)
{
    Bytes buf;
    ByteWriter w(buf);
    w.putU8(0x7f);
    w.putU16le(0xbeef);
    w.putU32le(0xcafebabe);
    w.putU64le(0x1122334455667788ull);
    w.putU16be(0xbeef);
    w.putU32be(0xcafebabe);
    w.putU64be(0x1122334455667788ull);

    ByteReader r(buf);
    EXPECT_EQ(r.getU8(), 0x7f);
    EXPECT_EQ(r.getU16le(), 0xbeef);
    EXPECT_EQ(r.getU32le(), 0xcafebabeu);
    EXPECT_EQ(r.getU64le(), 0x1122334455667788ull);
    EXPECT_EQ(r.getU16be(), 0xbeef);
    EXPECT_EQ(r.getU32be(), 0xcafebabeu);
    EXPECT_EQ(r.getU64be(), 0x1122334455667788ull);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, OverrunPanics)
{
    Bytes buf = {1, 2};
    ByteReader r(buf);
    EXPECT_DEATH(r.getU32le(), "overrun");
}

TEST(ByteReader, ViewAndSkip)
{
    Bytes buf = {1, 2, 3, 4, 5};
    ByteReader r(buf);
    r.skip(1);
    auto v = r.viewBytes(2);
    EXPECT_EQ(v[0], 2);
    EXPECT_EQ(v[1], 3);
    Bytes rest = r.getBytes(2);
    EXPECT_EQ(rest, (Bytes{4, 5}));
}

TEST(ZeroedBytes, StartsZeroedAndWritableToTheLastByte)
{
    for (size_t size : {size_t(2), size_t(4095), size_t(4096),
                        size_t(3 << 20)}) {
        ZeroedBytes b(size);
        ASSERT_EQ(b.size(), size);
        EXPECT_EQ(b[0], 0);
        EXPECT_EQ(b[size - 1], 0);
        b[0] = 0xa5;
        b[size - 1] = 0x5a;
        EXPECT_EQ(b.data()[0], 0xa5);
        EXPECT_EQ(b.data()[size - 1], 0x5a);
    }
}

TEST(ZeroedBytes, MoveKeepsTheBytes)
{
    ZeroedBytes a(8192);
    a[8191] = 7;
    ZeroedBytes b(std::move(a));
    EXPECT_EQ(b.size(), 8192u);
    EXPECT_EQ(b[8191], 7);
}

TEST(ZeroedBytes, RunningOffTheEndFaults)
{
    // A page-multiple store ends exactly at its guard page.
    ZeroedBytes b(4 * 4096);
    volatile uint8_t *end = b.data() + b.size();
    EXPECT_DEATH(*end = 1, "");
}

TEST(Crc32, KnownVectors)
{
    // Standard test vector: "123456789" -> 0xcbf43926.
    const char *s = "123456789";
    auto data = std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(s), 9);
    EXPECT_EQ(crc32(data), 0xcbf43926u);
    EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    Bytes data(100);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 7);
    uint32_t whole = crc32(data);
    uint32_t part = crc32(std::span<const uint8_t>(data).subspan(0, 37));
    part = crc32Update(part, std::span<const uint8_t>(data).subspan(37));
    EXPECT_EQ(whole, part);
}

/** Bit-at-a-time CRC-32: the reference every fast path must match. */
uint32_t
crc32Reference(uint32_t seed, std::span<const uint8_t> data)
{
    uint32_t c = ~seed;
    for (uint8_t byte : data) {
        c ^= byte;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1)));
    }
    return ~c;
}

using CrcFn = uint32_t (*)(uint32_t, std::span<const uint8_t>);

/** Every CRC-32 path this CPU can run, by name. */
std::vector<std::pair<const char *, CrcFn>>
crcPaths()
{
    std::vector<std::pair<const char *, CrcFn>> paths = {
        {"slice8", detail::crc32UpdateSlice8}, {"public", crc32Update}};
    if (detail::kCrc32HasClmul)
        paths.emplace_back("clmul", detail::crc32UpdateClmul);
    return paths;
}

Bytes
randomBytes(sim::Random &rng, size_t n)
{
    Bytes b(n);
    for (uint8_t &x : b)
        x = uint8_t(rng.next());
    return b;
}

// Every length across the short-input path, the 64-byte fold threshold
// and the 16-byte bulk/tail split, at every offset within a cache line.
TEST(Crc32Property, EveryShortLengthAndOffsetMatchesReference)
{
    const auto paths = crcPaths();
    sim::Random rng(32);
    Bytes buf = randomBytes(rng, 300 + 64);
    for (size_t len = 0; len <= 300; ++len) {
        for (size_t off = 0; off < 64; ++off) {
            auto data = std::span<const uint8_t>(buf).subspan(off, len);
            uint32_t seed = uint32_t(rng.next());
            uint32_t want = crc32Reference(seed, data);
            for (auto [name, fn] : paths)
                ASSERT_EQ(fn(seed, data), want)
                    << name << " len=" << len << " off=" << off;
            ASSERT_EQ(crc32(data), crc32Reference(0, data))
                << "len=" << len << " off=" << off;
        }
    }
}

// Long inputs, fed whole and in two pieces split at a random point.
TEST(Crc32Property, RandomLongInputsMatchReferenceWholeAndSplit)
{
    const auto paths = crcPaths();
    sim::Random rng(4096);
    Bytes buf = randomBytes(rng, 65536 + 64);
    for (int i = 0; i < 200; ++i) {
        size_t len = size_t(rng.uniformInt(0, 65536));
        size_t off = size_t(rng.uniformInt(0, 63));
        size_t split = size_t(rng.uniformInt(0, len));
        auto data = std::span<const uint8_t>(buf).subspan(off, len);
        uint32_t seed = uint32_t(rng.next());
        uint32_t want = crc32Reference(seed, data);
        for (auto [name, fn] : paths) {
            ASSERT_EQ(fn(seed, data), want)
                << name << " len=" << len << " off=" << off;
            ASSERT_EQ(fn(fn(seed, data.first(split)), data.subspan(split)),
                      want)
                << name << " len=" << len << " off=" << off
                << " split=" << split;
        }
    }
}

TEST(StrUtil, Format)
{
    EXPECT_EQ(strFormat("%d-%s", 42, "x"), "42-x");
}

TEST(StrUtil, SiAbbrev)
{
    EXPECT_EQ(siAbbrev(1500.0), "1.5K");
    EXPECT_EQ(siAbbrev(2.5e6), "2.5M");
    EXPECT_EQ(siAbbrev(3.0e9, 0), "3G");
    EXPECT_EQ(siAbbrev(999.0, 0), "999");
}

TEST(StrUtil, FormatNanos)
{
    EXPECT_EQ(formatNanos(500), "500.0 ns");
    EXPECT_EQ(formatNanos(12300), "12.3 us");
    EXPECT_EQ(formatNanos(4.5e6), "4.5 ms");
    EXPECT_EQ(formatNanos(2.0e9), "2.0 s");
}

TEST(StrUtil, Split)
{
    auto parts = splitString("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StrUtil, PadTo)
{
    EXPECT_EQ(padTo("ab", 4), "  ab");
    EXPECT_EQ(padTo("ab", -4), "ab  ");
    EXPECT_EQ(padTo("abcdef", 4), "abcdef");
}

} // namespace
} // namespace vrio
