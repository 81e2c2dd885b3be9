/**
 * @file
 * Bounds-checked byte buffer with endian-aware codecs.
 *
 * All wire formats in the library (Ethernet frames, fake TCP/IP
 * headers, the vRIO transport header, virtio ring structures) are
 * serialized through ByteReader/ByteWriter so that out-of-bounds
 * accesses are caught at the point of the bug rather than corrupting
 * adjacent state.
 */
#ifndef VRIO_UTIL_BYTE_BUFFER_HPP
#define VRIO_UTIL_BYTE_BUFFER_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vrio {

/** Growable owned byte array used for packet payloads and disk data. */
using Bytes = std::vector<uint8_t>;

/**
 * Sequential writer over a growable byte vector.
 *
 * Integers can be appended in little-endian (virtio is a little-endian
 * protocol) or big-endian (network order for the fake TCP/IP headers).
 */
class ByteWriter
{
  public:
    /** Append to @p out, starting at its current end. */
    explicit ByteWriter(Bytes &out) : buf(out), start(out.size()) {}

    void putU8(uint8_t v) { buf.push_back(v); }
    void putU16le(uint16_t v) { putLe(v, 2); }
    void putU32le(uint32_t v) { putLe(v, 4); }
    void putU64le(uint64_t v) { putLe(v, 8); }
    void putU16be(uint16_t v) { putBe(v, 2); }
    void putU32be(uint32_t v) { putBe(v, 4); }
    void putU64be(uint64_t v) { putBe(v, 8); }
    /** Append a raw byte span. */
    void putBytes(std::span<const uint8_t> data)
    {
        buf.insert(buf.end(), data.begin(), data.end());
    }
    /** Append @p count copies of @p fill. */
    void putZeros(size_t count, uint8_t fill = 0)
    {
        buf.insert(buf.end(), count, fill);
    }

    /** Number of bytes written through this writer so far. */
    size_t written() const { return buf.size() - start; }

  private:
    Bytes &buf;
    size_t start = 0;

    /** Grow by @p n bytes (one resize) and return the first new one. */
    uint8_t *grow(size_t n)
    {
        size_t at = buf.size();
        buf.resize(at + n);
        return buf.data() + at;
    }
    void putLe(uint64_t v, int n)
    {
        uint8_t *p = grow(size_t(n));
        for (int i = 0; i < n; ++i)
            p[i] = uint8_t(v >> (8 * i));
    }
    void putBe(uint64_t v, int n)
    {
        uint8_t *p = grow(size_t(n));
        for (int i = 0; i < n; ++i)
            p[i] = uint8_t(v >> (8 * (n - 1 - i)));
    }
};

/**
 * Sequential bounds-checked reader over a byte span.
 *
 * Reading past the end panics (it indicates a protocol-decoder bug or
 * a truncated frame that the caller failed to length-check).  Callers
 * that handle untrusted lengths should consult remaining() first.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const uint8_t> data) : buf(data) {}

    uint8_t getU8() { return uint8_t(getLe(1)); }
    uint16_t getU16le() { return uint16_t(getLe(2)); }
    uint32_t getU32le() { return uint32_t(getLe(4)); }
    uint64_t getU64le() { return getLe(8); }
    uint16_t getU16be() { return uint16_t(getBe(2)); }
    uint32_t getU32be() { return uint32_t(getBe(4)); }
    uint64_t getU64be() { return getBe(8); }
    /** Copy @p count bytes out of the stream. */
    Bytes getBytes(size_t count);
    /** View of the next @p count bytes without copying. */
    std::span<const uint8_t> viewBytes(size_t count)
    {
        need(count);
        auto view = buf.subspan(pos, count);
        pos += count;
        return view;
    }
    /** Discard @p count bytes. */
    void skip(size_t count)
    {
        need(count);
        pos += count;
    }

    size_t remaining() const { return buf.size() - pos; }
    size_t offset() const { return pos; }

  private:
    std::span<const uint8_t> buf;
    size_t pos = 0;

    void need(size_t count) const
    {
        if (count > buf.size() - pos)
            overrun(count);
    }
    [[noreturn]] void overrun(size_t count) const;
    uint64_t getLe(int n)
    {
        need(size_t(n));
        uint64_t v = 0;
        for (int i = 0; i < n; ++i)
            v |= uint64_t(buf[pos + i]) << (8 * i);
        pos += size_t(n);
        return v;
    }
    uint64_t getBe(int n)
    {
        need(size_t(n));
        uint64_t v = 0;
        for (int i = 0; i < n; ++i)
            v = v << 8 | buf[pos + i];
        pos += size_t(n);
        return v;
    }
};

} // namespace vrio

#endif // VRIO_UTIL_BYTE_BUFFER_HPP
