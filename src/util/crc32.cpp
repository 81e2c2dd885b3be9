#include "util/crc32.hpp"

#include "util/crc32_impl.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VRIO_CRC32_CLMUL 1
#endif

namespace vrio {

namespace detail {

namespace {

/**
 * Slice-by-8 tables for the reflected polynomial 0xedb88320: row 0 is
 * the classic bytewise table, row k advances a byte k further.
 */
constexpr auto kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    return t;
}();

uint32_t
load32(const uint8_t *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
}

/** Advance the raw (inverted) CRC state @p c over @p data. */
uint32_t
slice8(uint32_t c, std::span<const uint8_t> data)
{
    const uint8_t *p = data.data();
    size_t n = data.size();
    for (; n >= 8; n -= 8, p += 8) {
        uint32_t lo = c ^ load32(p);
        uint32_t hi = load32(p + 4);
        c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
            kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
            kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        c = kTables[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c;
}

#ifdef VRIO_CRC32_CLMUL

#define VRIO_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

VRIO_CLMUL_TARGET __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i_u *>(p));
}

/** One 128-bit lane one step on: lo(x)*k_lo ^ hi(x)*k_hi ^ @p next. */
VRIO_CLMUL_TARGET __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/**
 * Fold @p len bytes (a multiple of 16, at least 64) into the raw CRC
 * state @p c with carry-less multiplies: four 128-bit lanes fold 64
 * bytes per step, the lanes fold into one, then a Barrett reduction
 * yields the 32-bit state.  Gopal et al., "Fast CRC Computation for
 * Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009); the
 * constants are its bit-reflected ones for 0xedb88320.
 */
VRIO_CLMUL_TARGET uint32_t
foldClmul(uint32_t c, const uint8_t *p, size_t len)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(int(c)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    p += 64;
    len -= 64;

    for (; len >= 64; len -= 64, p += 64) {
        x1 = fold(x1, k1k2, load128(p));
        x2 = fold(x2, k1k2, load128(p + 16));
        x3 = fold(x3, k1k2, load128(p + 32));
        x4 = fold(x4, k1k2, load128(p + 48));
    }

    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; len >= 16; len -= 16, p += 16)
        x1 = fold(x1, k3k4, load128(p));

    // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
    x1 = _mm_xor_si128(x1, x2);

    x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return uint32_t(_mm_extract_epi32(x1, 1));
}

#endif // VRIO_CRC32_CLMUL

} // namespace

// Decided once, during static initialization; shard threads only read
// it.  A call made before it is set sees false and takes slice-by-8.
extern const bool kCrc32HasClmul = [] {
#ifdef VRIO_CRC32_CLMUL
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
}();

uint32_t
crc32UpdateSlice8(uint32_t seed, std::span<const uint8_t> data)
{
    return ~slice8(~seed, data);
}

uint32_t
crc32UpdateClmul(uint32_t seed, std::span<const uint8_t> data)
{
    uint32_t c = ~seed;
    size_t bulk = 0;
#ifdef VRIO_CRC32_CLMUL
    if (data.size() >= 64) {
        bulk = data.size() & ~size_t(15);
        c = foldClmul(c, data.data(), bulk);
    }
#endif
    return ~slice8(c, data.subspan(bulk));
}

} // namespace detail

uint32_t
crc32Update(uint32_t seed, std::span<const uint8_t> data)
{
    return detail::kCrc32HasClmul ? detail::crc32UpdateClmul(seed, data)
                                  : detail::crc32UpdateSlice8(seed, data);
}

uint32_t
crc32(std::span<const uint8_t> data)
{
    return crc32Update(0, data);
}

} // namespace vrio
