#include "crypto/modes.hpp"

#include "crypto/aes_impl.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#define VRIO_AES_NI 1
#endif

namespace vrio::crypto {

namespace detail {

namespace {

#ifdef VRIO_AES_NI

#define VRIO_AESNI_TARGET __attribute__((target("aes,sse4.1")))

/** Counter blocks encrypted per step: enough to hide AESENC latency. */
constexpr size_t kLanes = 8;

VRIO_AESNI_TARGET __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i_u *>(p));
}

VRIO_AESNI_TARGET void
store128(uint8_t *p, __m128i x)
{
    _mm_storeu_si128(reinterpret_cast<__m128i_u *>(p), x);
}

/**
 * The next kLanes keystream blocks into @p ks.  @p ctr is the counter
 * block byte-reversed, i.e. (counter, nonce) as little-endian 64-bit
 * lanes, so one 64-bit add steps the counter and wraps it without
 * touching the nonce, as the portable uint64_t counter does.
 */
VRIO_AESNI_TARGET [[gnu::always_inline]] inline void
keystreamBlocks(const __m128i *k, int nr, __m128i &ctr, __m128i ks[kLanes])
{
    const __m128i bswap =
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const __m128i one = _mm_set_epi64x(0, 1);
#pragma GCC unroll 8
    for (size_t i = 0; i < kLanes; ++i) {
        ks[i] = _mm_xor_si128(_mm_shuffle_epi8(ctr, bswap), k[0]);
        ctr = _mm_add_epi64(ctr, one);
    }
    for (int r = 1; r < nr; ++r) {
#pragma GCC unroll 8
        for (size_t i = 0; i < kLanes; ++i)
            ks[i] = _mm_aesenc_si128(ks[i], k[r]);
    }
#pragma GCC unroll 8
    for (size_t i = 0; i < kLanes; ++i)
        ks[i] = _mm_aesenclast_si128(ks[i], k[nr]);
}

VRIO_AESNI_TARGET void
ctrXorNi(const Aes &aes, uint64_t nonce, uint8_t *p, size_t n)
{
    const int nr = aes.rounds();
    __m128i k[15] = {};
    for (int r = 0; r <= nr; ++r)
        k[r] = load128(aes.roundKey(r));
    __m128i ctr = _mm_set_epi64x(int64_t(nonce), 0);
    __m128i ks[kLanes] = {};
    constexpr size_t kStep = kLanes * Aes::kBlockSize;
    for (; n >= kStep; n -= kStep, p += kStep) {
        keystreamBlocks(k, nr, ctr, ks);
#pragma GCC unroll 8
        for (size_t i = 0; i < kLanes; ++i) {
            uint8_t *q = p + i * Aes::kBlockSize;
            store128(q, _mm_xor_si128(load128(q), ks[i]));
        }
    }
    if (n > 0) {
        uint8_t tail[kStep] = {};
        keystreamBlocks(k, nr, ctr, ks);
        for (size_t i = 0; i < kLanes; ++i)
            store128(tail + i * Aes::kBlockSize, ks[i]);
        for (size_t i = 0; i < n; ++i)
            p[i] ^= tail[i];
    }
}

#endif // VRIO_AES_NI

} // namespace

// Decided once, during static initialization; shard threads only read
// it.  A call made before it is set sees false and takes the portable
// path.
extern const bool kAesHasNi = [] {
#ifdef VRIO_AES_NI
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
}();

void
ctrXorPortable(const Aes &aes, uint64_t nonce, std::span<uint8_t> data)
{
    uint8_t keystream[Aes::kBlockSize];
    uint64_t counter = 0;
    for (size_t off = 0; off < data.size(); off += Aes::kBlockSize) {
        // Counter block: 8-byte nonce || 8-byte counter, both big-endian.
        for (int i = 0; i < 8; ++i)
            keystream[i] = uint8_t(nonce >> (8 * (7 - i)));
        for (int i = 0; i < 8; ++i)
            keystream[8 + i] = uint8_t(counter >> (8 * (7 - i)));
        aes.encryptBlock(keystream);
        size_t n = std::min(size_t(Aes::kBlockSize), data.size() - off);
        for (size_t i = 0; i < n; ++i)
            data[off + i] ^= keystream[i];
        ++counter;
    }
}

void
ctrXorAesNi(const Aes &aes, uint64_t nonce, std::span<uint8_t> data)
{
#ifdef VRIO_AES_NI
    ctrXorNi(aes, nonce, data.data(), data.size());
#else
    ctrXorPortable(aes, nonce, data);
#endif
}

} // namespace detail

void
ctrXor(const Aes &aes, uint64_t nonce, std::span<uint8_t> data)
{
    if (detail::kAesHasNi)
        detail::ctrXorAesNi(aes, nonce, data);
    else
        detail::ctrXorPortable(aes, nonce, data);
}

Bytes
ctrCrypt(const Aes &aes, uint64_t nonce, std::span<const uint8_t> data)
{
    Bytes out(data.begin(), data.end());
    ctrXor(aes, nonce, out);
    return out;
}

} // namespace vrio::crypto
