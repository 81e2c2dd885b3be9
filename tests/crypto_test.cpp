/**
 * @file
 * Crypto tests: FIPS-197 and CTR known-answer vectors, CTR round
 * trips, padding validation, and each CTR keystream path against a
 * block-by-block reference (AesCtrProperty, label `property`).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "crypto/aes.hpp"
#include "crypto/aes_impl.hpp"
#include "crypto/modes.hpp"
#include "sim/random.hpp"

namespace vrio::crypto {
namespace {

Bytes
fromHex(const std::string &hex)
{
    Bytes out;
    for (size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(uint8_t(std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

std::string
toHex(std::span<const uint8_t> data)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (uint8_t b : data) {
        out += kDigits[b >> 4];
        out += kDigits[b & 0xf];
    }
    return out;
}

struct AesVector
{
    const char *key;
    const char *plain;
    const char *cipher;
};

// Name each vector by its key size; the default printer would dump
// the three string pointers, which differ on every run.
void
PrintTo(const AesVector &v, std::ostream *os)
{
    *os << "aes" << std::strlen(v.key) * 4;
}

class AesKat : public ::testing::TestWithParam<AesVector>
{};

TEST_P(AesKat, EncryptMatchesFips197)
{
    const auto &v = GetParam();
    Bytes key = fromHex(v.key);
    Bytes block = fromHex(v.plain);
    Aes aes(key);
    aes.encryptBlock(block.data());
    EXPECT_EQ(toHex(block), v.cipher);
}

// Appendix C of FIPS-197: key sizes 128/192/256 on the same plaintext.
INSTANTIATE_TEST_SUITE_P(
    Fips197, AesKat,
    ::testing::Values(
        AesVector{"000102030405060708090a0b0c0d0e0f",
                  "00112233445566778899aabbccddeeff",
                  "69c4e0d86a7b0430d8cdb78070b4c55a"},
        AesVector{"000102030405060708090a0b0c0d0e0f1011121314151617",
                  "00112233445566778899aabbccddeeff",
                  "dda97ca4864cdfe06eaf70a0ec0d7191"},
        AesVector{
            "000102030405060708090a0b0c0d0e0f1011121314151617"
            "18191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089"}));

TEST(Aes, RoundCounts)
{
    Bytes k16(16), k24(24), k32(32);
    EXPECT_EQ(Aes(k16).rounds(), 10);
    EXPECT_EQ(Aes(k24).rounds(), 12);
    EXPECT_EQ(Aes(k32).rounds(), 14);
}

TEST(Aes, BadKeySizePanics)
{
    Bytes k(17);
    EXPECT_DEATH(Aes{k}, "key");
}

TEST(Ctr, RoundTripPreservesLength)
{
    Bytes key(32, 0x11);
    Aes aes(key);
    for (size_t n : {0u, 1u, 16u, 17u, 1000u}) {
        Bytes data(n, 0x77);
        Bytes enc = ctrCrypt(aes, 1234, data);
        EXPECT_EQ(enc.size(), n);
        if (n > 0) {
            EXPECT_NE(enc, data);
        }
        Bytes dec = ctrCrypt(aes, 1234, enc);
        EXPECT_EQ(dec, data);
    }
}

TEST(Ctr, NonceSeparatesStreams)
{
    Bytes key(32, 0x11);
    Aes aes(key);
    Bytes data(64, 0);
    EXPECT_NE(ctrCrypt(aes, 1, data), ctrCrypt(aes, 2, data));
}

// SP 800-38A's AES-256 key under counter blocks f0f1..f7 || 0, 1, 2;
// the keystream comes from an independent implementation (OpenSSL
// aes-256-ctr).  A swapped nonce/counter half changes all three
// blocks; a little-endian counter changes the last two.
TEST(Ctr, Aes256KnownKeystream)
{
    Aes aes(fromHex("603deb1015ca71be2b73aef0857d7781"
                    "1f352c073b6108d72d9810a30914dff4"));
    const uint64_t nonce = 0xf0f1f2f3f4f5f6f7;
    const std::string want = "b4b0374fbf3694c871e1d290c5ba13a7"
                             "125f28bc6d2414dde799a2f216cf5f82"
                             "7aefdadd04ce861a9ef718138d77f35e";
    Bytes zeros(48, 0);
    EXPECT_EQ(toHex(ctrCrypt(aes, nonce, zeros)), want);
    Bytes buf = zeros;
    detail::ctrXorPortable(aes, nonce, buf);
    EXPECT_EQ(toHex(buf), want);
    if (detail::kAesHasNi) {
        buf = zeros;
        detail::ctrXorAesNi(aes, nonce, buf);
        EXPECT_EQ(toHex(buf), want);
    }
}

/** CTR built block by block from the FIPS-197-checked encryptBlock(). */
Bytes
ctrReference(const Aes &aes, uint64_t nonce, std::span<const uint8_t> data)
{
    Bytes out(data.begin(), data.end());
    uint64_t counter = 0;
    for (size_t off = 0; off < out.size(); off += Aes::kBlockSize) {
        uint8_t block[Aes::kBlockSize];
        for (int j = 0; j < 8; ++j) {
            block[j] = uint8_t(nonce >> (56 - 8 * j));
            block[8 + j] = uint8_t(counter >> (56 - 8 * j));
        }
        aes.encryptBlock(block);
        for (size_t j = 0; j < Aes::kBlockSize && off + j < out.size(); ++j)
            out[off + j] ^= block[j];
        ++counter;
    }
    return out;
}

Bytes
randomBytes(sim::Random &rng, size_t n)
{
    Bytes b(n);
    for (uint8_t &x : b)
        x = uint8_t(rng.next());
    return b;
}

/**
 * A random nonce; half of them have their high bytes set, as the
 * encryption service's (device << 48 | sector) nonces do, or are
 * within a few of all-ones.
 */
uint64_t
randomNonce(sim::Random &rng)
{
    switch (rng.next() % 4) {
      case 0:
        return ~uint64_t(0) - rng.next() % 4;
      case 1:
        return rng.next() << 48 | rng.next() % 65536;
      default:
        return rng.next();
    }
}

using CtrFn = void (*)(const Aes &, uint64_t, std::span<uint8_t>);

/**
 * Check @p fn against ctrReference() under all three key sizes: every
 * length 0..300 (zero to two 8-block steps, then every tail length) at
 * every offset within 16 bytes, then 200 random lengths up to 64 KiB
 * at random offsets.
 */
void
expectMatchesReference(CtrFn fn)
{
    sim::Random rng(0xae5);
    Bytes buf = randomBytes(rng, 65536 + 16);
    for (size_t key_len : {16u, 24u, 32u}) {
        Aes aes(randomBytes(rng, key_len));
        for (size_t len = 0; len <= 300; ++len) {
            for (size_t off = 0; off < 16; ++off) {
                uint64_t nonce = randomNonce(rng);
                auto data = std::span<uint8_t>(buf).subspan(off, len);
                Bytes want = ctrReference(aes, nonce, data);
                fn(aes, nonce, data);
                ASSERT_TRUE(std::equal(data.begin(), data.end(),
                                       want.begin()))
                    << "key=" << key_len << " len=" << len << " off=" << off
                    << " nonce=" << nonce;
            }
        }
    }
    for (int i = 0; i < 200; ++i) {
        Aes aes(randomBytes(rng, 16 + 8 * size_t(i % 3)));
        size_t len = size_t(rng.uniformInt(0, 65536));
        size_t off = size_t(rng.uniformInt(0, 15));
        uint64_t nonce = randomNonce(rng);
        auto data = std::span<uint8_t>(buf).subspan(off, len);
        Bytes want = ctrReference(aes, nonce, data);
        fn(aes, nonce, data);
        ASSERT_TRUE(std::equal(data.begin(), data.end(), want.begin()))
            << "key=" << 16 + 8 * (i % 3) << " len=" << len
            << " off=" << off << " nonce=" << nonce;
    }
}

TEST(AesCtrProperty, PortableMatchesBlockReference)
{
    expectMatchesReference(detail::ctrXorPortable);
}

TEST(AesCtrProperty, AesNiMatchesBlockReference)
{
    if (!detail::kAesHasNi)
        GTEST_SKIP() << "CPU has no AES-NI";
    expectMatchesReference(detail::ctrXorAesNi);
}

} // namespace
} // namespace vrio::crypto
