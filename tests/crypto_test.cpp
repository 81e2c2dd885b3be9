/**
 * @file
 * Crypto tests: FIPS-197 known-answer vectors, mode round trips,
 * padding validation.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "crypto/aes.hpp"
#include "crypto/modes.hpp"
#include "sim/random.hpp"
#include "util/hexdump.hpp"

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

TEST_P(AesKat, DecryptInverts)
{
    const auto &v = GetParam();
    Bytes key = fromHex(v.key);
    Bytes block = fromHex(v.cipher);
    Aes aes(key);
    aes.decryptBlock(block.data());
    EXPECT_EQ(toHex(block), v.plain);
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

TEST(Pkcs7, PadAlwaysAddsAndUnpads)
{
    for (size_t n = 0; n <= 48; ++n) {
        Bytes data(n, 0xab);
        Bytes padded = pkcs7Pad(data);
        EXPECT_EQ(padded.size() % Aes::kBlockSize, 0u);
        EXPECT_GT(padded.size(), data.size());
        Bytes out;
        ASSERT_TRUE(pkcs7Unpad(padded, out)) << "n=" << n;
        EXPECT_EQ(out, data);
    }
}

TEST(Pkcs7, RejectsMalformedPadding)
{
    Bytes out;
    EXPECT_FALSE(pkcs7Unpad({}, out));
    Bytes not_block(15, 1);
    EXPECT_FALSE(pkcs7Unpad(not_block, out));
    Bytes bad(16, 0);
    EXPECT_FALSE(pkcs7Unpad(bad, out)); // pad byte 0 invalid
    Bytes bad2(16, 2);
    bad2[15] = 3; // claims 3 but predecessors are 2
    EXPECT_FALSE(pkcs7Unpad(bad2, out));
    Bytes big(16, 17);
    EXPECT_FALSE(pkcs7Unpad(big, out)); // pad > block size
}

TEST(Cbc, RoundTripVariousSizes)
{
    Bytes key(32, 0x42);
    Aes aes(key);
    Iv iv{};
    iv[0] = 9;
    sim::Random rng(5);
    for (size_t n : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
        Bytes plain(n);
        for (auto &b : plain)
            b = uint8_t(rng.next());
        Bytes cipher = cbcEncrypt(aes, iv, plain);
        EXPECT_EQ(cipher.size() % Aes::kBlockSize, 0u);
        Bytes out;
        ASSERT_TRUE(cbcDecrypt(aes, iv, cipher, out));
        EXPECT_EQ(out, plain);
    }
}

TEST(Cbc, CiphertextDiffersFromPlaintext)
{
    Bytes key(32, 1);
    Aes aes(key);
    Iv iv{};
    Bytes plain(64, 0);
    Bytes cipher = cbcEncrypt(aes, iv, plain);
    // Identical plaintext blocks must not produce identical ciphertext
    // blocks (CBC chaining).
    Bytes b0(cipher.begin(), cipher.begin() + 16);
    Bytes b1(cipher.begin() + 16, cipher.begin() + 32);
    EXPECT_NE(b0, b1);
}

TEST(Cbc, WrongIvFailsOrGarbles)
{
    Bytes key(32, 1);
    Aes aes(key);
    Iv iv{}, wrong{};
    wrong[0] = 1;
    Bytes plain(32, 7);
    Bytes cipher = cbcEncrypt(aes, iv, plain);
    Bytes out;
    bool ok = cbcDecrypt(aes, wrong, cipher, out);
    if (ok) {
        EXPECT_NE(out, plain);
    }
}

TEST(Cbc, TamperedCiphertextRejectedOrGarbled)
{
    Bytes key(32, 3);
    Aes aes(key);
    Iv iv{};
    Bytes plain(100, 0x5c);
    Bytes cipher = cbcEncrypt(aes, iv, plain);
    cipher[20] ^= 1;
    Bytes out;
    bool ok = cbcDecrypt(aes, iv, cipher, out);
    if (ok) {
        EXPECT_NE(out, plain);
    }
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

} // namespace
} // namespace vrio::crypto
