#include "crypto/aes.hpp"

#include <cstring>

#include "util/logging.hpp"

namespace vrio::crypto {

namespace {

const uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16};

struct InvSbox
{
    uint8_t table[256];
    InvSbox()
    {
        for (int i = 0; i < 256; ++i)
            table[kSbox[i]] = uint8_t(i);
    }
};

/** Thread-safe lazy init (magic static) for parallel sweep workers. */
const uint8_t *
invSbox()
{
    static const InvSbox inv;
    return inv.table;
}

inline uint8_t
xtime(uint8_t x)
{
    return uint8_t((x << 1) ^ ((x >> 7) * 0x1b));
}

inline uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    while (b) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

inline uint32_t
subWord(uint32_t w)
{
    return uint32_t(kSbox[w >> 24]) << 24 |
           uint32_t(kSbox[(w >> 16) & 0xff]) << 16 |
           uint32_t(kSbox[(w >> 8) & 0xff]) << 8 |
           uint32_t(kSbox[w & 0xff]);
}

inline uint32_t
rotWord(uint32_t w)
{
    return w << 8 | w >> 24;
}

} // namespace

Aes::Aes(std::span<const uint8_t> key)
{
    int nk;
    switch (key.size()) {
      case 16:
        nk = 4;
        nr = 10;
        break;
      case 24:
        nk = 6;
        nr = 12;
        break;
      case 32:
        nk = 8;
        nr = 14;
        break;
      default:
        vrio_panic("AES key must be 16/24/32 bytes, got ", key.size());
    }

    uint32_t w[60];
    for (int i = 0; i < nk; ++i) {
        w[i] = uint32_t(key[4 * i]) << 24 |
               uint32_t(key[4 * i + 1]) << 16 |
               uint32_t(key[4 * i + 2]) << 8 | uint32_t(key[4 * i + 3]);
    }
    uint8_t rcon = 0x01;
    int total = 4 * (nr + 1);
    for (int i = nk; i < total; ++i) {
        uint32_t temp = w[i - 1];
        if (i % nk == 0) {
            temp = subWord(rotWord(temp)) ^ (uint32_t(rcon) << 24);
            rcon = xtime(rcon);
        } else if (nk > 6 && i % nk == 4) {
            temp = subWord(temp);
        }
        w[i] = w[i - nk] ^ temp;
    }
    // Word i is column i % 4 of round key i / 4, most significant
    // byte first.
    for (int i = 0; i < total; ++i)
        for (int j = 0; j < 4; ++j)
            rk[i / 4][4 * (i % 4) + j] = uint8_t(w[i] >> (24 - 8 * j));
}

void
Aes::encryptBlock(uint8_t b[kBlockSize]) const
{
    auto addRoundKey = [&](int round) {
        for (size_t i = 0; i < kBlockSize; ++i)
            b[i] ^= rk[round][i];
    };
    auto subBytes = [&]() {
        for (int i = 0; i < 16; ++i)
            b[i] = kSbox[b[i]];
    };
    auto shiftRows = [&]() {
        uint8_t t;
        // row 1: shift left by 1
        t = b[1]; b[1] = b[5]; b[5] = b[9]; b[9] = b[13]; b[13] = t;
        // row 2: shift left by 2
        std::swap(b[2], b[10]);
        std::swap(b[6], b[14]);
        // row 3: shift left by 3
        t = b[15]; b[15] = b[11]; b[11] = b[7]; b[7] = b[3]; b[3] = t;
    };
    auto mixColumns = [&]() {
        for (int c = 0; c < 4; ++c) {
            uint8_t *col = b + 4 * c;
            uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
            col[0] = uint8_t(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
            col[1] = uint8_t(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
            col[2] = uint8_t(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
            col[3] = uint8_t((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
        }
    };

    addRoundKey(0);
    for (int round = 1; round < nr; ++round) {
        subBytes();
        shiftRows();
        mixColumns();
        addRoundKey(round);
    }
    subBytes();
    shiftRows();
    addRoundKey(nr);
}

void
Aes::decryptBlock(uint8_t b[kBlockSize]) const
{
    auto addRoundKey = [&](int round) {
        for (size_t i = 0; i < kBlockSize; ++i)
            b[i] ^= rk[round][i];
    };
    auto invSubBytes = [&, inv = invSbox()]() {
        for (int i = 0; i < 16; ++i)
            b[i] = inv[b[i]];
    };
    auto invShiftRows = [&]() {
        uint8_t t;
        // row 1: shift right by 1
        t = b[13]; b[13] = b[9]; b[9] = b[5]; b[5] = b[1]; b[1] = t;
        // row 2: shift right by 2
        std::swap(b[2], b[10]);
        std::swap(b[6], b[14]);
        // row 3: shift right by 3
        t = b[3]; b[3] = b[7]; b[7] = b[11]; b[11] = b[15]; b[15] = t;
    };
    auto invMixColumns = [&]() {
        for (int c = 0; c < 4; ++c) {
            uint8_t *col = b + 4 * c;
            uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
            col[0] = uint8_t(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^
                             gmul(a3, 9));
            col[1] = uint8_t(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^
                             gmul(a3, 13));
            col[2] = uint8_t(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^
                             gmul(a3, 11));
            col[3] = uint8_t(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^
                             gmul(a3, 14));
        }
    };

    addRoundKey(nr);
    for (int round = nr - 1; round >= 1; --round) {
        invShiftRows();
        invSubBytes();
        addRoundKey(round);
        invMixColumns();
    }
    invShiftRows();
    invSubBytes();
    addRoundKey(0);
}

} // namespace vrio::crypto
