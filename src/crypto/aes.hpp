/**
 * @file
 * AES block cipher (FIPS-197), key sizes 128/192/256.
 *
 * The load-imbalance experiment (Fig. 16b) runs AES-256 as a real
 * interposition service on the I/O hypervisor, so the cycles the
 * encryption consumes on a sidecore are generated by real work.
 * encryptBlock() is the portable byte-wise cipher (one S-box lookup
 * per byte, MixColumns by xtime).  CTR mode (modes.hpp) needs no
 * inverse cipher; it runs AES-NI rounds over the same round keys when
 * the CPU has them and this byte-wise code otherwise.  Constant-time
 * hardening is out of scope — the threat model here is benchmarking,
 * not side channels.
 */
#ifndef VRIO_CRYPTO_AES_HPP
#define VRIO_CRYPTO_AES_HPP

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace vrio::crypto {

class Aes
{
  public:
    static constexpr size_t kBlockSize = 16;

    /** @param key 16, 24, or 32 bytes. */
    explicit Aes(std::span<const uint8_t> key);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(uint8_t block[kBlockSize]) const;

    /** Number of rounds (10/12/14 for 128/192/256-bit keys). */
    int rounds() const { return nr; }

    /**
     * Round key @p round (0..rounds()) as 16 bytes in FIPS-197 byte
     * order, the layout AES-NI round instructions take.
     */
    const uint8_t *roundKey(int round) const { return rk[round].data(); }

  private:
    int nr;
    /** Expanded key schedule, one 16-byte round key per round. */
    std::array<std::array<uint8_t, kBlockSize>, 15> rk{};
};

} // namespace vrio::crypto

#endif // VRIO_CRYPTO_AES_HPP
