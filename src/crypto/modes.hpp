/**
 * @file
 * AES in CTR mode.
 *
 * The interposition encryption service (interpose/services.hpp) uses
 * CTR, in place via ctrXor(), for both block and packet payloads:
 * neither may change length.
 */
#ifndef VRIO_CRYPTO_MODES_HPP
#define VRIO_CRYPTO_MODES_HPP

#include "crypto/aes.hpp"
#include "util/byte_buffer.hpp"

namespace vrio::crypto {

/**
 * CTR keystream XOR in place (encrypt == decrypt).  Counter block i is
 * @p nonce || i, each 8 bytes big-endian, for i from 0.  Runs AES-NI
 * rounds when the CPU has them; the output is the same either way.
 */
void ctrXor(const Aes &aes, uint64_t nonce, std::span<uint8_t> data);

/** ctrXor() on a copy of @p data; output length equals input length. */
Bytes ctrCrypt(const Aes &aes, uint64_t nonce,
               std::span<const uint8_t> data);

} // namespace vrio::crypto

#endif // VRIO_CRYPTO_MODES_HPP
