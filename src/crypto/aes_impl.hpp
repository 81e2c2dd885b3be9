/**
 * @file
 * The two AES-CTR keystream implementations behind ctrXor()/ctrCrypt(),
 * exposed so tests can check each one directly.  Not part of the
 * public API: include crypto/modes.hpp instead.
 */
#ifndef VRIO_CRYPTO_AES_IMPL_HPP
#define VRIO_CRYPTO_AES_IMPL_HPP

#include <cstdint>
#include <span>

#include "crypto/aes.hpp"

namespace vrio::crypto::detail {

/** True iff this CPU can run ctrXorAesNi(); fixed before main. */
extern const bool kAesHasNi;

/** ctrXor() one block at a time with the byte-wise Aes::encryptBlock(). */
void ctrXorPortable(const Aes &aes, uint64_t nonce, std::span<uint8_t> data);

/**
 * ctrXor() with AES-NI rounds, eight counter blocks interleaved per
 * step (the last, partial step XORs byte by byte).  Call only when
 * kAesHasNi is true.
 */
void ctrXorAesNi(const Aes &aes, uint64_t nonce, std::span<uint8_t> data);

} // namespace vrio::crypto::detail

#endif // VRIO_CRYPTO_AES_IMPL_HPP
