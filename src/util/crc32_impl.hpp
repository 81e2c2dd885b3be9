/**
 * @file
 * The two CRC-32 implementations behind crc32()/crc32Update(), exposed
 * so tests can check each one directly.  Not part of the public API:
 * include util/crc32.hpp instead.
 */
#ifndef VRIO_UTIL_CRC32_IMPL_HPP
#define VRIO_UTIL_CRC32_IMPL_HPP

#include <cstdint>
#include <span>

namespace vrio::detail {

/** True iff this CPU can run crc32UpdateClmul(); fixed before main. */
extern const bool kCrc32HasClmul;

/** crc32Update() computed eight bytes per step with slice-by-8 tables. */
uint32_t crc32UpdateSlice8(uint32_t seed, std::span<const uint8_t> data);

/**
 * crc32Update() with the PCLMULQDQ folding kernel over the largest
 * multiple of 16 bytes (inputs of at least 64 bytes) and slice-by-8 for
 * the rest.  Call only when kCrc32HasClmul is true.
 */
uint32_t crc32UpdateClmul(uint32_t seed, std::span<const uint8_t> data);

} // namespace vrio::detail

#endif // VRIO_UTIL_CRC32_IMPL_HPP
