/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected 0xedb88320).  It seals and
 * verifies every transport message (transport::sealMessage and
 * verifyMessage) and fingerprints chunks in the dedup service; the
 * Ethernet FCS is modelled by Frame::fcs_corrupt, not computed.  Two
 * implementations give the same result: a PCLMULQDQ folding kernel,
 * picked at run time on CPUs that have it, and slice-by-8 for the
 * rest and for short inputs and tails.
 */
#ifndef VRIO_UTIL_CRC32_HPP
#define VRIO_UTIL_CRC32_HPP

#include <cstdint>
#include <span>

namespace vrio {

/** CRC32 of @p data with the standard IEEE seed/finalization. */
uint32_t crc32(std::span<const uint8_t> data);

/** Incremental variant: feed a previous crc32() result as @p seed. */
uint32_t crc32Update(uint32_t seed, std::span<const uint8_t> data);

} // namespace vrio

#endif // VRIO_UTIL_CRC32_HPP
