/**
 * @file
 * vRIO transport wire header.
 *
 * Every vRIO message between an IOclient's transport driver and the
 * I/O hypervisor starts with this header, carried inside the fake
 * TCP/IP encapsulation of Section 4.3.  It conveys the virtio
 * metadata the paper reuses ("the front-end device identifier, type
 * of request, and request size"), plus the identifiers that drive
 * reassembly and the block retransmission protocol of Section 4.5.
 *
 * Layout (little-endian, 40 bytes):
 *
 *   0  u16 magic          'VR' (0x5652)
 *   2  u8  version        1
 *   3  u8  type           MsgType
 *   4  u32 device_id      front-end device identifier
 *   8  u64 request_serial per-device request number
 *  16  u16 generation     retransmission generation (unique-id rule)
 *  18  u16 part           software-segmentation part index
 *  20  u16 parts          total parts in the full request
 *  22  u16 flags
 *  24  u32 total_len      payload bytes following this header
 *  28  u32 io_len         block: total request bytes (read length, or
 *                         write length across all parts)
 *  32  u64 sector         block: starting sector
 *  40  u8  blk_type       block: virtio::BlkType
 *  41  u8  status         responses: virtio::BlkStatus
 *  42  u16 payload_csum   truncated CRC-32 over header + payload
 *
 * The checksum covers the encoded header (with the checksum field
 * itself zeroed) plus the full message payload, and is verified when
 * the reassembler completes a message.  Link-level FCS already drops
 * garbled frames; this end-to-end check is what catches byzantine
 * corruption that *passes* FCS (bit flips inside a switch or NIC
 * buffer, modeled by fault::FaultPlan's corrupt_payload_rate).
 */
#ifndef VRIO_TRANSPORT_HEADER_HPP
#define VRIO_TRANSPORT_HEADER_HPP

#include <cstdint>
#include <span>

#include "util/byte_buffer.hpp"

namespace vrio::transport {

constexpr uint16_t kMagic = 0x5652; // 'VR'
constexpr uint8_t kVersion = 1;

enum class MsgType : uint8_t {
    NetOut = 1,   ///< client -> IOhost: guest transmit
    NetIn = 2,    ///< IOhost -> client: guest receive
    BlkReq = 3,   ///< client -> IOhost: block request
    BlkResp = 4,  ///< IOhost -> client: block completion
    DevCreate = 5,///< IOhost -> client: create a front-end
    DevDestroy = 6,
    DevAck = 7,   ///< client -> IOhost: control acknowledgement
    Heartbeat = 8,///< IOhost -> client: liveness beacon
    ReplicaSync = 9, ///< IOhost -> peer IOhost: warm-state mirror batch
    ReplicaAck = 10, ///< peer IOhost -> IOhost: cumulative mirror ack
    Rehome = 11,  ///< placement flip: IOhost command / client activation
};

/** Header flag bits. */
constexpr uint16_t kFlagRetransmit = 1; ///< diagnostic marking only

struct TransportHeader
{
    MsgType type = MsgType::NetOut;
    uint32_t device_id = 0;
    uint64_t request_serial = 0;
    uint16_t generation = 0;
    uint16_t part = 0;
    uint16_t parts = 1;
    uint16_t flags = 0;
    uint32_t total_len = 0;
    uint32_t io_len = 0;
    uint64_t sector = 0;
    uint8_t blk_type = 0;
    uint8_t status = 0;
    uint16_t payload_csum = 0;

    static constexpr size_t kSize = 44;
    /** Byte offset of payload_csum within the encoded header. */
    static constexpr size_t kCsumOffset = 42;

    void encode(ByteWriter &w) const;

    /**
     * Decode; returns false on bad magic/version (corrupt or foreign
     * frame — callers must treat the wire as untrusted).
     */
    static bool decode(ByteReader &r, TransportHeader &out);
};

const char *msgTypeName(MsgType type);

/**
 * Stamp @p message (encoded header + payload, at least kSize bytes)
 * with its end-to-end checksum: truncated CRC-32 computed with the
 * checksum field zeroed.  Called once per message by encapsulate().
 */
void sealMessage(std::span<uint8_t> message);

/**
 * Verify a sealed message without modifying it: recomputes the
 * checksum with the field read as zero and returns true iff the stored
 * value matches.  A mismatch means the payload was corrupted somewhere
 * FCS could not see.
 */
bool verifyMessage(std::span<const uint8_t> message);

/**
 * verifyMessage() of a message held in two pieces: @p header (exactly
 * kSize bytes) followed by @p payload.
 */
bool verifyMessage(std::span<const uint8_t> header,
                   std::span<const uint8_t> payload);

} // namespace vrio::transport

#endif // VRIO_TRANSPORT_HEADER_HPP
