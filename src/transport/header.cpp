#include "transport/header.hpp"

#include "util/crc32.hpp"
#include "util/logging.hpp"

namespace vrio::transport {

void
TransportHeader::encode(ByteWriter &w) const
{
    w.putU16le(kMagic);
    w.putU8(kVersion);
    w.putU8(uint8_t(type));
    w.putU32le(device_id);
    w.putU64le(request_serial);
    w.putU16le(generation);
    w.putU16le(part);
    w.putU16le(parts);
    w.putU16le(flags);
    w.putU32le(total_len);
    w.putU32le(io_len);
    w.putU64le(sector);
    w.putU8(blk_type);
    w.putU8(status);
    w.putU16le(payload_csum);
}

bool
TransportHeader::decode(ByteReader &r, TransportHeader &out)
{
    if (r.remaining() < kSize)
        return false;
    if (r.getU16le() != kMagic)
        return false;
    if (r.getU8() != kVersion)
        return false;
    out.type = MsgType(r.getU8());
    out.device_id = r.getU32le();
    out.request_serial = r.getU64le();
    out.generation = r.getU16le();
    out.part = r.getU16le();
    out.parts = r.getU16le();
    out.flags = r.getU16le();
    out.total_len = r.getU32le();
    out.io_len = r.getU32le();
    out.sector = r.getU64le();
    out.blk_type = r.getU8();
    out.status = r.getU8();
    out.payload_csum = r.getU16le();
    return true;
}

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::NetOut:
        return "net-out";
      case MsgType::NetIn:
        return "net-in";
      case MsgType::BlkReq:
        return "blk-req";
      case MsgType::BlkResp:
        return "blk-resp";
      case MsgType::DevCreate:
        return "dev-create";
      case MsgType::DevDestroy:
        return "dev-destroy";
      case MsgType::DevAck:
        return "dev-ack";
      case MsgType::Heartbeat:
        return "heartbeat";
      case MsgType::ReplicaSync:
        return "replica-sync";
      case MsgType::ReplicaAck:
        return "replica-ack";
      case MsgType::Rehome:
        return "rehome";
    }
    return "unknown";
}

namespace {

static_assert(TransportHeader::kCsumOffset + 2 == TransportHeader::kSize,
              "the checksum field ends the header");

/**
 * Truncated CRC-32 of @p header + @p payload as if the checksum field
 * (the header's last two bytes) were zero: streamed around the field,
 * so the message is only read.
 */
uint16_t
checksumWithFieldZeroed(std::span<const uint8_t> header,
                        std::span<const uint8_t> payload)
{
    constexpr uint8_t zeros[2] = {0, 0};
    uint32_t crc = crc32(header.first(TransportHeader::kCsumOffset));
    crc = crc32Update(crc, zeros);
    crc = crc32Update(crc, payload);
    return uint16_t(crc & 0xffff);
}

} // namespace

void
sealMessage(std::span<uint8_t> message)
{
    vrio_assert(message.size() >= TransportHeader::kSize,
                "sealing a truncated transport message");
    uint16_t csum =
        checksumWithFieldZeroed(message.first(TransportHeader::kSize),
                                message.subspan(TransportHeader::kSize));
    message[TransportHeader::kCsumOffset] = uint8_t(csum & 0xff);
    message[TransportHeader::kCsumOffset + 1] = uint8_t(csum >> 8);
}

bool
verifyMessage(std::span<const uint8_t> message)
{
    if (message.size() < TransportHeader::kSize)
        return false;
    return verifyMessage(message.first(TransportHeader::kSize),
                         message.subspan(TransportHeader::kSize));
}

bool
verifyMessage(std::span<const uint8_t> header,
              std::span<const uint8_t> payload)
{
    vrio_assert(header.size() == TransportHeader::kSize,
                "transport header of ", header.size(), " bytes");
    uint16_t stored =
        uint16_t(header[TransportHeader::kCsumOffset]) |
        uint16_t(header[TransportHeader::kCsumOffset + 1]) << 8;
    return checksumWithFieldZeroed(header, payload) == stored;
}

} // namespace vrio::transport
