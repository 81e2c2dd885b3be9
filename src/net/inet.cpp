#include "net/inet.hpp"

namespace vrio::net {

uint16_t
inetChecksum(std::span<const uint8_t> data)
{
    uint64_t sum = 0;
    size_t i = 0;
    for (; i + 1 < data.size(); i += 2)
        sum += uint16_t(data[i]) << 8 | data[i + 1];
    if (i < data.size())
        sum += uint16_t(data[i]) << 8;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return uint16_t(~sum);
}

void
Ipv4Header::encode(ByteWriter &w) const
{
    uint8_t hdr[kIpv4HeaderSize] = {
        0x45, // version 4, IHL 5
        tos,
        uint8_t(total_length >> 8), uint8_t(total_length),
        uint8_t(identification >> 8), uint8_t(identification),
        0x40, 0x00, // DF, no fragments (TSO, not IP fragmentation)
        ttl,
        protocol,
        0, 0, // checksum placeholder
        uint8_t(src >> 24), uint8_t(src >> 16), uint8_t(src >> 8),
        uint8_t(src),
        uint8_t(dst >> 24), uint8_t(dst >> 16), uint8_t(dst >> 8),
        uint8_t(dst),
    };
    uint16_t csum = inetChecksum(hdr);
    hdr[10] = uint8_t(csum >> 8);
    hdr[11] = uint8_t(csum);
    w.putBytes(hdr);
}

Ipv4Header
Ipv4Header::decode(ByteReader &r, bool *checksum_ok)
{
    auto raw = r.viewBytes(kIpv4HeaderSize);
    if (checksum_ok)
        *checksum_ok = inetChecksum(raw) == 0;
    ByteReader hr(raw);
    Ipv4Header h;
    hr.skip(1); // version/IHL
    h.tos = hr.getU8();
    h.total_length = hr.getU16be();
    h.identification = hr.getU16be();
    hr.skip(2); // flags/fragment
    h.ttl = hr.getU8();
    h.protocol = hr.getU8();
    hr.skip(2); // checksum
    h.src = hr.getU32be();
    h.dst = hr.getU32be();
    return h;
}

void
TcpHeader::encode(ByteWriter &w) const
{
    w.putU16be(src_port);
    w.putU16be(dst_port);
    w.putU32be(seq);
    w.putU32be(ack);
    w.putU8(0x50); // data offset 5 words
    w.putU8(flags);
    w.putU16be(window);
    w.putU16be(0); // checksum (offloaded; receiver does not verify)
    w.putU16be(0); // urgent pointer
}

TcpHeader
TcpHeader::decode(ByteReader &r)
{
    TcpHeader h;
    h.src_port = r.getU16be();
    h.dst_port = r.getU16be();
    h.seq = r.getU32be();
    h.ack = r.getU32be();
    r.skip(1); // data offset
    h.flags = r.getU8();
    h.window = r.getU16be();
    r.skip(4); // checksum + urgent
    return h;
}

} // namespace vrio::net
