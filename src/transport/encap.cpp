#include "transport/encap.hpp"

#include "net/frame_pool.hpp"
#include "util/logging.hpp"

namespace vrio::transport {

net::FramePtr
encapsulate(net::MacAddress src, net::MacAddress dst, uint32_t wire_msg_id,
            const TransportHeader &hdr, std::span<const uint8_t> payload)
{
    vrio_assert(payload.size() <= kMaxMessagePayload,
                "transport payload ", payload.size(),
                " exceeds the 64KB message bound");
    vrio_assert(hdr.total_len == payload.size(),
                "header total_len ", hdr.total_len, " != payload ",
                payload.size());

    constexpr size_t kL234 = net::kEtherHeaderSize + net::kIpv4HeaderSize +
                             net::kTcpHeaderSize;
    size_t message_bytes = TransportHeader::kSize + payload.size();
    net::FramePtr frame = net::FramePool::local().acquire();
    frame->bytes.reserve(kL234 + message_bytes);
    ByteWriter w(frame->bytes);

    net::EtherHeader eh;
    eh.dst = dst;
    eh.src = src;
    eh.ether_type = uint16_t(net::EtherType::Ipv4);
    eh.encode(w);

    net::Ipv4Header ip;
    ip.total_length = uint16_t(
        std::min<size_t>(0xffff, net::kIpv4HeaderSize +
                                     net::kTcpHeaderSize + message_bytes));
    // Addresses derived from MACs; the channel is point-to-point L2,
    // the IP layer exists only to satisfy NIC TSO engines.
    ip.src = uint32_t(src.toU64());
    ip.dst = uint32_t(dst.toU64());
    ip.encode(w);

    net::TcpHeader tcp;
    tcp.src_port = kVrioPort;
    tcp.dst_port = kVrioPort;
    tcp.seq = 0; // offset 0; TSO advances per segment
    tcp.ack = wire_msg_id;
    tcp.encode(w);

    hdr.encode(w);
    w.putBytes(payload);

    // End-to-end checksum over the message region (header + payload);
    // the receiver's reassembler verifies it once the full message is
    // back together.
    sealMessage(std::span<uint8_t>(frame->bytes).subspan(kL234));
    return frame;
}

bool
decapsulate(const net::Frame &frame, Segment &out)
{
    constexpr size_t kMinSize = net::kEtherHeaderSize +
                                net::kIpv4HeaderSize + net::kTcpHeaderSize;
    if (frame.bytes.size() < kMinSize)
        return false;

    ByteReader r(frame.bytes);
    net::EtherHeader eh = net::EtherHeader::decode(r);
    if (eh.ether_type != uint16_t(net::EtherType::Ipv4))
        return false;
    net::Ipv4Header ip = net::Ipv4Header::decode(r);
    if (ip.protocol != 6)
        return false;
    net::TcpHeader tcp = net::TcpHeader::decode(r);
    if (tcp.src_port != kVrioPort || tcp.dst_port != kVrioPort)
        return false;

    out.src = eh.src;
    out.dst = eh.dst;
    out.wire_msg_id = tcp.ack;
    out.offset = tcp.seq;
    out.data = std::span<const uint8_t>(frame.bytes).subspan(kMinSize);
    return true;
}

uint32_t
skbPagesNeeded(uint32_t message_bytes, uint32_t mtu)
{
    constexpr uint32_t kPage = 4096;
    uint32_t mss = net::mssForMtu(mtu);
    uint32_t pages = 0;
    uint32_t remaining = message_bytes;
    while (remaining > 0) {
        uint32_t chunk = std::min(mss, remaining);
        // Each received fragment is stored with its L3/L4 headers.
        uint32_t frag_bytes =
            chunk + net::kIpv4HeaderSize + net::kTcpHeaderSize;
        pages += (frag_bytes + kPage - 1) / kPage;
        remaining -= chunk;
    }
    return pages;
}

bool
zeroCopyEligible(uint32_t message_bytes, uint32_t mtu)
{
    // An SKB maps up to 17 fragments, each contained in a 4KB page;
    // reassembly is zero-copy iff the message's received fragments
    // fit in that page budget (Section 4.4).  MTU 8100 makes a full
    // 64KB message need exactly 17 pages; MTU 9000 would need 22.
    return skbPagesNeeded(message_bytes, mtu) <= kSkbMaxFrags;
}

} // namespace vrio::transport
