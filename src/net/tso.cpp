#include "net/tso.hpp"

#include <algorithm>

#include "net/frame_pool.hpp"
#include "net/inet.hpp"
#include "util/logging.hpp"

namespace vrio::net {

bool
frameIsTcpIpv4(const Frame &frame)
{
    if (frame.bytes.size() <
        kEtherHeaderSize + kIpv4HeaderSize + kTcpHeaderSize) {
        return false;
    }
    EtherHeader eh = frame.ether();
    if (eh.ether_type != uint16_t(EtherType::Ipv4))
        return false;
    ByteReader r(frame.l3());
    Ipv4Header ip = Ipv4Header::decode(r);
    return ip.protocol == 6;
}

std::vector<FramePtr>
tsoSegment(const Frame &frame, uint32_t mtu)
{
    vrio_assert(frame.pad == 0, "TSO requires materialized payload");
    vrio_assert(frameIsTcpIpv4(frame), "TSO on a non-TCP/IPv4 frame");

    ByteReader r(frame.bytes);
    EtherHeader eh = EtherHeader::decode(r);
    Ipv4Header ip = Ipv4Header::decode(r);
    TcpHeader tcp = TcpHeader::decode(r);
    auto payload = std::span<const uint8_t>(frame.bytes)
                       .subspan(kEtherHeaderSize + kIpv4HeaderSize +
                                kTcpHeaderSize);

    vrio_assert(payload.size() <= kTsoMaxPayload,
                "TSO payload exceeds the 64KB TCP message limit: ",
                payload.size());

    uint32_t mss = mssForMtu(mtu);
    vrio_assert(mss > 0, "MTU ", mtu, " leaves no room for payload");

    std::vector<FramePtr> out;
    out.reserve(std::max<size_t>(1, (payload.size() + mss - 1) / mss));
    uint32_t offset = 0;
    do {
        uint32_t chunk =
            std::min<uint32_t>(mss, uint32_t(payload.size()) - offset);
        FramePtr seg = FramePool::local().acquire();
        seg->bytes.reserve(kEtherHeaderSize + kIpv4HeaderSize +
                           kTcpHeaderSize + chunk);
        ByteWriter w(seg->bytes);
        eh.encode(w);
        Ipv4Header seg_ip = ip;
        seg_ip.total_length =
            uint16_t(kIpv4HeaderSize + kTcpHeaderSize + chunk);
        seg_ip.identification = uint16_t(ip.identification + out.size());
        seg_ip.encode(w);
        TcpHeader seg_tcp = tcp;
        seg_tcp.seq = tcp.seq + offset; // hardware TSO seq advance
        seg_tcp.encode(w);
        w.putBytes(payload.subspan(offset, chunk));
        seg->trace_id = frame.trace_id;
        seg->born = frame.born;
        out.push_back(std::move(seg));
        offset += chunk;
    } while (offset < payload.size());

    return out;
}

} // namespace vrio::net
