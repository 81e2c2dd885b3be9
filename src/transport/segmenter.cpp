#include "transport/segmenter.hpp"

#include "transport/encap.hpp"
#include "util/logging.hpp"

namespace vrio::transport {

std::pair<size_t, size_t>
detail::partLayout(size_t payload_bytes, uint32_t max_part)
{
    if (max_part == 0)
        max_part = kMaxMessagePayload;
    size_t nparts = std::max<size_t>(
        1, (payload_bytes + max_part - 1) / max_part);
    vrio_assert(nparts <= 0xffff, "request needs too many parts: ",
                nparts);
    return {max_part, nparts};
}

std::vector<SoftSegment>
segmentRequest(const TransportHeader &proto,
               std::span<const uint8_t> payload, uint32_t max_part)
{
    std::vector<SoftSegment> out;
    forEachPart(
        proto, payload,
        [&out](const TransportHeader &hdr, std::span<const uint8_t> slice) {
            out.push_back({hdr, Bytes(slice.begin(), slice.end())});
        },
        max_part);
    return out;
}

} // namespace vrio::transport
