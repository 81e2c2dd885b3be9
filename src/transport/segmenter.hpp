/**
 * @file
 * Software segmentation of oversized requests (Section 4.3).
 *
 * "Network stacks do not produce packet sizes bigger than 64KB, so
 * the vRIO transport driver only needs to segment block I/O traffic."
 * forEachPart() walks a request payload as <= 64KB transport messages,
 * each of which becomes one TSO send; segmentRequest() collects owned
 * copies of them for senders that transmit later.
 */
#ifndef VRIO_TRANSPORT_SEGMENTER_HPP
#define VRIO_TRANSPORT_SEGMENTER_HPP

#include <algorithm>
#include <utility>
#include <vector>

#include "transport/header.hpp"

namespace vrio::transport {

/** One software segment: a header and the payload slice it carries. */
struct SoftSegment
{
    TransportHeader hdr;
    Bytes payload;
};

namespace detail {
/**
 * Bytes per part (@p max_part, 0 meaning the TSO message bound) and
 * the number of parts for a @p payload_bytes payload; panics when the
 * part count does not fit the header.
 */
std::pair<size_t, size_t> partLayout(size_t payload_bytes,
                                     uint32_t max_part);
} // namespace detail

/**
 * Call @p fn(hdr, slice) for each part of @p payload, in order, where
 * slice views at most @p max_part bytes (default: the TSO message
 * bound) of @p payload — nothing is copied.  @p proto is the
 * prototype header: its type/device/serial/generation/sector fields
 * are copied to each part and part/parts/total_len are filled in.  A
 * zero-length payload yields a single empty part (e.g. block reads
 * carry no request data).
 */
template <typename Fn>
void
forEachPart(const TransportHeader &proto, std::span<const uint8_t> payload,
            Fn &&fn, uint32_t max_part = 0)
{
    auto [part_bytes, nparts] = detail::partLayout(payload.size(), max_part);
    for (size_t i = 0; i < nparts; ++i) {
        size_t off = i * part_bytes;
        auto slice =
            payload.subspan(off, std::min(part_bytes, payload.size() - off));
        TransportHeader hdr = proto;
        hdr.part = uint16_t(i);
        hdr.parts = uint16_t(nparts);
        hdr.total_len = uint32_t(slice.size());
        fn(hdr, slice);
    }
}

/** forEachPart() collected into owned segments. */
std::vector<SoftSegment>
segmentRequest(const TransportHeader &proto,
               std::span<const uint8_t> payload, uint32_t max_part = 0);

} // namespace vrio::transport

#endif // VRIO_TRANSPORT_SEGMENTER_HPP
