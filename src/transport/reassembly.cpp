#include "transport/reassembly.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "util/logging.hpp"

namespace vrio::transport {

Reassembler::Reassembler(sim::EventQueue &eq, uint32_t mtu,
                         sim::Tick timeout)
    : eq(eq), mtu(mtu), timeout(timeout)
{}

void
Reassembler::scheduleSweep()
{
    if (sweep_scheduled)
        return;
    sweep_scheduled = true;
    eq.schedule(timeout, [this]() {
        sweep_scheduled = false;
        sweep();
    });
}

void
Reassembler::sweep()
{
    sim::Tick now = eq.now();
    for (auto it = partials.begin(); it != partials.end();) {
        auto next = std::next(it);
        if (now - it->second.last_activity >= timeout) {
            ++expired;
            drop(it);
        }
        it = next;
    }
    if (!partials.empty())
        scheduleSweep();
}

Reassembler::PartialMap::iterator
Reassembler::partialFor(const Key &key)
{
    auto it = partials.lower_bound(key);
    if (it != partials.end() && it->first == key)
        return it;
    if (spare.empty())
        return partials.emplace_hint(it, key, Partial{});
    PartialMap::node_type node = std::move(spare.back());
    spare.pop_back();
    node.key() = key;
    Partial &p = node.mapped();
    p.head.fill(0);
    p.payload.clear();
    p.extents.clear();
    p.bytes_received = 0;
    p.expected_total.reset();
    return partials.insert(it, std::move(node));
}

void
Reassembler::drop(PartialMap::iterator it)
{
    // A handful of spare nodes covers the partials a receiver keeps in
    // flight; the rest go back to the allocator.
    constexpr size_t kMaxSpare = 64;
    auto node = partials.extract(it);
    if (spare.size() < kMaxSpare)
        spare.push_back(std::move(node));
}

std::optional<Message>
Reassembler::feed(const net::Frame &frame)
{
    Segment seg;
    if (!decapsulate(frame, seg)) {
        ++foreign;
        return std::nullopt;
    }
    if (uint64_t(seg.offset) + seg.data.size() > net::kTsoMaxPayload) {
        // No vRIO message is that long: hostile or garbled offsets
        // must not size a buffer.
        ++foreign;
        return std::nullopt;
    }

    auto it = partialFor(Key{seg.src.toU64(), seg.wire_msg_id});
    Partial &p = it->second;
    p.src = seg.src;
    p.dst = seg.dst;
    p.last_activity = eq.now();

    // Reject duplicate or overlapping segments (can happen when a
    // wire-message id is reused after an expiry raced a late frame).
    uint32_t off = seg.offset;
    uint32_t len = uint32_t(seg.data.size());
    bool overlap = std::any_of(
        p.extents.begin(), p.extents.end(), [&](const auto &e) {
            return off < e.first + e.second && e.first < off + len;
        });
    if (len == 0 || overlap) {
        ++duplicate_segments;
        return std::nullopt;
    }

    // The segment at offset 0 carries the transport header, which
    // tells us the full message length.
    constexpr uint32_t kHead = TransportHeader::kSize;
    if (off == 0) {
        ByteReader r(seg.data);
        TransportHeader hdr;
        if (!TransportHeader::decode(r, hdr)) {
            // Corrupt leading segment: drop the whole partial.
            drop(it);
            ++foreign;
            return std::nullopt;
        }
        p.expected_total = kHead + hdr.total_len;
        p.payload.reserve(std::min(hdr.total_len, kMaxMessagePayload));
    }

    // Header bytes go to head, the rest to the payload buffer: appended
    // when in order, zero-filling only a gap left by a missing segment.
    auto bytes = seg.data;
    if (off < kHead) {
        size_t n = std::min<size_t>(bytes.size(), kHead - off);
        std::memcpy(p.head.data() + off, bytes.data(), n);
        bytes = bytes.subspan(n);
        off = kHead;
    }
    if (!bytes.empty()) {
        size_t at = off - kHead;
        if (at == p.payload.size()) {
            p.payload.insert(p.payload.end(), bytes.begin(), bytes.end());
        } else {
            if (p.payload.size() < at + bytes.size())
                p.payload.resize(at + bytes.size());
            std::memcpy(p.payload.data() + at, bytes.data(), bytes.size());
        }
    }
    p.extents.emplace_back(seg.offset, len);
    p.bytes_received += len;

    auto done = tryComplete(it);
    if (!done)
        scheduleSweep();
    return done;
}

std::optional<Message>
Reassembler::tryComplete(PartialMap::iterator it)
{
    Partial &p = it->second;
    if (!p.expected_total || p.bytes_received < *p.expected_total)
        return std::nullopt;

    // End-to-end integrity: FCS-passing corruption (a bit flip inside
    // a buffer rather than on the wire) surfaces only here, once the
    // whole message is back together.  So does a header whose
    // total_len is shorter than the bytes its segments carry (garbled
    // or hostile).  Drop either; the sender's retransmission
    // machinery recovers.
    if (p.bytes_received != *p.expected_total ||
        !verifyMessage(p.head, p.payload)) {
        drop(it);
        ++checksum_drops;
        return std::nullopt;
    }

    Message msg;
    ByteReader r(p.head);
    bool ok = TransportHeader::decode(r, msg.hdr);
    vrio_assert(ok, "header decode failed on a complete message");
    // Segments past the end (a reused wire id) can leave the buffer
    // longer than the payload the header declares.
    p.payload.resize(msg.hdr.total_len);
    msg.payload = std::move(p.payload);
    msg.src = p.src;
    msg.dst = p.dst;
    msg.zero_copy = zeroCopyEligible(*p.expected_total, mtu);
    if (!msg.zero_copy)
        ++copied;

    drop(it);
    ++completed;
    return msg;
}

std::optional<MessageAssembler::Assembled>
MessageAssembler::feed(Message msg)
{
    if (msg.hdr.parts <= 1) {
        Assembled a;
        a.hdr = msg.hdr;
        a.payload = std::move(msg.payload);
        a.src = msg.src;
        a.zero_copy = msg.zero_copy;
        return a;
    }

    GroupKey key{msg.src.toU64(), msg.hdr.device_id,
                 msg.hdr.request_serial, msg.hdr.generation};
    Group &g = groups[key];
    g.expected_parts = msg.hdr.parts;
    uint16_t part = msg.hdr.part;
    g.parts[part] = std::move(msg);

    if (g.parts.size() < g.expected_parts)
        return std::nullopt;

    Assembled a;
    a.hdr = g.parts.begin()->second.hdr;
    a.src = g.parts.begin()->second.src;
    for (auto &[idx, m] : g.parts) {
        vrio_assert(idx < g.expected_parts, "part index out of range");
        a.payload.insert(a.payload.end(), m.payload.begin(),
                         m.payload.end());
        a.zero_copy = a.zero_copy && m.zero_copy;
    }
    a.hdr.part = 0;
    a.hdr.parts = 1;
    a.hdr.total_len = uint32_t(a.payload.size());
    groups.erase(key);
    return a;
}

bool
DuplicateFilter::admit(uint32_t device_id, uint64_t serial,
                       uint16_t generation)
{
    auto [it, inserted] =
        in_service.try_emplace({device_id, serial}, Entry{generation});
    if (inserted)
        return true;
    // Generations wrap only after 65k retries of one request (the
    // retransmit queue gives up orders of magnitude earlier), so a
    // plain max is safe.
    if (generation > it->second.generation)
        it->second.generation = generation;
    ++suppressed_;
    return false;
}

void
DuplicateFilter::bind(uint32_t device_id, uint64_t serial, unsigned worker)
{
    auto it = in_service.find({device_id, serial});
    if (it != in_service.end())
        it->second.worker = worker;
}

uint16_t
DuplicateFilter::take(uint32_t device_id, uint64_t serial, uint16_t fallback)
{
    auto it = in_service.find({device_id, serial});
    if (it == in_service.end())
        return fallback;
    uint16_t generation = std::max(fallback, it->second.generation);
    in_service.erase(it);
    return generation;
}

size_t
DuplicateFilter::dropWorker(unsigned worker)
{
    size_t dropped = 0;
    for (auto it = in_service.begin(); it != in_service.end();) {
        if (it->second.worker == worker) {
            it = in_service.erase(it);
            ++dropped;
        } else {
            ++it;
        }
    }
    return dropped;
}

size_t
DuplicateFilter::inServiceOf(uint32_t device_id) const
{
    auto first = in_service.lower_bound({device_id, 0});
    auto last = in_service.lower_bound({device_id + 1, 0});
    return size_t(std::distance(first, last));
}

size_t
DuplicateFilter::dropDevice(uint32_t device_id)
{
    auto first = in_service.lower_bound({device_id, 0});
    auto last = in_service.lower_bound({device_id + 1, 0});
    size_t dropped = size_t(std::distance(first, last));
    in_service.erase(first, last);
    return dropped;
}

bool
DuplicateFilter::seed(uint32_t device_id, uint64_t serial,
                      uint16_t generation)
{
    auto [it, inserted] =
        in_service.try_emplace({device_id, serial}, Entry{generation});
    (void)it;
    return inserted;
}

void
MessageAssembler::dropRequest(uint32_t device_id, uint64_t serial)
{
    for (auto it = groups.begin(); it != groups.end();) {
        if (it->first.device_id == device_id &&
            it->first.serial == serial) {
            it = groups.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace vrio::transport
