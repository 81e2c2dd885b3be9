/**
 * @file
 * vRIO transport protocol tests: header codec, encapsulation, TSO +
 * reassembly round trips (with loss, duplication, reordering),
 * software segmentation, the retransmission state machine, zero-copy
 * page accounting, and the control channel.
 */
#include <gtest/gtest.h>

#include "net/tso.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "transport/control.hpp"
#include "transport/encap.hpp"
#include "transport/header.hpp"
#include "transport/reassembly.hpp"
#include "transport/retransmit.hpp"
#include "transport/segmenter.hpp"
#include "util/crc32.hpp"
#include "virtio/virtio_blk.hpp"

namespace vrio::transport {
namespace {

using net::MacAddress;
using sim::kMicrosecond;
using sim::kMillisecond;

TEST(TransportHeader, CodecRoundTrip)
{
    TransportHeader h;
    h.type = MsgType::BlkReq;
    h.device_id = 42;
    h.request_serial = 0x1122334455ull;
    h.generation = 3;
    h.part = 2;
    h.parts = 5;
    h.flags = kFlagRetransmit;
    h.total_len = 4096;
    h.io_len = 16384;
    h.sector = 0xabcdef;
    h.blk_type = 1;
    h.status = 0;

    Bytes buf;
    ByteWriter w(buf);
    h.encode(w);
    ASSERT_EQ(buf.size(), TransportHeader::kSize);

    ByteReader r(buf);
    TransportHeader d;
    ASSERT_TRUE(TransportHeader::decode(r, d));
    EXPECT_EQ(d.type, MsgType::BlkReq);
    EXPECT_EQ(d.device_id, 42u);
    EXPECT_EQ(d.request_serial, h.request_serial);
    EXPECT_EQ(d.generation, 3);
    EXPECT_EQ(d.part, 2);
    EXPECT_EQ(d.parts, 5);
    EXPECT_EQ(d.flags, kFlagRetransmit);
    EXPECT_EQ(d.total_len, 4096u);
    EXPECT_EQ(d.io_len, 16384u);
    EXPECT_EQ(d.sector, 0xabcdefull);
}

TEST(TransportHeader, RejectsBadMagicAndVersion)
{
    Bytes buf(TransportHeader::kSize, 0);
    ByteReader r1(buf);
    TransportHeader out;
    EXPECT_FALSE(TransportHeader::decode(r1, out));

    // Correct magic, wrong version.
    buf[0] = 0x52;
    buf[1] = 0x56;
    buf[2] = 99;
    ByteReader r2(buf);
    EXPECT_FALSE(TransportHeader::decode(r2, out));

    Bytes tiny(4, 0);
    ByteReader r3(tiny);
    EXPECT_FALSE(TransportHeader::decode(r3, out));
}

TransportHeader
netHeader(uint32_t payload_len, uint32_t device = 1)
{
    TransportHeader h;
    h.type = MsgType::NetOut;
    h.device_id = device;
    h.total_len = payload_len;
    return h;
}

TEST(Encap, RoundTripSmallMessage)
{
    Bytes payload = {1, 2, 3, 4, 5};
    auto frame = encapsulate(MacAddress::local(1), MacAddress::local(2),
                             777, netHeader(5), payload);
    EXPECT_TRUE(net::frameIsTcpIpv4(*frame));

    Segment seg;
    ASSERT_TRUE(decapsulate(*frame, seg));
    EXPECT_EQ(seg.src, MacAddress::local(1));
    EXPECT_EQ(seg.dst, MacAddress::local(2));
    EXPECT_EQ(seg.wire_msg_id, 777u);
    EXPECT_EQ(seg.offset, 0u);
    EXPECT_EQ(seg.data.size(), TransportHeader::kSize + 5);

    ByteReader r(seg.data);
    TransportHeader h;
    ASSERT_TRUE(TransportHeader::decode(r, h));
    EXPECT_EQ(h.total_len, 5u);
    EXPECT_EQ(r.getBytes(5), payload);
}

TEST(Encap, RejectsForeignFrames)
{
    net::EtherHeader eh;
    eh.ether_type = uint16_t(net::EtherType::Raw);
    auto frame = net::makeFrame(eh, {});
    Segment seg;
    EXPECT_FALSE(decapsulate(*frame, seg));
}

TEST(Encap, OversizedPayloadPanics)
{
    Bytes payload(kMaxMessagePayload + 1);
    EXPECT_DEATH(encapsulate(MacAddress::local(1), MacAddress::local(2), 1,
                             netHeader(uint32_t(payload.size())), payload),
                 "64KB");
}

TEST(SkbPages, Mtu8100YieldsSeventeenPagesFor64K)
{
    // The paper's Section 4.4 arithmetic: 8 two-page fragments plus a
    // sub-page tail = 17 pages for a full 64KB message at MTU 8100.
    EXPECT_EQ(skbPagesNeeded(64 * 1024, net::kMtuVrioJumbo), 17u);
    EXPECT_TRUE(zeroCopyEligible(64 * 1024, net::kMtuVrioJumbo));
}

TEST(SkbPages, Mtu9000BreaksTheBudget)
{
    EXPECT_GT(skbPagesNeeded(64 * 1024, net::kMtuJumboMax), 17u);
    EXPECT_FALSE(zeroCopyEligible(64 * 1024, net::kMtuJumboMax));
}

TEST(SkbPages, StandardMtuForcesCopy)
{
    EXPECT_FALSE(zeroCopyEligible(64 * 1024, net::kMtuStandard));
    // But small messages remain zero-copy even at MTU 1500.
    EXPECT_TRUE(zeroCopyEligible(4096, net::kMtuStandard));
}

struct ReassemblyHarness
{
    sim::Simulation sim;
    Reassembler reasm{sim.events(), net::kMtuVrioJumbo};
    sim::Random rng{42};

    /** Encapsulate, TSO-split, and feed with optional shuffling/loss. */
    std::optional<Message>
    sendThrough(const TransportHeader &hdr, const Bytes &payload,
                uint32_t wire_id, bool shuffle = false)
    {
        auto frame = encapsulate(MacAddress::local(1),
                                 MacAddress::local(2), wire_id, hdr,
                                 payload);
        auto segs = net::tsoSegment(*frame, net::kMtuVrioJumbo);
        if (shuffle) {
            for (size_t i = segs.size(); i > 1; --i)
                std::swap(segs[i - 1], segs[rng.uniformInt(0, i - 1)]);
        }
        std::optional<Message> out;
        for (const auto &seg : segs) {
            auto m = reasm.feed(*seg);
            if (m) {
                EXPECT_FALSE(out.has_value()) << "completed twice";
                out = std::move(m);
            }
        }
        return out;
    }
};

TEST(Reassembler, SingleSegmentMessage)
{
    ReassemblyHarness h;
    Bytes payload = {9, 8, 7};
    auto msg = h.sendThrough(netHeader(3), payload, 1);
    ASSERT_TRUE(msg);
    EXPECT_EQ(msg->payload, payload);
    EXPECT_TRUE(msg->zero_copy);
    EXPECT_EQ(h.reasm.messagesCompleted(), 1u);
    EXPECT_EQ(h.reasm.partialCount(), 0u);
}

TEST(Reassembler, MultiSegmentInOrder)
{
    ReassemblyHarness h;
    Bytes payload(40000);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(i * 31);
    auto msg = h.sendThrough(netHeader(40000), payload, 2);
    ASSERT_TRUE(msg);
    EXPECT_EQ(msg->payload, payload);
}

TEST(Reassembler, OutOfOrderSegments)
{
    ReassemblyHarness h;
    for (int iter = 0; iter < 20; ++iter) {
        Bytes payload(h.rng.uniformInt(1, kMaxMessagePayload));
        for (size_t i = 0; i < payload.size(); ++i)
            payload[i] = uint8_t(h.rng.next());
        auto msg = h.sendThrough(netHeader(uint32_t(payload.size())),
                                 payload, 100 + iter, /*shuffle=*/true);
        ASSERT_TRUE(msg) << "iter " << iter;
        EXPECT_EQ(msg->payload, payload);
    }
}

TEST(Reassembler, InterleavedMessagesFromDifferentIds)
{
    ReassemblyHarness h;
    Bytes p1(20000, 0x11), p2(20000, 0x22);
    auto f1 = encapsulate(MacAddress::local(1), MacAddress::local(2), 10,
                          netHeader(20000), p1);
    auto f2 = encapsulate(MacAddress::local(1), MacAddress::local(2), 11,
                          netHeader(20000), p2);
    auto s1 = net::tsoSegment(*f1, net::kMtuVrioJumbo);
    auto s2 = net::tsoSegment(*f2, net::kMtuVrioJumbo);
    int complete = 0;
    for (size_t i = 0; i < std::max(s1.size(), s2.size()); ++i) {
        if (i < s1.size() && h.reasm.feed(*s1[i]))
            ++complete;
        if (i < s2.size() && h.reasm.feed(*s2[i]))
            ++complete;
    }
    EXPECT_EQ(complete, 2);
}

TEST(Reassembler, LostSegmentExpires)
{
    ReassemblyHarness h;
    Bytes payload(30000, 0x33);
    auto frame = encapsulate(MacAddress::local(1), MacAddress::local(2),
                             5, netHeader(30000), payload);
    auto segs = net::tsoSegment(*frame, net::kMtuVrioJumbo);
    ASSERT_GE(segs.size(), 2u);
    // Drop the middle segment.
    for (size_t i = 0; i < segs.size(); ++i) {
        if (i != 1) {
            EXPECT_FALSE(h.reasm.feed(*segs[i]).has_value());
        }
    }
    EXPECT_EQ(h.reasm.partialCount(), 1u);
    h.sim.runUntil(h.sim.now() + 200 * kMillisecond);
    EXPECT_EQ(h.reasm.partialCount(), 0u);
    EXPECT_EQ(h.reasm.partialsExpired(), 1u);
}

TEST(Reassembler, DuplicateSegmentsIgnored)
{
    ReassemblyHarness h;
    Bytes payload(20000, 0x44);
    auto frame = encapsulate(MacAddress::local(1), MacAddress::local(2),
                             6, netHeader(20000), payload);
    auto segs = net::tsoSegment(*frame, net::kMtuVrioJumbo);
    std::optional<Message> msg;
    for (const auto &seg : segs) {
        h.reasm.feed(*seg);
        auto again = h.reasm.feed(*seg); // duplicate
        EXPECT_FALSE(again.has_value());
    }
    EXPECT_GT(h.reasm.duplicateSegments(), 0u);
}

TEST(Reassembler, CountsForeignFrames)
{
    ReassemblyHarness h;
    net::EtherHeader eh;
    eh.ether_type = uint16_t(net::EtherType::Raw);
    auto junk = net::makeFrame(eh, {});
    EXPECT_FALSE(h.reasm.feed(*junk).has_value());
    EXPECT_EQ(h.reasm.foreignFrames(), 1u);
}

TEST(Reassembler, SegmentPastTheMessageBoundIsForeign)
{
    // A TCP seq beyond any 64KB message must not size a buffer.
    ReassemblyHarness h;
    auto frame = encapsulate(MacAddress::local(1), MacAddress::local(2), 9,
                             netHeader(4), Bytes{1, 2, 3, 4});
    constexpr size_t kSeqAt = net::kEtherHeaderSize + net::kIpv4HeaderSize + 4;
    frame->bytes[kSeqAt] = 0xff; // seq = 0xff000000
    EXPECT_FALSE(h.reasm.feed(*frame).has_value());
    EXPECT_EQ(h.reasm.foreignFrames(), 1u);
    EXPECT_EQ(h.reasm.partialCount(), 0u);
}

TEST(Reassembler, CopiedReassemblyForStandardMtu)
{
    sim::Simulation sim;
    Reassembler reasm(sim.events(), net::kMtuStandard);
    Bytes payload(60000, 0x5a);
    auto frame = encapsulate(MacAddress::local(1), MacAddress::local(2),
                             7, netHeader(60000), payload);
    auto segs = net::tsoSegment(*frame, net::kMtuStandard);
    std::optional<Message> msg;
    for (const auto &seg : segs) {
        auto m = reasm.feed(*seg);
        if (m)
            msg = std::move(m);
    }
    ASSERT_TRUE(msg);
    EXPECT_FALSE(msg->zero_copy);
    EXPECT_EQ(reasm.copiedReassemblies(), 1u);
    EXPECT_EQ(msg->payload, payload);
}

TEST(Segmenter, EmptyPayloadYieldsOnePart)
{
    TransportHeader proto;
    proto.type = MsgType::BlkReq;
    auto parts = segmentRequest(proto, {});
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0].hdr.parts, 1);
    EXPECT_EQ(parts[0].hdr.total_len, 0u);
}

TEST(Segmenter, LargeBlockPayloadSplits)
{
    TransportHeader proto;
    proto.type = MsgType::BlkReq;
    proto.device_id = 3;
    proto.request_serial = 17;
    proto.sector = 2048;
    Bytes payload(200 * 1024);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(i);

    auto parts = segmentRequest(proto, payload);
    size_t expected =
        (payload.size() + kMaxMessagePayload - 1) / kMaxMessagePayload;
    ASSERT_EQ(parts.size(), expected);

    Bytes rebuilt;
    for (size_t i = 0; i < parts.size(); ++i) {
        EXPECT_EQ(parts[i].hdr.part, i);
        EXPECT_EQ(parts[i].hdr.parts, parts.size());
        EXPECT_EQ(parts[i].hdr.device_id, 3u);
        EXPECT_EQ(parts[i].hdr.request_serial, 17u);
        EXPECT_EQ(parts[i].hdr.sector, 2048u);
        EXPECT_LE(parts[i].payload.size(), kMaxMessagePayload);
        rebuilt.insert(rebuilt.end(), parts[i].payload.begin(),
                       parts[i].payload.end());
    }
    EXPECT_EQ(rebuilt, payload);
}

TEST(Segmenter, PartsViewThePayloadWithoutCopying)
{
    TransportHeader proto;
    proto.type = MsgType::BlkResp;
    Bytes payload(2 * kMaxMessagePayload + 10, 0x5a);
    std::vector<std::pair<TransportHeader, std::span<const uint8_t>>> seen;
    forEachPart(proto, payload,
                [&](const TransportHeader &hdr, std::span<const uint8_t> s) {
                    seen.emplace_back(hdr, s);
                });
    ASSERT_EQ(seen.size(), 3u);
    size_t off = 0;
    for (size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].first.part, i);
        EXPECT_EQ(seen[i].first.parts, 3);
        EXPECT_EQ(seen[i].first.total_len, seen[i].second.size());
        EXPECT_EQ(seen[i].second.data(), payload.data() + off);
        off += seen[i].second.size();
    }
    EXPECT_EQ(off, payload.size());
    EXPECT_EQ(seen[2].second.size(), 10u);
}

TEST(MessageAssembler, SinglePartPassThrough)
{
    MessageAssembler ma;
    Message m;
    m.hdr = netHeader(3);
    m.payload = {1, 2, 3};
    m.src = MacAddress::local(1);
    auto a = ma.feed(std::move(m));
    ASSERT_TRUE(a);
    EXPECT_EQ(a->payload, (Bytes{1, 2, 3}));
    EXPECT_EQ(ma.pendingGroups(), 0u);
}

TEST(MessageAssembler, MultiPartEndToEndWithReassembler)
{
    // Full path: segmentRequest -> encapsulate -> TSO -> Reassembler
    // -> MessageAssembler, out of order at both levels.
    sim::Simulation sim;
    sim::Random rng(7);
    Reassembler reasm(sim.events(), net::kMtuVrioJumbo);
    MessageAssembler ma;

    TransportHeader proto;
    proto.type = MsgType::BlkReq;
    proto.device_id = 9;
    proto.request_serial = 5;
    proto.blk_type = uint8_t(virtio::BlkType::Out);
    Bytes payload(150 * 1024);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(rng.next());

    auto parts = segmentRequest(proto, payload);
    std::vector<net::FramePtr> wire;
    uint32_t wire_id = 0;
    for (const auto &p : parts) {
        auto frame = encapsulate(MacAddress::local(1),
                                 MacAddress::local(2), ++wire_id, p.hdr,
                                 p.payload);
        for (auto &seg : net::tsoSegment(*frame, net::kMtuVrioJumbo))
            wire.push_back(std::move(seg));
    }
    for (size_t i = wire.size(); i > 1; --i)
        std::swap(wire[i - 1], wire[rng.uniformInt(0, i - 1)]);

    std::optional<MessageAssembler::Assembled> result;
    for (const auto &f : wire) {
        auto m = reasm.feed(*f);
        if (m) {
            auto a = ma.feed(std::move(*m));
            if (a) {
                EXPECT_FALSE(result.has_value());
                result = std::move(a);
            }
        }
    }
    ASSERT_TRUE(result);
    EXPECT_EQ(result->payload, payload);
    EXPECT_EQ(result->hdr.device_id, 9u);
    EXPECT_EQ(ma.pendingGroups(), 0u);
}

TEST(MessageAssembler, DifferentGenerationsKeptSeparate)
{
    MessageAssembler ma;
    auto part = [](uint16_t gen, uint16_t idx) {
        Message m;
        m.hdr.type = MsgType::BlkReq;
        m.hdr.device_id = 1;
        m.hdr.request_serial = 2;
        m.hdr.generation = gen;
        m.hdr.part = idx;
        m.hdr.parts = 2;
        m.hdr.total_len = 1;
        m.payload = {uint8_t(gen * 10 + idx)};
        m.src = MacAddress::local(1);
        return m;
    };
    EXPECT_FALSE(ma.feed(part(0, 0)).has_value());
    EXPECT_FALSE(ma.feed(part(1, 0)).has_value());
    EXPECT_EQ(ma.pendingGroups(), 2u);
    auto done = ma.feed(part(1, 1));
    ASSERT_TRUE(done);
    EXPECT_EQ(done->payload, (Bytes{10, 11}));
    ma.dropRequest(1, 2);
    EXPECT_EQ(ma.pendingGroups(), 0u);
}

// --- Retransmission ---------------------------------------------------

struct RetransmitHarness
{
    sim::Simulation sim;
    std::vector<std::pair<uint64_t, uint16_t>> sends;
    std::vector<uint64_t> failures;
    RetransmitConfig cfg;
    std::unique_ptr<RetransmitQueue> rq;

    void
    build()
    {
        rq = std::make_unique<RetransmitQueue>(
            sim.events(), cfg,
            [this](uint64_t serial, uint16_t gen) {
                sends.emplace_back(serial, gen);
            },
            [this](uint64_t serial) { failures.push_back(serial); });
    }
};

TEST(Retransmit, ImmediateResponseNoRetry)
{
    RetransmitHarness h;
    h.build();
    h.rq->track(1);
    ASSERT_EQ(h.sends.size(), 1u);
    EXPECT_EQ(h.rq->accept(1, 0), RetransmitQueue::Accept::Ok);
    h.sim.runUntil(h.sim.now() + sim::kSecond);
    EXPECT_EQ(h.sends.size(), 1u);
    EXPECT_EQ(h.rq->retransmissions(), 0u);
}

TEST(Retransmit, TimeoutDoublesAndBumpsGeneration)
{
    RetransmitHarness h;
    h.build();
    h.rq->track(1);
    // Let two timeouts fire: at 10ms and 10+20=30ms.
    h.sim.runUntil(35 * kMillisecond);
    ASSERT_EQ(h.sends.size(), 3u);
    EXPECT_EQ(h.sends[1], (std::pair<uint64_t, uint16_t>{1, 1}));
    EXPECT_EQ(h.sends[2], (std::pair<uint64_t, uint16_t>{1, 2}));
    EXPECT_EQ(h.rq->retransmissions(), 2u);
    // A response to generation 0 is now stale.
    EXPECT_EQ(h.rq->accept(1, 0), RetransmitQueue::Accept::Stale);
    EXPECT_EQ(h.rq->staleResponses(), 1u);
    // Current generation completes it.
    EXPECT_EQ(h.rq->accept(1, 2), RetransmitQueue::Accept::Ok);
    EXPECT_EQ(h.rq->inFlight(), 0u);
}

TEST(Retransmit, GiveUpAfterRetryCap)
{
    RetransmitHarness h;
    h.cfg.max_retries = 3;
    h.build();
    h.rq->track(7);
    h.sim.runUntil(sim::kSecond);
    // initial + 3 retries, then failure at the 4th expiry.
    EXPECT_EQ(h.sends.size(), 4u);
    ASSERT_EQ(h.failures.size(), 1u);
    EXPECT_EQ(h.failures[0], 7u);
    EXPECT_EQ(h.rq->giveUps(), 1u);
    EXPECT_EQ(h.rq->accept(7, 3), RetransmitQueue::Accept::Unknown);
}

TEST(Retransmit, ExpiryScheduleIsExponential)
{
    RetransmitHarness h;
    h.cfg.max_retries = 4;
    h.build();
    h.rq->track(1);
    // Expiries at 10, 30, 70, 150 ms.
    h.sim.runUntil(9 * kMillisecond);
    EXPECT_EQ(h.sends.size(), 1u);
    h.sim.runUntil(11 * kMillisecond);
    EXPECT_EQ(h.sends.size(), 2u);
    h.sim.runUntil(29 * kMillisecond);
    EXPECT_EQ(h.sends.size(), 2u);
    h.sim.runUntil(31 * kMillisecond);
    EXPECT_EQ(h.sends.size(), 3u);
    h.sim.runUntil(71 * kMillisecond);
    EXPECT_EQ(h.sends.size(), 4u);
}

TEST(Retransmit, UncappedBackoffSaturatesInsteadOfWrapping)
{
    // With max_timeout == 0 the timeout doubles forever; after ~50
    // expiries the naive doubling would wrap Tick and schedule into
    // the past (a panic).  The backoff must saturate instead and the
    // give-up path must still fire.
    RetransmitHarness h;
    h.cfg.initial_timeout = 1; // 1 tick: reach the huge range fast
    h.cfg.max_timeout = 0;
    h.cfg.max_retries = 80; // > 64 doublings
    h.build();
    h.rq->track(1);
    // Drain every expiry; saturated timeouts land near Tick max, so
    // completion (not a time limit) is the only safe horizon.
    h.sim.events().runToCompletion();
    ASSERT_EQ(h.failures.size(), 1u);
    EXPECT_EQ(h.sends.size(), size_t(h.cfg.max_retries) + 1);
}

TEST(Retransmit, StaleGenerationResponseLeavesRequestLive)
{
    // Section 4.5: a response carrying an old generation is ignored —
    // the request keeps running on its current generation and can
    // still complete.
    RetransmitHarness h;
    h.build();
    h.rq->track(9);
    h.sim.runUntil(11 * kMillisecond); // one expiry -> generation 1
    ASSERT_EQ(h.sends.size(), 2u);
    EXPECT_EQ(h.rq->accept(9, 0), RetransmitQueue::Accept::Stale);
    EXPECT_EQ(h.rq->inFlight(), 1u); // still live, timer still armed
    EXPECT_EQ(h.rq->accept(9, 1), RetransmitQueue::Accept::Ok);
    EXPECT_EQ(h.rq->inFlight(), 0u);
    h.sim.runUntil(sim::kSecond);
    EXPECT_TRUE(h.failures.empty());
}

TEST(Retransmit, CancelStopsTimers)
{
    RetransmitHarness h;
    h.build();
    h.rq->track(1);
    h.rq->cancel(1);
    h.sim.runUntil(sim::kSecond);
    EXPECT_EQ(h.sends.size(), 1u);
    EXPECT_TRUE(h.failures.empty());
}

TEST(Retransmit, ManyConcurrentRequests)
{
    RetransmitHarness h;
    h.build();
    for (uint64_t s = 0; s < 100; ++s)
        h.rq->track(s);
    // Complete evens immediately; odds retransmit once then complete.
    for (uint64_t s = 0; s < 100; s += 2)
        EXPECT_EQ(h.rq->accept(s, 0), RetransmitQueue::Accept::Ok);
    h.sim.runUntil(15 * kMillisecond);
    for (uint64_t s = 1; s < 100; s += 2)
        EXPECT_EQ(h.rq->accept(s, 1), RetransmitQueue::Accept::Ok);
    EXPECT_EQ(h.rq->inFlight(), 0u);
    EXPECT_EQ(h.rq->retransmissions(), 50u);
}

TEST(Retransmit, DuplicateTrackPanics)
{
    RetransmitHarness h;
    h.build();
    h.rq->track(1);
    EXPECT_DEATH(h.rq->track(1), "duplicate");
}

// --- Control channel ---------------------------------------------------

TEST(Control, DeviceCreateRoundTrip)
{
    DeviceCreateCmd cmd;
    cmd.kind = DeviceKind::Block;
    cmd.device_id = 12;
    cmd.mac = MacAddress::local(33);
    cmd.capacity_sectors = 1u << 21;

    Bytes buf;
    ByteWriter w(buf);
    cmd.encode(w);
    ASSERT_EQ(buf.size(), DeviceCreateCmd::kSize);

    ByteReader r(buf);
    DeviceCreateCmd out;
    ASSERT_TRUE(DeviceCreateCmd::decode(r, out));
    EXPECT_EQ(out.kind, DeviceKind::Block);
    EXPECT_EQ(out.device_id, 12u);
    EXPECT_EQ(out.mac, MacAddress::local(33));
    EXPECT_EQ(out.capacity_sectors, 1u << 21);
}

TEST(Control, DeviceAckRoundTrip)
{
    DeviceAck ack;
    ack.device_id = 5;
    ack.accepted = 0;
    Bytes buf;
    ByteWriter w(buf);
    ack.encode(w);
    ByteReader r(buf);
    DeviceAck out;
    ASSERT_TRUE(DeviceAck::decode(r, out));
    EXPECT_EQ(out.device_id, 5u);
    EXPECT_EQ(out.accepted, 0);
}

TEST(Control, TruncatedDecodesFail)
{
    Bytes tiny(3, 0);
    ByteReader r1(tiny);
    DeviceCreateCmd c;
    EXPECT_FALSE(DeviceCreateCmd::decode(r1, c));
    ByteReader r2(tiny);
    DeviceAck a;
    EXPECT_FALSE(DeviceAck::decode(r2, a));
    ByteReader r3(tiny);
    HeartbeatMsg h;
    EXPECT_FALSE(HeartbeatMsg::decode(r3, h));
}

TEST(Control, HeartbeatRoundTrip)
{
    HeartbeatMsg hb;
    hb.seq = 0x1122334455667788ull;
    hb.incarnation = 7;
    Bytes buf;
    ByteWriter w(buf);
    hb.encode(w);
    ASSERT_EQ(buf.size(), HeartbeatMsg::kSize);
    ByteReader r(buf);
    HeartbeatMsg out;
    ASSERT_TRUE(HeartbeatMsg::decode(r, out));
    EXPECT_EQ(out.seq, hb.seq);
    EXPECT_EQ(out.incarnation, 7u);
}

// -- end-to-end payload checksum ----------------------------------------

TEST(Checksum, SealVerifyAndSingleFlipDetected)
{
    Bytes msg;
    ByteWriter w(msg);
    TransportHeader h = netHeader(16);
    h.encode(w);
    for (int i = 0; i < 16; ++i)
        msg.push_back(uint8_t(i * 7));

    sealMessage(msg);
    EXPECT_TRUE(verifyMessage(msg));

    // Any single payload flip fails verification...
    msg.back() ^= 0x01;
    EXPECT_FALSE(verifyMessage(msg));
    msg.back() ^= 0x01;
    EXPECT_TRUE(verifyMessage(msg));
    // ...and so does a header flip outside the csum field itself.
    msg[4] ^= 0x80;
    EXPECT_FALSE(verifyMessage(msg));
}

TEST(Checksum, FailedVerifyLeavesBytesUnchanged)
{
    Bytes msg;
    ByteWriter w(msg);
    netHeader(64).encode(w);
    msg.resize(msg.size() + 64, 0x5a);
    sealMessage(msg);
    msg[TransportHeader::kSize + 3] ^= 0x10;

    const Bytes before = msg;
    EXPECT_FALSE(verifyMessage(msg));
    EXPECT_EQ(msg, before);
}

// Sizes from a bare header to past the CRC's 64-byte folding threshold
// and its 16-byte bulk/tail split; the stored value is always the CRC
// of the message with its checksum field zeroed.
TEST(Checksum, SealVerifyRoundTripsAcrossCrcPathSizes)
{
    for (size_t n = TransportHeader::kSize; n <= TransportHeader::kSize + 70;
         ++n) {
        Bytes msg(n);
        for (size_t i = 0; i < n; ++i)
            msg[i] = uint8_t(i * 31 + n);
        sealMessage(msg);
        ASSERT_TRUE(verifyMessage(msg)) << "n=" << n;

        Bytes zeroed = msg;
        zeroed[TransportHeader::kCsumOffset] = 0;
        zeroed[TransportHeader::kCsumOffset + 1] = 0;
        uint16_t want = uint16_t(crc32(zeroed) & 0xffff);
        EXPECT_EQ(msg[TransportHeader::kCsumOffset], uint8_t(want & 0xff));
        EXPECT_EQ(msg[TransportHeader::kCsumOffset + 1], uint8_t(want >> 8));

        msg[n - 1] ^= 0x01;
        EXPECT_FALSE(verifyMessage(msg)) << "n=" << n;
    }
}

TEST(Checksum, ReassemblerDropsFcsPassingCorruption)
{
    // A payload byte flipped in flight with a still-valid FCS sails
    // through the NIC and switch checks; only the transport-level
    // checksum at reassembly catches it.
    sim::Simulation sim;
    Reassembler reasm(sim.events(), net::kMtuVrioJumbo);

    Bytes payload(20000);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(i * 13);
    auto frame = encapsulate(MacAddress::local(1), MacAddress::local(2),
                             5, netHeader(uint32_t(payload.size())),
                             payload);
    frame->bytes.back() ^= 0x40; // in-flight flip, FCS "recomputed"

    std::optional<Message> out;
    for (const auto &seg : net::tsoSegment(*frame, net::kMtuVrioJumbo))
        if (auto m = reasm.feed(*seg))
            out = std::move(m);
    EXPECT_FALSE(out.has_value());
    EXPECT_EQ(reasm.checksumDrops(), 1u);
    EXPECT_EQ(reasm.messagesCompleted(), 0u);
}

// -- server-side duplicate suppression ------------------------------------

TEST(DuplicateFilter, RetryOfInServiceRequestIsSuppressed)
{
    DuplicateFilter f;
    EXPECT_TRUE(f.admit(1, 100, 0));
    EXPECT_EQ(f.inService(), 1u);

    // The client timed out and retried with a bumped generation: the
    // original is still executing, so the retry must not run again.
    EXPECT_FALSE(f.admit(1, 100, 1));
    EXPECT_FALSE(f.admit(1, 100, 2));
    EXPECT_EQ(f.suppressed(), 2u);

    // The response is stamped with the newest generation seen, so the
    // client's retransmit queue (now at generation 2) accepts it.
    EXPECT_EQ(f.take(1, 100, 0), 2);
    EXPECT_EQ(f.inService(), 0u);

    // After completion the serial is forgotten: a fresh request (the
    // client would never reuse a serial, but a lost-response retry
    // arrives exactly like this) executes again — idempotent redo.
    EXPECT_TRUE(f.admit(1, 100, 3));
    EXPECT_EQ(f.take(1, 100, 3), 3);
}

TEST(DuplicateFilter, DistinctDevicesAndSerialsAreIndependent)
{
    DuplicateFilter f;
    EXPECT_TRUE(f.admit(1, 100, 0));
    EXPECT_TRUE(f.admit(2, 100, 0)); // same serial, other device
    EXPECT_TRUE(f.admit(1, 101, 0)); // same device, other serial
    EXPECT_EQ(f.inService(), 3u);
    EXPECT_EQ(f.suppressed(), 0u);
}

TEST(DuplicateFilter, DropWorkerUnblocksRetries)
{
    DuplicateFilter f;
    ASSERT_TRUE(f.admit(1, 7, 0));
    ASSERT_TRUE(f.admit(1, 8, 0));
    f.bind(1, 7, 3);
    f.bind(1, 8, 4);

    // Worker 3 wedged; the watchdog quarantines it.  Its in-service
    // entry must go, or the client's retry would be suppressed
    // forever by a request that will never complete.
    EXPECT_EQ(f.dropWorker(3), 1u);
    EXPECT_TRUE(f.admit(1, 7, 1));
    // Worker 4's entry survived: its retry is still a duplicate.
    EXPECT_FALSE(f.admit(1, 8, 1));
}

TEST(DuplicateFilter, TakeFallsBackWhenEntryGone)
{
    DuplicateFilter f;
    // Crash semantics: clear() forgets everything in service; a
    // response computed before the crash stamps its own generation.
    ASSERT_TRUE(f.admit(1, 9, 5));
    f.clear();
    EXPECT_EQ(f.take(1, 9, 5), 5);
    EXPECT_EQ(f.inService(), 0u);
}

} // namespace
} // namespace vrio::transport
