/**
 * @file
 * Randomized end-to-end properties of the transport stack: under
 * arbitrary loss, duplication and reordering of wire frames, the
 * receiver either assembles the exact original request or nothing —
 * never corrupted data — and the retransmission protocol eventually
 * delivers exactly-once completion semantics to the client.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "net/tso.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "transport/encap.hpp"
#include "transport/reassembly.hpp"
#include "transport/retransmit.hpp"
#include "transport/segmenter.hpp"
#include "virtio/virtio_blk.hpp"

namespace vrio::transport {
namespace {

using net::MacAddress;

/**
 * encapsulate() of the CodecProperty reference message: Ethernet,
 * IPv4, TCP, the transport header (sealed: csum 0x2d4c), then "vRIO".
 */
const Bytes kReferenceFrame = {
    0x02, 0x00, 0x00, 0x00, 0x00, 0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x08, 0x00, 0x45, 0x00, 0x00, 0x58, 0x00, 0x00, 0x40, 0x00, 0x40, 0x06,
    0x3a, 0x9e, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x56, 0x52,
    0x56, 0x52, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x50, 0x10,
    0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x52, 0x56, 0x01, 0x03, 0x03, 0x00,
    0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x04, 0x00,
    0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x4c, 0x2d, 0x76, 0x52, 0x49, 0x4f,
};

/** Apply loss/dup/reorder chaos to a frame sequence. */
std::vector<net::FramePtr>
chaos(const std::vector<net::FramePtr> &in, sim::Random &rng,
      double loss_p, double dup_p, bool shuffle)
{
    std::vector<net::FramePtr> out;
    for (const auto &f : in) {
        if (rng.bernoulli(loss_p))
            continue;
        out.push_back(f);
        if (rng.bernoulli(dup_p))
            out.push_back(f);
    }
    if (shuffle) {
        for (size_t i = out.size(); i > 1; --i)
            std::swap(out[i - 1], out[rng.uniformInt(0, i - 1)]);
    }
    return out;
}

class TransportChaos : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(TransportChaos, AssembledDataIsNeverCorrupt)
{
    sim::Random rng(GetParam());
    sim::Simulation sim;
    Reassembler reasm(sim.events(), net::kMtuVrioJumbo);
    MessageAssembler assembler;

    for (int iter = 0; iter < 60; ++iter) {
        size_t size = rng.uniformInt(1, 180 * 1024);
        Bytes payload(size);
        for (auto &b : payload)
            b = uint8_t(rng.next());

        TransportHeader proto;
        proto.type = MsgType::BlkReq;
        proto.device_id = 1;
        proto.request_serial = uint64_t(iter) + 1;
        proto.sector = 0;
        proto.io_len = uint32_t(size);
        proto.blk_type = uint8_t(virtio::BlkType::Out);

        std::vector<net::FramePtr> wire;
        uint32_t wire_id = uint32_t(iter) * 100;
        for (const auto &part : segmentRequest(proto, payload)) {
            auto frame = encapsulate(MacAddress::local(1),
                                     MacAddress::local(2), ++wire_id,
                                     part.hdr, part.payload);
            for (auto &seg :
                 net::tsoSegment(*frame, net::kMtuVrioJumbo))
                wire.push_back(std::move(seg));
        }

        double loss = rng.uniform(0.0, 0.3);
        double dup = rng.uniform(0.0, 0.2);
        auto frames = chaos(wire, rng, loss, dup, true);

        int assembled = 0;
        for (const auto &f : frames) {
            auto msg = reasm.feed(*f);
            if (!msg)
                continue;
            auto req = assembler.feed(std::move(*msg));
            if (!req)
                continue;
            ++assembled;
            // THE property: if anything assembles, it is bit-exact.
            ASSERT_EQ(req->payload, payload) << "iter " << iter;
            ASSERT_EQ(req->hdr.request_serial, proto.request_serial);
        }
        ASSERT_LE(assembled, 1) << "assembled more than once";
        if (loss == 0.0) {
            ASSERT_EQ(assembled, 1);
        }

        // Flush partial state between iterations (as expiry would).
        sim.runUntil(sim.now() + sim::Tick(200) * sim::kMillisecond);
        assembler.dropRequest(1, proto.request_serial);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportChaos,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RetransmitProperty, EventualDeliveryUnderHeavyLoss)
{
    // Closed-loop protocol exercise: a "client" retransmission queue
    // drives sends through a lossy channel to a "server" that echoes
    // a response through the same lossy channel.  Every request must
    // complete exactly once despite 40% loss in each direction.
    sim::Simulation sim(77);
    const int kRequests = 100;
    int completions = 0;
    std::vector<int> completed_count(kRequests + 1, 0);

    std::unique_ptr<RetransmitQueue> rtq;
    auto server_respond = [&](uint64_t serial, uint16_t gen) {
        // Response direction: 40% loss too.
        if (sim.random().bernoulli(0.4))
            return;
        sim.events().schedule(sim::Tick(50) * sim::kMicrosecond,
                              [&, serial, gen]() {
                                  if (rtq->accept(serial, gen) ==
                                      RetransmitQueue::Accept::Ok) {
                                      ++completions;
                                      ++completed_count[serial];
                                  }
                              });
    };

    RetransmitConfig cfg;
    cfg.max_retries = 30; // heavy loss needs headroom
    cfg.max_timeout = sim::Tick(100) * sim::kMillisecond;
    rtq = std::make_unique<RetransmitQueue>(
        sim.events(), cfg,
        [&](uint64_t serial, uint16_t gen) {
            // Request direction loss.
            if (sim.random().bernoulli(0.4))
                return;
            sim.events().schedule(sim::Tick(50) * sim::kMicrosecond,
                                  [&, serial, gen]() {
                                      server_respond(serial, gen);
                                  });
        },
        [&](uint64_t) { FAIL() << "gave up despite retry headroom"; });

    for (uint64_t s = 1; s <= kRequests; ++s)
        rtq->track(s);
    sim.runUntil(sim::Tick(600) * sim::kSecond);

    EXPECT_EQ(completions, kRequests);
    for (int s = 1; s <= kRequests; ++s)
        EXPECT_EQ(completed_count[s], 1) << "serial " << s;
    EXPECT_GT(rtq->retransmissions(), 0u);
}

// -- wire codec: fixed reference vectors and round trips ------------------

Bytes
encoded(const auto &hdr)
{
    Bytes out;
    ByteWriter w(out);
    hdr.encode(w);
    return out;
}

TEST(CodecProperty, HeadersMatchReferenceVectors)
{
    net::EtherHeader eh;
    eh.dst = MacAddress::fromU64(0x0a0b0c0d0e0f);
    eh.src = MacAddress::fromU64(0x102030405060);
    eh.ether_type = 0x0800;
    EXPECT_EQ(encoded(eh), (Bytes{0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10,
                                  0x20, 0x30, 0x40, 0x50, 0x60, 0x08, 0x00}));

    net::Ipv4Header ip;
    ip.tos = 0x10;
    ip.total_length = 0x1234;
    ip.identification = 0xabcd;
    ip.src = 0x0a000001;
    ip.dst = 0xc0a80102;
    // Header checksum 0xb13b: the one's complement of the folded sum.
    EXPECT_EQ(encoded(ip),
              (Bytes{0x45, 0x10, 0x12, 0x34, 0xab, 0xcd, 0x40, 0x00, 0x40,
                     0x06, 0xb1, 0x3b, 0x0a, 0x00, 0x00, 0x01, 0xc0, 0xa8,
                     0x01, 0x02}));

    net::TcpHeader tcp;
    tcp.src_port = kVrioPort;
    tcp.dst_port = kVrioPort;
    tcp.seq = 0x01020304;
    tcp.ack = 0xa0b0c0d0;
    EXPECT_EQ(encoded(tcp),
              (Bytes{0x56, 0x52, 0x56, 0x52, 0x01, 0x02, 0x03, 0x04, 0xa0,
                     0xb0, 0xc0, 0xd0, 0x50, 0x10, 0xff, 0xff, 0x00, 0x00,
                     0x00, 0x00}));

    TransportHeader th;
    th.type = MsgType::BlkResp;
    th.device_id = 0x11223344;
    th.request_serial = 0x0102030405060708;
    th.generation = 0x0a0b;
    th.part = 1;
    th.parts = 3;
    th.flags = kFlagRetransmit;
    th.total_len = 0x1000;
    th.io_len = 0x3000;
    th.sector = 0x1122334455667788;
    th.payload_csum = 0xbeef;
    EXPECT_EQ(encoded(th),
              (Bytes{0x52, 0x56, 0x01, 0x04, 0x44, 0x33, 0x22, 0x11, 0x08,
                     0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x0b, 0x0a,
                     0x01, 0x00, 0x03, 0x00, 0x01, 0x00, 0x00, 0x10, 0x00,
                     0x00, 0x00, 0x30, 0x00, 0x00, 0x88, 0x77, 0x66, 0x55,
                     0x44, 0x33, 0x22, 0x11, 0x00, 0x00, 0xef, 0xbe}));
}

TEST(CodecProperty, EncapsulatedFrameMatchesReferenceVector)
{
    // A whole sealed frame, as the codec produced it before it was
    // reworked: any change to a header layout or to the seal shows.
    TransportHeader hdr;
    hdr.type = MsgType::BlkReq;
    hdr.device_id = 3;
    hdr.request_serial = 42;
    hdr.sector = 8;
    hdr.io_len = 4;
    hdr.blk_type = uint8_t(virtio::BlkType::Out);
    hdr.total_len = 4;
    Bytes payload = {'v', 'R', 'I', 'O'};
    auto frame = encapsulate(MacAddress::local(1), MacAddress::local(2), 7,
                             hdr, payload);
    EXPECT_EQ(frame->bytes, kReferenceFrame);
}

TEST(CodecProperty, RandomHeadersRoundTrip)
{
    sim::Random rng(0xc0dec);
    for (int i = 0; i < 2000; ++i) {
        net::EtherHeader eh;
        eh.dst = MacAddress::fromU64(rng.next() & 0xffffffffffffull);
        eh.src = MacAddress::fromU64(rng.next() & 0xffffffffffffull);
        eh.ether_type = uint16_t(rng.next());
        Bytes eb = encoded(eh);
        ASSERT_EQ(eb.size(), net::kEtherHeaderSize);
        ByteReader er(eb);
        auto ed = net::EtherHeader::decode(er);
        EXPECT_EQ(ed.dst, eh.dst);
        EXPECT_EQ(ed.src, eh.src);
        EXPECT_EQ(ed.ether_type, eh.ether_type);

        net::Ipv4Header ip;
        ip.tos = uint8_t(rng.next());
        ip.total_length = uint16_t(rng.next());
        ip.identification = uint16_t(rng.next());
        ip.ttl = uint8_t(rng.next());
        ip.protocol = uint8_t(rng.next());
        ip.src = uint32_t(rng.next());
        ip.dst = uint32_t(rng.next());
        Bytes ib = encoded(ip);
        ASSERT_EQ(ib.size(), net::kIpv4HeaderSize);
        EXPECT_EQ(net::inetChecksum(ib), 0);
        ByteReader ir(ib);
        bool ok = false;
        auto id = net::Ipv4Header::decode(ir, &ok);
        EXPECT_TRUE(ok);
        EXPECT_EQ(encoded(id), ib);

        net::TcpHeader tcp;
        tcp.src_port = uint16_t(rng.next());
        tcp.dst_port = uint16_t(rng.next());
        tcp.seq = uint32_t(rng.next());
        tcp.ack = uint32_t(rng.next());
        tcp.flags = uint8_t(rng.next());
        tcp.window = uint16_t(rng.next());
        Bytes tb = encoded(tcp);
        ByteReader tr(tb);
        EXPECT_EQ(encoded(net::TcpHeader::decode(tr)), tb);

        TransportHeader th;
        th.type = MsgType(rng.uniformInt(1, 11));
        th.device_id = uint32_t(rng.next());
        th.request_serial = rng.next();
        th.generation = uint16_t(rng.next());
        th.part = uint16_t(rng.next());
        th.parts = uint16_t(rng.next());
        th.flags = uint16_t(rng.next());
        th.total_len = uint32_t(rng.next());
        th.io_len = uint32_t(rng.next());
        th.sector = rng.next();
        th.blk_type = uint8_t(rng.next());
        th.status = uint8_t(rng.next());
        th.payload_csum = uint16_t(rng.next());
        Bytes hb = encoded(th);
        ASSERT_EQ(hb.size(), TransportHeader::kSize);
        ByteReader hr(hb);
        TransportHeader hd;
        ASSERT_TRUE(TransportHeader::decode(hr, hd));
        EXPECT_EQ(encoded(hd), hb);
    }
}

// -- reassembly against the original dense-buffer algorithm --------------

/**
 * The reassembler as first written: one zero-filled buffer per message
 * holding header and payload, an extents map, and the payload copied
 * out at the end.  The production reassembler must agree with it on
 * every segment sequence.
 */
class ReferenceReassembler
{
  public:
    explicit ReferenceReassembler(uint32_t mtu) : mtu(mtu) {}

    std::optional<Message>
    feed(const net::Frame &frame)
    {
        Segment seg;
        if (!decapsulate(frame, seg)) {
            ++foreign;
            return std::nullopt;
        }
        auto key = std::make_pair(seg.src.toU64(), seg.wire_msg_id);
        Partial &p = partials[key];
        uint32_t len = uint32_t(seg.data.size());
        for (const auto &[eoff, elen] : p.extents) {
            if (seg.offset < eoff + elen && eoff < seg.offset + len)
                len = 0;
        }
        if (len == 0) {
            ++duplicates;
            return std::nullopt;
        }
        if (p.data.size() < seg.offset + len)
            p.data.resize(seg.offset + len);
        std::copy(seg.data.begin(), seg.data.end(),
                  p.data.begin() + seg.offset);
        p.extents[seg.offset] = len;
        p.received += len;
        if (seg.offset == 0) {
            ByteReader r(seg.data);
            TransportHeader hdr;
            if (!TransportHeader::decode(r, hdr)) {
                partials.erase(key);
                ++foreign;
                return std::nullopt;
            }
            p.expected = uint32_t(TransportHeader::kSize) + hdr.total_len;
        }
        if (!p.expected || p.received < *p.expected)
            return std::nullopt;
        if (!verifyMessage(p.data)) {
            partials.erase(key);
            ++checksum_drops;
            return std::nullopt;
        }
        Message msg;
        ByteReader r(p.data);
        TransportHeader::decode(r, msg.hdr);
        msg.payload = r.getBytes(msg.hdr.total_len);
        msg.src = seg.src;
        msg.dst = seg.dst;
        msg.zero_copy = zeroCopyEligible(*p.expected, mtu);
        copied += !msg.zero_copy;
        partials.erase(key);
        ++completed;
        return msg;
    }

    uint32_t mtu;
    uint64_t completed = 0, foreign = 0, duplicates = 0, copied = 0,
             checksum_drops = 0;
    struct Partial
    {
        Bytes data;
        std::map<uint32_t, uint32_t> extents;
        uint32_t received = 0;
        std::optional<uint32_t> expected;
    };
    std::map<std::pair<uint64_t, uint32_t>, Partial> partials;
};

/** A vRIO wire frame carrying bytes [offset, offset+len) of @p message. */
net::FramePtr
segmentFrame(MacAddress src, uint32_t wire_id, std::span<const uint8_t> message,
             uint32_t offset, uint32_t len)
{
    net::EtherHeader eh;
    eh.src = src;
    eh.dst = MacAddress::local(2);
    eh.ether_type = uint16_t(net::EtherType::Ipv4);
    Bytes l3;
    ByteWriter w(l3);
    net::Ipv4Header ip;
    ip.total_length =
        uint16_t(net::kIpv4HeaderSize + net::kTcpHeaderSize + len);
    ip.encode(w);
    net::TcpHeader tcp;
    tcp.src_port = tcp.dst_port = kVrioPort;
    tcp.seq = offset;
    tcp.ack = wire_id;
    tcp.encode(w);
    w.putBytes(message.subspan(offset, len));
    return net::makeFrame(eh, l3);
}

/** Encapsulated message bytes (header + payload, sealed). */
Bytes
sealedMessage(sim::Random &rng, uint64_t serial, size_t payload_len)
{
    TransportHeader hdr;
    hdr.type = MsgType::BlkResp;
    hdr.device_id = 5;
    hdr.request_serial = serial;
    hdr.total_len = uint32_t(payload_len);
    Bytes payload(payload_len);
    for (auto &b : payload)
        b = uint8_t(rng.next());
    auto frame = encapsulate(MacAddress::local(1), MacAddress::local(2), 1,
                             hdr, payload);
    constexpr size_t kL234 = net::kEtherHeaderSize + net::kIpv4HeaderSize +
                             net::kTcpHeaderSize;
    return Bytes(frame->bytes.begin() + kL234, frame->bytes.end());
}

void
expectSameMessage(const std::optional<Message> &got,
                  const std::optional<Message> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got)
        return;
    EXPECT_EQ(encoded(got->hdr), encoded(want->hdr));
    EXPECT_EQ(got->payload, want->payload);
    EXPECT_EQ(got->src, want->src);
    EXPECT_EQ(got->dst, want->dst);
    EXPECT_EQ(got->zero_copy, want->zero_copy);
}

class ReassemblyEquivalence : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ReassemblyEquivalence, MatchesReferenceOnHostileSegmentSequences)
{
    sim::Random rng(GetParam());
    sim::Simulation sim;
    uint32_t mtu = rng.bernoulli(0.5) ? net::kMtuVrioJumbo : net::kMtuStandard;
    Reassembler reasm(sim.events(), mtu);
    ReferenceReassembler ref(mtu);

    for (int iter = 0; iter < 200; ++iter) {
        // A few messages from different senders, interleaved.  Wire ids
        // repeat across rounds, so late segments meet finished keys.
        std::vector<net::FramePtr> frames;
        int nmsgs = int(rng.uniformInt(1, 4));
        for (int m = 0; m < nmsgs; ++m) {
            size_t plen = rng.bernoulli(0.2) ? rng.uniformInt(0, 64)
                                             : rng.uniformInt(0, 20000);
            Bytes msg = sealedMessage(rng, uint64_t(iter), plen);
            MacAddress src = MacAddress::local(10 + uint64_t(m));
            uint32_t wire_id = uint32_t(rng.uniformInt(0, 7));

            // Faults: a flipped payload (or serial) bit fails only the
            // end-to-end checksum; a bad magic fails the header decode.
            // total_len stays intact: a short one overshoots, which
            // the reference does not model (ShortTotalLen below).
            int fault = int(rng.uniformInt(0, 9));
            if (fault == 0) {
                size_t at = plen ? rng.uniformInt(TransportHeader::kSize,
                                                  msg.size() - 1)
                                 : 8;
                msg[at] ^= 0x20;
            } else if (fault == 1) {
                msg[0] ^= 0xff;
            }

            // Send whole (the one-frame case) or cut into in-order
            // pieces, then add duplicates, overlapping slices and
            // (sometimes) a runt offset-0 piece.
            uint32_t len = uint32_t(msg.size());
            uint32_t max_piece = rng.bernoulli(0.3) ? len : len / 3 + 1;
            uint32_t off = 0;
            while (off < len) {
                uint32_t piece = uint32_t(rng.uniformInt(1, max_piece));
                piece = std::min(piece, len - off);
                frames.push_back(segmentFrame(src, wire_id, msg, off, piece));
                if (rng.bernoulli(0.1))
                    frames.push_back(frames.back());
                off += piece;
            }
            for (int k = int(rng.uniformInt(0, 2)); k > 0; --k) {
                uint32_t a = uint32_t(rng.uniformInt(0, len - 1));
                uint32_t b = uint32_t(rng.uniformInt(a + 1, len));
                frames.push_back(segmentFrame(src, wire_id, msg, a, b - a));
            }
            if (fault == 2) {
                uint32_t runt = uint32_t(rng.uniformInt(1, 43));
                frames.push_back(segmentFrame(src, wire_id, msg, 0, runt));
            }
        }
        if (rng.bernoulli(0.7)) {
            for (size_t i = frames.size(); i > 1; --i)
                std::swap(frames[i - 1], frames[rng.uniformInt(0, i - 1)]);
        }

        for (const auto &f : frames) {
            auto got = reasm.feed(*f);
            auto want = ref.feed(*f);
            expectSameMessage(got, want);
            ASSERT_EQ(reasm.messagesCompleted(), ref.completed);
            ASSERT_EQ(reasm.foreignFrames(), ref.foreign);
            ASSERT_EQ(reasm.duplicateSegments(), ref.duplicates);
            ASSERT_EQ(reasm.checksumDrops(), ref.checksum_drops);
            ASSERT_EQ(reasm.copiedReassemblies(), ref.copied);
            ASSERT_EQ(reasm.partialCount(), ref.partials.size());
        }

        // Expire what is left before the wire ids come round again.
        sim.runUntil(sim.now() + sim::Tick(200) * sim::kMillisecond);
        ASSERT_EQ(reasm.partialCount(), 0u);
        ref.partials.clear();
    }
    // Every path ran.
    EXPECT_GT(ref.completed, 0u);
    EXPECT_GT(ref.checksum_drops, 0u);
    EXPECT_GT(ref.duplicates, 0u);
    EXPECT_GT(ref.foreign, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// A header whose total_len is shorter than the bytes its segments carry
// (garbled or hostile) overshoots.  The message is dropped and counted
// like a checksum failure; it never assembles and never stops the run.
TEST(ReassemblyProperty, ShortTotalLenIsDroppedNotFatal)
{
    // Byte offset of total_len in the encoded transport header.
    constexpr size_t kTotalLenAt = 24;
    sim::Random rng(7);
    sim::Simulation sim;
    Reassembler reasm(sim.events(), net::kMtuVrioJumbo);
    const MacAddress src = MacAddress::local(10);

    for (int iter = 0; iter < 300; ++iter) {
        size_t plen = iter == 0 ? 4 : rng.uniformInt(1, 20000);
        Bytes msg = sealedMessage(rng, uint64_t(iter), plen);
        uint32_t short_len =
            iter == 0 ? 0 : uint32_t(rng.uniformInt(0, plen - 1));
        for (size_t b = 0; b < 4; ++b)
            msg[kTotalLenAt + b] = uint8_t(short_len >> (8 * b));

        // In-order pieces, shuffled most of the time; the first one
        // carries the whole header, as every sender's does.
        std::vector<net::FramePtr> frames;
        uint32_t len = uint32_t(msg.size());
        uint32_t max_piece = rng.bernoulli(0.3) ? len : len / 3 + 1;
        for (uint32_t off = 0; off < len;) {
            uint32_t piece = uint32_t(rng.uniformInt(1, max_piece));
            if (off == 0)
                piece = std::max<uint32_t>(piece, TransportHeader::kSize);
            piece = std::min(piece, len - off);
            frames.push_back(
                segmentFrame(src, uint32_t(iter), msg, off, piece));
            off += piece;
        }
        if (rng.bernoulli(0.7)) {
            for (size_t i = frames.size(); i > 1; --i)
                std::swap(frames[i - 1], frames[rng.uniformInt(0, i - 1)]);
        }
        for (const auto &f : frames)
            ASSERT_FALSE(reasm.feed(*f).has_value()) << "iter " << iter;
        ASSERT_EQ(reasm.checksumDrops(), uint64_t(iter + 1))
            << "iter " << iter << " plen " << plen << " total_len "
            << short_len;

        // Segments after the drop start a headerless partial; let it
        // expire before the next message.
        sim.runUntil(sim.now() + sim::Tick(200) * sim::kMillisecond);
        ASSERT_EQ(reasm.partialCount(), 0u);
    }
    EXPECT_EQ(reasm.messagesCompleted(), 0u);
}

} // namespace
} // namespace vrio::transport

// -- guest-TCP congestion machine properties ------------------------------

#include <map>
#include <set>

#include "workloads/tcp_congestion.hpp"

namespace vrio::workloads {
namespace {

/**
 * Drive the congestion machine through a randomized lossy closed loop:
 * an in-order receiver acks every delivery cumulatively, each chunk or
 * ack can be lost, and ack delays vary so duplicate and stale acks
 * occur naturally.  Checked on every step:
 *
 *   - cwnd stays within [1, max_window]
 *   - chunks in flight never exceed max_window, and new chunks are
 *     only admitted below the current window limit (a recovery
 *     collapse may leave in-flight above the shrunken cwnd until acks
 *     drain -- Reno cannot recall chunks already on the wire)
 *   - rto() stays within [min_rto, max_rto]
 *   - Karn's rule: an ack whose newest-covered chunk was retransmitted
 *     never produces an RTT sample
 *
 * and the run must make forward progress despite the loss.
 */
class CongestionChaos : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(CongestionChaos, InvariantsHoldUnderRandomLoss)
{
    sim::Random rng(GetParam());

    TcpCongestion::Config cfg;
    cfg.max_window = double(rng.uniformInt(4, 48));
    cfg.initial_ssthresh = cfg.max_window / 2;
    TcpCongestion tcp(cfg);

    const double loss = rng.uniform(0.05, 0.3);

    // Receiver state and the in-flight ack channel.
    uint64_t rx_expected = 0;
    std::set<uint64_t> rx_ooo;
    std::multimap<sim::Tick, uint64_t> ack_queue; // arrival -> cum ack
    std::set<uint64_t> retransmitted;
    sim::Tick now = 0;

    auto deliverToReceiver = [&](uint64_t seq) {
        if (rng.bernoulli(loss))
            return; // data chunk lost
        if (seq == rx_expected) {
            ++rx_expected;
            while (rx_ooo.erase(rx_expected))
                ++rx_expected;
        } else if (seq > rx_expected) {
            rx_ooo.insert(seq);
        }
        if (rng.bernoulli(loss))
            return; // ack lost
        sim::Tick delay =
            sim::Tick(rng.uniformInt(1, 8)) * sim::kMillisecond / 10;
        ack_queue.emplace(now + delay, rx_expected);
    };

    auto checkInvariants = [&]() {
        ASSERT_GE(tcp.cwnd(), 1.0);
        ASSERT_LE(tcp.cwnd(), cfg.max_window + 1e-9);
        ASSERT_LE(tcp.inFlight(), unsigned(cfg.max_window));
        ASSERT_LE(tcp.windowLimit(), unsigned(cfg.max_window));
        if (tcp.canSend())
            ASSERT_LT(tcp.inFlight(), tcp.windowLimit());
        ASSERT_GE(tcp.rto(), cfg.min_rto);
        ASSERT_LE(tcp.rto(), cfg.max_rto);
    };

    const uint64_t kTarget = 400;
    for (int step = 0; step < 20000 && tcp.cumAck() < kTarget;
         ++step) {
        while (tcp.canSend())
            deliverToReceiver(tcp.onSend(now));
        ASSERT_NO_FATAL_FAILURE(checkInvariants());

        if (!ack_queue.empty()) {
            auto it = ack_queue.begin();
            now = std::max(now, it->first);
            uint64_t cum = it->second;
            ack_queue.erase(it);

            uint64_t prev = tcp.cumAck();
            auto action = tcp.onAck(cum, now);
            if (cum > prev && retransmitted.count(cum - 1)) {
                // Karn: the newest chunk this ack covers went out more
                // than once, so its RTT is ambiguous.
                ASSERT_FALSE(tcp.lastAckSampledRtt())
                    << "sampled a retransmitted chunk, cum " << cum;
            }
            if (action.retransmit) {
                retransmitted.insert(action.retransmit_seq);
                tcp.onRetransmitSent(action.retransmit_seq, now);
                deliverToReceiver(action.retransmit_seq);
            }
        } else if (tcp.hasOutstanding()) {
            // Nothing inbound: the retransmission timer fires.
            now += tcp.rto();
            uint64_t seq = tcp.onRtoExpiry(now);
            retransmitted.insert(seq);
            tcp.onRetransmitSent(seq, now);
            deliverToReceiver(seq);
        }
        ASSERT_NO_FATAL_FAILURE(checkInvariants());
    }

    // Eventual delivery: loss plus backoff never deadlocks the loop.
    EXPECT_GE(tcp.cumAck(), kTarget)
        << "stalled at loss " << loss << " window " << cfg.max_window;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CongestionChaos,
                         ::testing::Values(11, 23, 47));

TEST(Congestion, RtoBackoffSaturatesAtMax)
{
    TcpCongestion::Config cfg;
    TcpCongestion tcp(cfg);

    sim::Tick now = 0;
    tcp.onSend(now);

    sim::Tick prev = tcp.rto();
    EXPECT_EQ(prev, cfg.initial_rto);
    for (int i = 0; i < 40; ++i) {
        now += tcp.rto();
        uint64_t seq = tcp.onRtoExpiry(now);
        tcp.onRetransmitSent(seq, now);
        sim::Tick cur = tcp.rto();
        EXPECT_GE(cur, prev) << "backoff moved the RTO down";
        EXPECT_LE(cur, cfg.max_rto);
        prev = cur;
    }
    // 2^40 would have overflowed long ago; saturation must hold it at
    // the clamp.
    EXPECT_EQ(tcp.rto(), cfg.max_rto);

    // A genuine ack ends the backoff run and restores the base RTO.
    tcp.onAck(1, now + sim::kMillisecond);
    EXPECT_LT(tcp.rto(), cfg.max_rto);
    EXPECT_EQ(tcp.backoffExponent(), 0u);
}

TEST(Congestion, KarnRuleSkipsRetransmittedChunks)
{
    TcpCongestion::Config cfg;
    TcpCongestion tcp(cfg);

    sim::Tick now = 0;
    tcp.onSend(now); // seq 0
    tcp.onSend(now); // seq 1

    // Chunk 0 is retransmitted; its eventual ack must not be sampled.
    now += sim::Tick(20) * sim::kMillisecond;
    uint64_t seq = tcp.onRtoExpiry(now);
    EXPECT_EQ(seq, 0u);
    tcp.onRetransmitSent(seq, now);

    now += sim::Tick(2) * sim::kMillisecond;
    tcp.onAck(1, now);
    EXPECT_FALSE(tcp.lastAckSampledRtt());
    EXPECT_EQ(tcp.rttSamples(), 0u);
    EXPECT_FALSE(tcp.hasRttEstimate());

    // Chunk 1 went out exactly once: its ack is admissible.
    now += sim::Tick(2) * sim::kMillisecond;
    tcp.onAck(2, now);
    EXPECT_TRUE(tcp.lastAckSampledRtt());
    EXPECT_EQ(tcp.rttSamples(), 1u);
    EXPECT_TRUE(tcp.hasRttEstimate());
}

TEST(Congestion, WindowNeverExceedsReceiverLimit)
{
    TcpCongestion::Config cfg;
    cfg.max_window = 8.0;
    cfg.initial_ssthresh = 64.0; // slow start the whole way
    TcpCongestion tcp(cfg);

    // Ack everything instantly for many round trips; slow start would
    // grow cwnd exponentially but the receiver window must cap it.
    sim::Tick now = 0;
    for (int rtt = 0; rtt < 10; ++rtt) {
        while (tcp.canSend())
            tcp.onSend(now);
        EXPECT_LE(tcp.inFlight(), 8u);
        now += sim::kMillisecond;
        tcp.onAck(tcp.nextSeq(), now);
        EXPECT_LE(tcp.cwnd(), 8.0);
    }
    EXPECT_EQ(tcp.cwnd(), 8.0);
}

} // namespace
} // namespace vrio::workloads
