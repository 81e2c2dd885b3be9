/**
 * @file
 * Tests for the network substrate: addressing, codecs, TSO, links,
 * switch learning, NIC rings and interrupt moderation.
 */
#include <gtest/gtest.h>

#include <thread>

#include "net/ether.hpp"
#include "net/frame_pool.hpp"
#include "net/inet.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "net/tso.hpp"

namespace vrio::net {
namespace {

using sim::kMicrosecond;
using sim::kNanosecond;

TEST(MacAddress, Formatting)
{
    MacAddress m = MacAddress::fromU64(0x0123456789abull);
    EXPECT_EQ(m.toString(), "01:23:45:67:89:ab");
    EXPECT_EQ(m.toU64(), 0x0123456789abull);
}

TEST(MacAddress, LocalAddressesAreUnicast)
{
    MacAddress m = MacAddress::local(7);
    EXPECT_FALSE(m.isMulticast());
    EXPECT_FALSE(m.isBroadcast());
    EXPECT_NE(MacAddress::local(7), MacAddress::local(8));
}

TEST(MacAddress, BroadcastClassification)
{
    EXPECT_TRUE(MacAddress::broadcast().isBroadcast());
    EXPECT_TRUE(MacAddress::broadcast().isMulticast());
}

TEST(EtherHeader, CodecRoundTrip)
{
    EtherHeader h;
    h.dst = MacAddress::local(1);
    h.src = MacAddress::local(2);
    h.ether_type = uint16_t(EtherType::Ipv4);

    Bytes buf;
    ByteWriter w(buf);
    h.encode(w);
    ASSERT_EQ(buf.size(), kEtherHeaderSize);

    ByteReader r(buf);
    EtherHeader d = EtherHeader::decode(r);
    EXPECT_EQ(d.dst, h.dst);
    EXPECT_EQ(d.src, h.src);
    EXPECT_EQ(d.ether_type, h.ether_type);
}

TEST(InetChecksum, KnownVector)
{
    // RFC 1071 example bytes.
    Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(inetChecksum(data), 0xffff - ((0x0001 + 0xf203 + 0xf4f5 +
                                             0xf6f7) % 0xffff));
}

TEST(Ipv4Header, EncodeProducesValidChecksum)
{
    Ipv4Header ip;
    ip.total_length = 100;
    ip.src = 0x0a000001;
    ip.dst = 0x0a000002;
    Bytes buf;
    ByteWriter w(buf);
    ip.encode(w);
    ASSERT_EQ(buf.size(), kIpv4HeaderSize);
    // A correct IPv4 header checksums to zero.
    EXPECT_EQ(inetChecksum(buf), 0);

    ByteReader r(buf);
    bool ok = false;
    Ipv4Header d = Ipv4Header::decode(r, &ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(d.total_length, 100);
    EXPECT_EQ(d.src, ip.src);
    EXPECT_EQ(d.protocol, 6);
}

TEST(Ipv4Header, CorruptionDetected)
{
    Ipv4Header ip;
    ip.total_length = 100;
    Bytes buf;
    ByteWriter w(buf);
    ip.encode(w);
    buf[4] ^= 0xff;
    ByteReader r(buf);
    bool ok = true;
    Ipv4Header::decode(r, &ok);
    EXPECT_FALSE(ok);
}

TEST(TcpHeader, CodecRoundTrip)
{
    TcpHeader t;
    t.src_port = 0x5652;
    t.dst_port = 443;
    t.seq = 0xdeadbeef;
    t.ack = 42;
    Bytes buf;
    ByteWriter w(buf);
    t.encode(w);
    ASSERT_EQ(buf.size(), kTcpHeaderSize);
    ByteReader r(buf);
    TcpHeader d = TcpHeader::decode(r);
    EXPECT_EQ(d.src_port, t.src_port);
    EXPECT_EQ(d.seq, t.seq);
    EXPECT_EQ(d.ack, 42u);
}

FramePtr
makeTcpFrame(size_t payload_size, uint32_t base_seq = 0)
{
    auto f = std::make_shared<Frame>();
    ByteWriter w(f->bytes);
    EtherHeader eh;
    eh.dst = MacAddress::local(1);
    eh.src = MacAddress::local(2);
    eh.ether_type = uint16_t(EtherType::Ipv4);
    eh.encode(w);
    Ipv4Header ip;
    ip.total_length =
        uint16_t(kIpv4HeaderSize + kTcpHeaderSize + payload_size);
    ip.encode(w);
    TcpHeader tcp;
    tcp.seq = base_seq;
    tcp.encode(w);
    Bytes payload(payload_size);
    for (size_t i = 0; i < payload_size; ++i)
        payload[i] = uint8_t(i);
    w.putBytes(payload);
    f->trace_id = 77;
    return f;
}

TEST(FramePool, SteadyStateReusesFramesAndControlBlocks)
{
    // A fresh thread, so the counts start from an empty pool.
    std::thread([] {
        FramePool &pool = FramePool::local();
        {
            auto warm = pool.acquire();
            warm->bytes.assign(100, 1);
            warm->fcs_corrupt = true;
        }
        EXPECT_EQ(pool.allocated(), 1u);
        EXPECT_EQ(pool.blocksAllocated(), 1u);
        for (int i = 0; i < 1000; ++i) {
            FramePtr f = pool.acquire();
            // Recycled clean, with the payload capacity kept.
            EXPECT_TRUE(f->bytes.empty());
            EXPECT_GE(f->bytes.capacity(), 100u);
            EXPECT_FALSE(f->fcs_corrupt);
            f->bytes.assign(100, uint8_t(i));
            FramePtr copy = f; // copies share the one control block
            EXPECT_EQ(f.use_count(), 2);
        }
        EXPECT_EQ(pool.allocated(), 1u);
        EXPECT_EQ(pool.blocksAllocated(), 1u);
        EXPECT_EQ(pool.reused(), 1000u);
    }).join();
}

TEST(FramePool, WeakReferenceOutlivesTheRecycledFrame)
{
    FramePool &pool = FramePool::local();
    FramePtr f = pool.acquire();
    std::weak_ptr<Frame> weak = f;
    f.reset(); // the frame goes back; the block waits for `weak`
    EXPECT_TRUE(weak.expired());
    FramePtr g = pool.acquire();
    EXPECT_TRUE(weak.expired());
    weak.reset();
    g->bytes.assign(10, 3);
    EXPECT_EQ(g->bytes.size(), 10u);
}

TEST(FramePool, FramesMayDieOnAnotherThread)
{
    std::vector<FramePtr> frames;
    for (int i = 0; i < 64; ++i) {
        frames.push_back(FramePool::local().acquire());
        frames.back()->bytes.assign(64, uint8_t(i));
    }
    // The other thread's pool takes them and frees them at its exit.
    std::thread([moved = std::move(frames)]() mutable {
        moved.clear();
        FramePtr f = FramePool::local().acquire();
        EXPECT_TRUE(f->bytes.empty());
    }).join();
}

TEST(Tso, FrameClassification)
{
    EXPECT_TRUE(frameIsTcpIpv4(*makeTcpFrame(100)));
    Frame raw;
    ByteWriter w(raw.bytes);
    EtherHeader eh;
    eh.ether_type = uint16_t(EtherType::Raw);
    eh.encode(w);
    EXPECT_FALSE(frameIsTcpIpv4(raw));
}

TEST(Tso, SmallFramePassesThrough)
{
    auto f = makeTcpFrame(100);
    auto segs = tsoSegment(*f, kMtuStandard);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0]->bytes, f->bytes);
}

class TsoSizeTest : public ::testing::TestWithParam<std::pair<size_t, uint32_t>>
{};

TEST_P(TsoSizeTest, SegmentsReconstructOriginal)
{
    auto [payload_size, mtu] = GetParam();
    auto f = makeTcpFrame(payload_size, 1000);
    auto segs = tsoSegment(*f, mtu);

    uint32_t mss = mssForMtu(mtu);
    size_t expected_segs = (payload_size + mss - 1) / mss;
    EXPECT_EQ(segs.size(), std::max<size_t>(1, expected_segs));

    // Reconstruct the payload using each segment's TCP seq as offset.
    Bytes rebuilt(payload_size);
    size_t total = 0;
    for (const auto &seg : segs) {
        EXPECT_LE(seg->bytes.size() - kEtherHeaderSize, mtu);
        EXPECT_EQ(seg->trace_id, 77u);
        ByteReader r(seg->bytes);
        EtherHeader::decode(r);
        bool ok = false;
        Ipv4Header ip = Ipv4Header::decode(r, &ok);
        EXPECT_TRUE(ok); // per-segment checksums are recomputed
        TcpHeader tcp = TcpHeader::decode(r);
        uint32_t off = tcp.seq - 1000;
        auto data = r.viewBytes(r.remaining());
        EXPECT_EQ(data.size() + kIpv4HeaderSize + kTcpHeaderSize,
                  ip.total_length);
        ASSERT_LE(off + data.size(), rebuilt.size());
        std::copy(data.begin(), data.end(), rebuilt.begin() + off);
        total += data.size();
    }
    EXPECT_EQ(total, payload_size);
    for (size_t i = 0; i < payload_size; ++i)
        ASSERT_EQ(rebuilt[i], uint8_t(i)) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TsoSizeTest,
    ::testing::Values(std::pair<size_t, uint32_t>{100, 1500},
                      std::pair<size_t, uint32_t>{1460, 1500},
                      std::pair<size_t, uint32_t>{1461, 1500},
                      std::pair<size_t, uint32_t>{8060, 8100},
                      std::pair<size_t, uint32_t>{16000, 8100},
                      std::pair<size_t, uint32_t>{65536, 8100},
                      std::pair<size_t, uint32_t>{65536, 1500},
                      std::pair<size_t, uint32_t>{65536, 9000}));

class SinkPort : public NetPort
{
  public:
    std::vector<FramePtr> got;
    std::vector<sim::Tick> when;
    sim::Simulation *sim = nullptr;

    void
    receive(FramePtr f) override
    {
        got.push_back(std::move(f));
        if (sim)
            when.push_back(sim->now());
    }
};

TEST(Link, DeliveryTiming)
{
    sim::Simulation sim;
    LinkConfig cfg;
    cfg.gbps = 10.0;
    cfg.propagation = 500 * kNanosecond;
    Link link(sim, "l", cfg);
    SinkPort a, b;
    b.sim = &sim;
    link.connect(a, b);

    // 1250 byte frame (incl. FCS) at 10 Gbps = 1 us serialization.
    auto f = std::make_shared<Frame>();
    f->bytes.resize(1246);
    link.transmit(a, f);
    sim.runToCompletion();
    ASSERT_EQ(b.got.size(), 1u);
    EXPECT_EQ(b.when[0], 1 * kMicrosecond + 500 * kNanosecond);
    EXPECT_EQ(link.framesDelivered(), 1u);
}

TEST(Link, SerializationQueues)
{
    sim::Simulation sim;
    LinkConfig cfg;
    cfg.gbps = 10.0;
    cfg.propagation = 0;
    Link link(sim, "l", cfg);
    SinkPort a, b;
    b.sim = &sim;
    link.connect(a, b);
    for (int i = 0; i < 3; ++i) {
        auto f = std::make_shared<Frame>();
        f->bytes.resize(1246);
        link.transmit(a, f);
    }
    sim.runToCompletion();
    ASSERT_EQ(b.when.size(), 3u);
    EXPECT_EQ(b.when[2], 3 * kMicrosecond); // back-to-back at line rate
}

TEST(Link, LossDropsFrames)
{
    sim::Simulation sim(99);
    LinkConfig cfg;
    cfg.loss_probability = 0.5;
    Link link(sim, "l", cfg);
    SinkPort a, b;
    link.connect(a, b);
    for (int i = 0; i < 1000; ++i)
        link.transmit(a, std::make_shared<Frame>());
    sim.runToCompletion();
    EXPECT_GT(link.framesLost(), 400u);
    EXPECT_LT(link.framesLost(), 600u);
    EXPECT_EQ(link.framesLost() + link.framesDelivered(), 1000u);
}

TEST(Link, BidirectionalIsolation)
{
    sim::Simulation sim;
    Link link(sim, "l", {});
    SinkPort a, b;
    link.connect(a, b);
    link.transmit(a, std::make_shared<Frame>());
    link.transmit(b, std::make_shared<Frame>());
    sim.runToCompletion();
    EXPECT_EQ(a.got.size(), 1u);
    EXPECT_EQ(b.got.size(), 1u);
}

FramePtr
frameTo(MacAddress dst, MacAddress src)
{
    EtherHeader eh;
    eh.dst = dst;
    eh.src = src;
    eh.ether_type = uint16_t(EtherType::Raw);
    return makeFrame(eh, {});
}

TEST(Switch, LearnsAndForwards)
{
    sim::Simulation sim;
    Switch sw(sim, "sw");
    SinkPort h1, h2, h3;
    Link l1(sim, "l1", {}), l2(sim, "l2", {}), l3(sim, "l3", {});
    l1.connect(h1, sw.newPort());
    l2.connect(h2, sw.newPort());
    l3.connect(h3, sw.newPort());

    MacAddress m1 = MacAddress::local(1);
    MacAddress m2 = MacAddress::local(2);

    // Unknown destination: flood to all other ports.
    l1.transmit(h1, frameTo(m2, m1));
    sim.runToCompletion();
    EXPECT_EQ(h2.got.size(), 1u);
    EXPECT_EQ(h3.got.size(), 1u);
    EXPECT_EQ(sw.framesFlooded(), 1u);
    EXPECT_EQ(sw.macTableSize(), 1u); // learned m1

    // h2 replies; m1 is known so the reply is unicast to port 1.
    l2.transmit(h2, frameTo(m1, m2));
    sim.runToCompletion();
    EXPECT_EQ(h1.got.size(), 1u);
    EXPECT_EQ(h3.got.size(), 1u); // unchanged
    EXPECT_EQ(sw.framesForwarded(), 1u);

    // Now m2 is learned too: no more flooding.
    l1.transmit(h1, frameTo(m2, m1));
    sim.runToCompletion();
    EXPECT_EQ(h2.got.size(), 2u);
    EXPECT_EQ(h3.got.size(), 1u);
}

TEST(Switch, BroadcastFloods)
{
    sim::Simulation sim;
    Switch sw(sim, "sw");
    SinkPort h1, h2, h3;
    Link l1(sim, "l1", {}), l2(sim, "l2", {}), l3(sim, "l3", {});
    l1.connect(h1, sw.newPort());
    l2.connect(h2, sw.newPort());
    l3.connect(h3, sw.newPort());
    l1.transmit(h1, frameTo(MacAddress::broadcast(), MacAddress::local(1)));
    sim.runToCompletion();
    EXPECT_EQ(h2.got.size(), 1u);
    EXPECT_EQ(h3.got.size(), 1u);
    EXPECT_EQ(h1.got.size(), 0u);
}

TEST(Switch, DeadPortFlushesReroutesAndRevives)
{
    sim::Simulation sim;
    Switch sw(sim, "sw");
    SinkPort h1, h2, h3;
    Link l1(sim, "l1", {}), l2(sim, "l2", {}), l3(sim, "l3", {});
    l1.connect(h1, sw.newPort());
    l2.connect(h2, sw.newPort());
    l3.connect(h3, sw.newPort());

    MacAddress m1 = MacAddress::local(1);
    MacAddress m2 = MacAddress::local(2);

    // Learn m1 on port 0 and m2 on port 1.
    l1.transmit(h1, frameTo(m2, m1));
    l2.transmit(h2, frameTo(m1, m2));
    sim.runToCompletion();
    ASSERT_EQ(sw.portOf(m2), 1u);

    // Down port 1: its learned addresses are flushed, so traffic to
    // m2 floods and reaches the surviving ports (re-routing when an
    // alternate path exists) while the dead port drops it at egress.
    sw.setPortDown(1, true);
    EXPECT_TRUE(sw.portDown(1));
    EXPECT_FALSE(sw.portOf(m2).has_value());
    size_t h2_frames = h2.got.size();
    size_t h3_frames = h3.got.size();
    l1.transmit(h1, frameTo(m2, m1));
    sim.runToCompletion();
    EXPECT_EQ(h2.got.size(), h2_frames);      // blackholed at egress
    EXPECT_EQ(h3.got.size(), h3_frames + 1u); // flooded re-route
    EXPECT_GE(sw.deadPortDrops(), 1u);

    // Ingress on a dead port is dropped too: the host behind it is
    // cut off in both directions.
    size_t h1_frames = h1.got.size();
    uint64_t drops = sw.deadPortDrops();
    l2.transmit(h2, frameTo(m1, m2));
    sim.runToCompletion();
    EXPECT_EQ(h1.got.size(), h1_frames);
    EXPECT_EQ(sw.deadPortDrops(), drops + 1u);

    // Revival: the first transmission re-learns the address and
    // unicast forwarding resumes.
    sw.setPortDown(1, false);
    l2.transmit(h2, frameTo(m1, m2));
    sim.runToCompletion();
    EXPECT_EQ(h1.got.size(), h1_frames + 1u);
    ASSERT_TRUE(sw.portOf(m2).has_value());
    EXPECT_EQ(*sw.portOf(m2), 1u);
    size_t h2_after = h2.got.size();
    l1.transmit(h1, frameTo(m2, m1));
    sim.runToCompletion();
    EXPECT_EQ(h2.got.size(), h2_after + 1u);
}

TEST(Switch, HealMustUseThePortIndexCapturedAtKillTime)
{
    // Regression for a fault-injection hazard: downing a port flushes
    // its learned MACs, so a heal written as
    // setPortDown(*portOf(mac), false) resolves nothing after the
    // kill and silently leaves the port dark forever.  The correct
    // pattern captures the index when the kill fires and heals by
    // index (see the RackSoak and replication port-kill schedules).
    sim::Simulation sim;
    Switch sw(sim, "sw");
    SinkPort h1, h2;
    Link l1(sim, "l1", {}), l2(sim, "l2", {});
    l1.connect(h1, sw.newPort());
    l2.connect(h2, sw.newPort());

    MacAddress m1 = MacAddress::local(1);
    MacAddress m2 = MacAddress::local(2);
    l1.transmit(h1, frameTo(m2, m1));
    l2.transmit(h2, frameTo(m1, m2));
    sim.runToCompletion();
    ASSERT_EQ(sw.portOf(m2), 1u);

    // Kill time: the MAC still resolves — capture the index.
    auto killed = sw.portOf(m2);
    ASSERT_TRUE(killed.has_value());
    sw.setPortDown(*killed, true);

    // Heal time: resolving by MAC now finds nothing (the flush is
    // the hazard), so a MAC-keyed heal would be a silent no-op.
    EXPECT_FALSE(sw.portOf(m2).has_value());
    EXPECT_TRUE(sw.portDown(*killed));

    // Healing by the captured index works and traffic re-learns.
    sw.setPortDown(*killed, false);
    EXPECT_FALSE(sw.portDown(*killed));
    l2.transmit(h2, frameTo(m1, m2));
    sim.runToCompletion();
    ASSERT_TRUE(sw.portOf(m2).has_value());
    EXPECT_EQ(*sw.portOf(m2), *killed);
}

struct NicFixture : ::testing::Test
{
    sim::Simulation sim;
    NicConfig cfg;
    std::unique_ptr<Nic> nic;
    std::unique_ptr<Link> link;
    SinkPort peer;

    void
    build()
    {
        nic = std::make_unique<Nic>(sim, "nic", cfg);
        link = std::make_unique<Link>(sim, "link", LinkConfig{});
        link->connect(nic->port(), peer);
    }

    void
    inject(MacAddress dst, size_t n = 1)
    {
        for (size_t i = 0; i < n; ++i)
            link->transmit(peer, frameTo(dst, MacAddress::local(99)));
    }
};

TEST_F(NicFixture, ClassifiesByQueueMac)
{
    cfg.num_queues = 3;
    build();
    nic->setQueueMac(1, MacAddress::local(1));
    nic->setQueueMac(2, MacAddress::local(2));
    nic->setRxMode(1, Nic::RxMode::Poll);
    nic->setRxMode(2, Nic::RxMode::Poll);

    inject(MacAddress::local(2));
    sim.runToCompletion();
    EXPECT_EQ(nic->rxPending(1), 0u);
    EXPECT_EQ(nic->rxPending(2), 1u);

    // Unknown MAC without promiscuous mode: filtered.
    inject(MacAddress::local(5));
    sim.runToCompletion();
    EXPECT_EQ(nic->rxPending(0), 0u);

    nic->setPromiscuous(true);
    inject(MacAddress::local(5));
    sim.runToCompletion();
    EXPECT_EQ(nic->rxPending(0), 1u);
}

TEST_F(NicFixture, MultipleMacsSteerToOneQueue)
{
    cfg.num_queues = 2;
    build();
    nic->setRxMode(1, Nic::RxMode::Poll);
    nic->addQueueMac(1, MacAddress::local(10));
    nic->addQueueMac(1, MacAddress::local(11));
    inject(MacAddress::local(10));
    inject(MacAddress::local(11));
    sim.runToCompletion();
    EXPECT_EQ(nic->rxPending(1), 2u);
    EXPECT_EQ(nic->rxPending(0), 0u);
}

TEST_F(NicFixture, ClearedQueueMacStopsMatching)
{
    build();
    nic->setQueueMac(0, MacAddress::local(1));
    nic->setRxMode(0, Nic::RxMode::Poll);
    inject(MacAddress::local(1));
    sim.runToCompletion();
    EXPECT_EQ(nic->rxPending(0), 1u);
    nic->clearQueueMac(0);
    inject(MacAddress::local(1));
    sim.runToCompletion();
    EXPECT_EQ(nic->rxPending(0), 1u); // filtered after the clear
}

TEST_F(NicFixture, RxNotifyFiresPerEnqueue)
{
    build();
    nic->setQueueMac(0, MacAddress::local(1));
    nic->setRxMode(0, Nic::RxMode::Poll);
    int notifies = 0;
    nic->setRxNotify(0, [&](unsigned) { ++notifies; });
    inject(MacAddress::local(1), 5);
    sim.runToCompletion();
    EXPECT_EQ(notifies, 5);
    EXPECT_EQ(nic->interruptsFired(), 0u);
}

TEST_F(NicFixture, RingOverflowDrops)
{
    cfg.rx_ring_size = 4;
    build();
    nic->setQueueMac(0, MacAddress::local(1));
    nic->setRxMode(0, Nic::RxMode::Poll);
    inject(MacAddress::local(1), 10);
    sim.runToCompletion();
    EXPECT_EQ(nic->rxPending(0), 4u);
    EXPECT_EQ(nic->rxDrops(), 6u);
    EXPECT_EQ(nic->rxFrames(), 4u);
}

TEST_F(NicFixture, InterruptCoalescingBatches)
{
    cfg.intr_coalesce_delay = 10 * kMicrosecond;
    cfg.intr_coalesce_frames = 100; // effectively delay-driven
    build();
    nic->setQueueMac(0, MacAddress::local(1));
    int interrupts = 0;
    size_t frames_seen = 0;
    std::vector<FramePtr> batch;
    nic->setRxHandler(0, [&](unsigned q) {
        ++interrupts;
        frames_seen += nic->rxTake(q, 1000, batch);
    });
    // 5 frames in a burst -> one interrupt.
    inject(MacAddress::local(1), 5);
    sim.runToCompletion();
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(frames_seen, 5u);
    EXPECT_EQ(nic->interruptsFired(), 1u);
}

TEST_F(NicFixture, InterruptThresholdFiresEarly)
{
    cfg.intr_coalesce_delay = 1000 * kMicrosecond;
    cfg.intr_coalesce_frames = 2;
    build();
    nic->setQueueMac(0, MacAddress::local(1));
    std::vector<sim::Tick> fire_times;
    std::vector<FramePtr> batch;
    nic->setRxHandler(0, [&](unsigned q) {
        fire_times.push_back(sim.now());
        nic->rxTake(q, 1000, batch);
    });
    inject(MacAddress::local(1), 2);
    sim.runToCompletion();
    ASSERT_EQ(fire_times.size(), 1u);
    EXPECT_LT(fire_times[0], 100 * kMicrosecond); // well before delay
}

TEST_F(NicFixture, PollModeNeverInterrupts)
{
    build();
    nic->setQueueMac(0, MacAddress::local(1));
    nic->setRxMode(0, Nic::RxMode::Poll);
    nic->setRxHandler(0, [&](unsigned) { FAIL() << "interrupted"; });
    inject(MacAddress::local(1), 3);
    sim.runToCompletion();
    EXPECT_EQ(nic->interruptsFired(), 0u);
    std::vector<FramePtr> batch;
    EXPECT_EQ(nic->rxTake(0, 2, batch), 2u);
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(nic->rxPending(0), 1u);
    // A reused batch is cleared, not appended to.
    EXPECT_EQ(nic->rxTake(0, 2, batch), 1u);
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_EQ(nic->rxPending(0), 0u);
}

TEST_F(NicFixture, SendAppliesTsoForOversizedTcp)
{
    cfg.mtu = kMtuVrioJumbo;
    build();
    auto f = makeTcpFrame(30000);
    nic->send(0, f);
    sim.runToCompletion();
    // 30000 bytes at mss 8060 -> 4 segments.
    EXPECT_EQ(peer.got.size(), 4u);
    EXPECT_EQ(nic->tsoSends(), 1u);
    EXPECT_EQ(nic->txFrames(), 4u);
}

TEST_F(NicFixture, OversizedNonTcpPanics)
{
    cfg.mtu = 1500;
    build();
    EtherHeader eh;
    eh.ether_type = uint16_t(EtherType::Raw);
    auto f = makeFrame(eh, {}, 4000);
    EXPECT_DEATH(nic->send(0, f), "TSO");
}

} // namespace
} // namespace vrio::net
