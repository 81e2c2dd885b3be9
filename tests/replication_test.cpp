/**
 * @file
 * Warm-state replication and live re-homing tests (DESIGN.md §16):
 * the Replicator protocol state machine against a loopback pair
 * (sequencing, cumulative acks, go-back-N, window backpressure,
 * incarnation restarts, flood-source filtering), the per-path lapse
 * classifier and warm-peer failover preference, duplicate-filter
 * seeding, the fault injector's outage-window coalescing, the
 * per-device starvation watchdog, and model-level rack scenarios:
 * read-your-write across a warm failover, planned re-homes with a
 * bounded blackout, PathSuspect failover suppression, a
 * duplicate-filter handoff property across seeds and thread counts,
 * and a multi-fault soak (primary crash during a re-home plus a
 * replication-link kill during catch-up) that must drain dry.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "core/testbed.hpp"
#include "fault/injector.hpp"
#include "iohost/placement.hpp"
#include "iohost/replication.hpp"
#include "models/rack.hpp"
#include "models/vrio.hpp"
#include "net/switch.hpp"
#include "transport/control.hpp"
#include "transport/reassembly.hpp"

namespace vrio {
namespace {

using iohost::PlacementPolicy;
using iohost::ReplicationConfig;
using iohost::Replicator;
using models::ModelKind;
using sim::kMicrosecond;
using sim::kMillisecond;
using transport::MsgType;
using transport::ReplicaAckMsg;
using transport::ReplicaRecord;
using transport::ReplicaSyncMsg;
using virtio::BlkType;

// -- Replicator protocol against a loopback pair -------------------------

/**
 * Two Replicators wired back to back through their send hooks: A ships
 * its mirror stream to B, B acks back to A.  The harness can drop
 * either direction to exercise go-back-N, and counts what crossed.
 */
struct LoopPair
{
    sim::Simulation sim;
    net::MacAddress mac_a = net::MacAddress::local(1);
    net::MacAddress mac_b = net::MacAddress::local(2);
    net::MacAddress mac_c = net::MacAddress::local(3); ///< a stranger

    bool drop_sync = false; ///< lose A->B sync batches
    bool drop_ack = false;  ///< lose B->A acks
    uint64_t sync_msgs = 0;
    uint64_t ack_msgs = 0;
    std::vector<ReplicaRecord> applied_b; ///< B's store applications
    std::vector<uint64_t> acked_a;        ///< A's released cum seqs

    std::unique_ptr<Replicator> a, b;

    explicit LoopPair(ReplicationConfig cfg = {})
    {
        Replicator::Hooks ha;
        ha.send = [this](MsgType t, const Bytes &p, net::MacAddress) {
            if (t == MsgType::ReplicaSync) {
                ++sync_msgs;
                if (drop_sync)
                    return;
                ReplicaSyncMsg m;
                ByteReader r(p);
                if (ReplicaSyncMsg::decode(r, m))
                    b->onSyncMessage(m, mac_a);
            }
        };
        ha.acked = [this](uint64_t cum) { acked_a.push_back(cum); };
        a = std::make_unique<Replicator>(sim.events(), cfg, mac_b,
                                         mac_b, std::move(ha));

        Replicator::Hooks hb;
        hb.send = [this](MsgType t, const Bytes &p, net::MacAddress) {
            if (t == MsgType::ReplicaAck) {
                ++ack_msgs;
                if (drop_ack)
                    return;
                ReplicaAckMsg m;
                ByteReader r(p);
                if (ReplicaAckMsg::decode(r, m))
                    a->onAckMessage(m, mac_b);
            }
        };
        hb.apply = [this](const ReplicaRecord &rec) {
            applied_b.push_back(rec);
        };
        b = std::make_unique<Replicator>(sim.events(), cfg, mac_a,
                                         mac_a, std::move(hb));
    }

    void runFor(sim::Tick d) { sim.runUntil(sim.now() + d); }
};

TEST(ReplLoop, CommitShipsAppliesAndReleases)
{
    LoopPair lp;
    Bytes data(4096, 0xAB);
    lp.a->mirrorInService(7, 1, 0, uint8_t(BlkType::Out), 8, 4096,
                          data);
    lp.a->mirrorCommit(7, 1, 0);
    lp.runFor(kMillisecond);

    // Both records applied contiguously; the write's payload (saved
    // at InService time) hit B's store exactly once, at commit time.
    EXPECT_EQ(lp.b->recordsApplied(), 2u);
    EXPECT_EQ(lp.b->commitsApplied(), 1u);
    ASSERT_EQ(lp.applied_b.size(), 1u);
    EXPECT_EQ(lp.applied_b[0].sector, 8u);
    EXPECT_EQ(lp.applied_b[0].payload, data);

    // The in-service entry moved to the committed table, and A's
    // cumulative ack covers the commit — the held response may go.
    EXPECT_EQ(lp.b->warmInService(), 0u);
    EXPECT_EQ(lp.b->warmCommitted(), 1u);
    uint16_t gen = 99;
    EXPECT_TRUE(lp.b->committedLookup(7, 1, gen));
    EXPECT_EQ(gen, 0u);
    EXPECT_EQ(lp.a->lastAcked(), 2u);
    EXPECT_EQ(lp.a->lag(), 0u);
    ASSERT_FALSE(lp.acked_a.empty());
    EXPECT_EQ(lp.acked_a.back(), 2u);
}

TEST(ReplLoop, ReadsLeaveNoWarmResidue)
{
    LoopPair lp;
    lp.a->mirrorInService(7, 1, 0, uint8_t(BlkType::In), 0, 4096, {});
    lp.runFor(kMillisecond);
    EXPECT_EQ(lp.b->warmInService(), 1u);
    lp.a->mirrorForget(7, 1);
    lp.runFor(kMillisecond);
    // A completed read is pure cleanup: nothing applied, nothing
    // remembered — only the in-service entry disappears.
    EXPECT_EQ(lp.b->warmInService(), 0u);
    EXPECT_EQ(lp.b->warmCommitted(), 0u);
    EXPECT_TRUE(lp.applied_b.empty());
}

TEST(ReplLoop, WindowFillsUntilAcksReturn)
{
    ReplicationConfig cfg;
    cfg.window = 8;
    LoopPair lp(cfg);
    lp.drop_ack = true;

    for (uint64_t s = 1; s <= 8; ++s)
        lp.a->mirrorInService(7, s, 0, uint8_t(BlkType::In), 0, 512,
                              {});
    lp.runFor(100 * kMicrosecond);
    // B applied everything, but with the acks lost A's unacked log
    // holds the whole window: admission must backpressure.
    EXPECT_EQ(lp.b->recordsApplied(), 8u);
    EXPECT_TRUE(lp.a->windowFull());
    EXPECT_EQ(lp.a->lag(), 8u);

    // The ack path heals; the stalled-ack timer reships the prefix,
    // B re-acks it, and the window reopens.
    lp.drop_ack = false;
    lp.runFor(5 * kMillisecond);
    EXPECT_FALSE(lp.a->windowFull());
    EXPECT_EQ(lp.a->lag(), 0u);
    EXPECT_EQ(lp.a->lastAcked(), 8u);
    EXPECT_GE(lp.a->retransmitBatches(), 1u);
    // The reshipped prefix applied nothing twice.
    EXPECT_EQ(lp.b->recordsApplied(), 8u);
}

TEST(ReplLoop, LostBatchRecoversViaGoBackN)
{
    LoopPair lp;
    lp.drop_sync = true;
    Bytes data(512, 0x11);
    lp.a->mirrorInService(3, 1, 0, uint8_t(BlkType::Out), 4, 512,
                          data);
    lp.a->mirrorCommit(3, 1, 0);
    lp.runFor(100 * kMicrosecond);
    EXPECT_GE(lp.sync_msgs, 1u);
    EXPECT_EQ(lp.b->recordsApplied(), 0u);

    lp.drop_sync = false;
    lp.runFor(5 * kMillisecond);
    EXPECT_GE(lp.a->retransmitBatches(), 1u);
    EXPECT_EQ(lp.b->recordsApplied(), 2u);
    EXPECT_EQ(lp.a->lastAcked(), 2u);
    ASSERT_EQ(lp.applied_b.size(), 1u);
    EXPECT_EQ(lp.applied_b[0].payload, data);
}

TEST(ReplLoop, FirstBatchLossNeverSkipsThePrefix)
{
    // The first batch of a stream is lost; a LATER batch arrives
    // first.  The receiver must treat it as a gap — not sync its
    // cursor past the lost records and cumulatively acknowledge
    // writes it never saw (which would let the primary release held
    // responses for data this host cannot serve).
    LoopPair lp;
    lp.drop_sync = true;
    lp.a->mirrorInService(5, 1, 0, uint8_t(BlkType::Out), 0, 512,
                          Bytes(512, 0x77));
    lp.runFor(100 * kMicrosecond); // batch {1} ships and is lost
    lp.drop_sync = false;
    lp.a->mirrorCommit(5, 1, 0);
    lp.runFor(100 * kMicrosecond); // batch {2} arrives first

    // Nothing applied, nothing acked past the gap.
    EXPECT_EQ(lp.b->recordsApplied(), 0u);
    EXPECT_GE(lp.b->staleBatches(), 1u);
    EXPECT_EQ(lp.a->lastAcked(), 0u);

    // Go-back-N redelivers from sequence 1; order restored.
    lp.runFor(5 * kMillisecond);
    EXPECT_EQ(lp.b->recordsApplied(), 2u);
    EXPECT_EQ(lp.b->commitsApplied(), 1u);
    EXPECT_EQ(lp.a->lastAcked(), 2u);
}

TEST(ReplLoop, ForeignSourcesAreFiltered)
{
    // The rack switch floods unlearned destinations to every
    // promiscuous port, so both sides must ignore streams that are
    // not theirs: syncs not from the upstream, acks not from the
    // peer.
    LoopPair lp;
    ReplicaSyncMsg msg;
    msg.first_seq = 1;
    ReplicaRecord rec;
    rec.device_id = 9;
    rec.serial = 1;
    msg.records.push_back(rec);
    lp.b->onSyncMessage(msg, lp.mac_c);
    EXPECT_EQ(lp.b->foreignFrames(), 1u);
    EXPECT_EQ(lp.b->recordsApplied(), 0u);
    EXPECT_EQ(lp.b->warmInService(), 0u);

    ReplicaAckMsg ack;
    ack.cum_seq = 5;
    lp.a->mirrorInService(9, 1, 0, uint8_t(BlkType::In), 0, 512, {});
    lp.a->onAckMessage(ack, lp.mac_c);
    EXPECT_EQ(lp.a->foreignFrames(), 1u);
    EXPECT_EQ(lp.a->lastAcked(), 0u);
    EXPECT_EQ(lp.a->lag(), 1u);
}

TEST(ReplLoop, RestartKeepsWarmStateAndResyncsTheStream)
{
    LoopPair lp;
    lp.a->mirrorInService(7, 1, 0, uint8_t(BlkType::Out), 0, 512,
                          Bytes(512, 0x42));
    lp.a->mirrorCommit(7, 1, 0);
    lp.a->mirrorInService(7, 2, 0, uint8_t(BlkType::Out), 8, 512,
                          Bytes(512, 0x43));
    lp.runFor(kMillisecond);
    EXPECT_EQ(lp.b->warmInService(), 1u);
    EXPECT_EQ(lp.b->warmCommitted(), 1u);

    // A crashes and restarts: its stream rewinds to sequence 1 under
    // a fresh incarnation.  B re-syncs the cursor but must NOT drop
    // the pre-crash mirror — that is exactly what failover consumes.
    lp.a->reset(1);
    EXPECT_EQ(lp.a->nextSeq(), 1u);
    EXPECT_EQ(lp.a->lag(), 0u);
    lp.a->mirrorInService(7, 3, 1, uint8_t(BlkType::In), 16, 512, {});
    lp.runFor(kMillisecond);

    EXPECT_EQ(lp.a->lastAcked(), 1u);
    EXPECT_EQ(lp.b->warmInService(), 2u); // serials 2 (old) and 3 (new)
    uint16_t gen = 0;
    EXPECT_TRUE(lp.b->committedLookup(7, 1, gen));

    // Activation surrenders the device's entries in serial order.
    auto entries = lp.b->takeWarmInService(7);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].serial, 2u);
    EXPECT_EQ(entries[1].serial, 3u);
    EXPECT_EQ(lp.b->warmInService(), 0u);
}

TEST(ReplLoop, TakeWarmInServiceIsPerDevice)
{
    LoopPair lp;
    lp.a->mirrorInService(7, 5, 0, uint8_t(BlkType::In), 0, 512, {});
    lp.a->mirrorInService(7, 6, 0, uint8_t(BlkType::In), 8, 512, {});
    lp.a->mirrorInService(9, 1, 0, uint8_t(BlkType::In), 0, 512, {});
    lp.runFor(kMillisecond);
    ASSERT_EQ(lp.b->warmInService(), 3u);

    auto seven = lp.b->takeWarmInService(7);
    ASSERT_EQ(seven.size(), 2u);
    EXPECT_EQ(seven[0].serial, 5u);
    EXPECT_EQ(seven[1].serial, 6u);
    // Device 9's entry is untouched; a second take comes back empty.
    EXPECT_EQ(lp.b->warmInService(), 1u);
    EXPECT_TRUE(lp.b->takeWarmInService(7).empty());
}

// -- lapse classification and warm-peer failover -------------------------

iohost::IoHostLoad
load(uint32_t load_ns, sim::Tick last_beat, bool seen = true)
{
    iohost::IoHostLoad l;
    l.load_ns = load_ns;
    l.last_beat = last_beat;
    l.seen = seen;
    return l;
}

TEST(LapseClassify, OtherSourcesBeatingMeansHomeDead)
{
    const sim::Tick now = 100 * kMillisecond;
    const sim::Tick fresh = 10 * kMillisecond;
    // Host 1 beat recently: the client's path demonstrably works, so
    // the silent home alone is dead.
    EXPECT_EQ(PlacementPolicy::classifyLapse(
                  0,
                  {load(0, now - 20 * kMillisecond),
                   load(0, now - 2 * kMillisecond)},
                  now, fresh),
              PlacementPolicy::LapseVerdict::HomeDead);
}

TEST(LapseClassify, TotalSilenceIndictsTheClientsOwnPath)
{
    const sim::Tick now = 100 * kMillisecond;
    const sim::Tick fresh = 10 * kMillisecond;
    // Every source lapsed at once: the shared segment (the client's
    // NIC or switch port) is suspect, and failing over to an equally
    // unreachable host would only strand in-service state.
    EXPECT_EQ(PlacementPolicy::classifyLapse(
                  0,
                  {load(0, now - 20 * kMillisecond),
                   load(0, now - 15 * kMillisecond)},
                  now, fresh),
              PlacementPolicy::LapseVerdict::PathSuspect);
    // Never-seen sources cannot vouch for the path either.
    EXPECT_EQ(PlacementPolicy::classifyLapse(
                  0, {load(0, 0, false), load(0, 0, false)}, now,
                  fresh),
              PlacementPolicy::LapseVerdict::PathSuspect);
}

TEST(Placement, FailoverPrefersTheFreshWarmPeer)
{
    const sim::Tick now = 100 * kMillisecond;
    const sim::Tick fresh = 10 * kMillisecond;
    // Host 1 is the warm peer: it wins even though host 2 is both
    // fresher and lighter, because only the peer holds the home's
    // mirrored duplicate-filter and in-service state.
    EXPECT_EQ(PlacementPolicy::pickFailover(
                  0,
                  {load(0, now - 20 * kMillisecond),
                   load(9000, now - 5 * kMillisecond),
                   load(100, now - 1 * kMillisecond)},
                  now, fresh, /*warm_peer=*/1),
              1u);
}

TEST(Placement, StaleWarmPeerFallsBackToFreshestScan)
{
    const sim::Tick now = 100 * kMillisecond;
    const sim::Tick fresh = 10 * kMillisecond;
    // The warm peer lapsed too (maybe it died with the home): its
    // mirror is unreachable, so the historical freshest-beat scan
    // decides.
    EXPECT_EQ(PlacementPolicy::pickFailover(
                  0,
                  {load(0, now - 20 * kMillisecond),
                   load(0, now - 15 * kMillisecond),
                   load(100, now - 1 * kMillisecond)},
                  now, fresh, /*warm_peer=*/1),
              2u);
    // And warm_peer = -1 keeps the legacy behavior bit-for-bit.
    EXPECT_EQ(PlacementPolicy::pickFailover(
                  0,
                  {load(0, now - 9 * kMillisecond),
                   load(9000, now - 1 * kMillisecond),
                   load(100, now - 5 * kMillisecond)},
                  now, fresh, /*warm_peer=*/-1),
              1u);
}

// -- duplicate-filter seeding (failover handoff) -------------------------

TEST(DedupSeed, LiveRetryBeatsTheReplay)
{
    transport::DuplicateFilter f;
    // The client's retry arrived first (generation 2); the warm
    // replay's seed must neither re-admit nor regress the generation
    // the response will carry.
    EXPECT_TRUE(f.admit(1, 10, 2));
    EXPECT_FALSE(f.seed(1, 10, 0));
    EXPECT_EQ(f.suppressed(), 0u); // a seed is not a suppression
    EXPECT_EQ(f.take(1, 10, 0), 2u);
}

TEST(DedupSeed, SeededEntrySuppressesTheLateRetry)
{
    transport::DuplicateFilter f;
    // The replay got there first: the seed is new (caller replays),
    // and the client's late retry is suppressed like any duplicate.
    EXPECT_TRUE(f.seed(1, 11, 0));
    EXPECT_FALSE(f.admit(1, 11, 1));
    EXPECT_EQ(f.suppressed(), 1u);
    // The retry's newer generation is what the response must stamp.
    EXPECT_EQ(f.take(1, 11, 0), 1u);
}

TEST(DedupSeed, DropDeviceQuarantinesOneQueueOnly)
{
    transport::DuplicateFilter f;
    EXPECT_TRUE(f.admit(1, 1, 0));
    EXPECT_TRUE(f.admit(1, 2, 0));
    EXPECT_TRUE(f.admit(2, 7, 0));
    EXPECT_EQ(f.inServiceOf(1), 2u);
    EXPECT_EQ(f.dropDevice(1), 2u);
    EXPECT_EQ(f.inServiceOf(1), 0u);
    EXPECT_EQ(f.inServiceOf(2), 1u);
    // The dropped entries' retries re-admit and re-execute.
    EXPECT_TRUE(f.admit(1, 1, 1));
}

// -- model-level rack scenarios ------------------------------------------

struct ReplRackOptions
{
    unsigned iohosts = 2;
    unsigned vms = 2;
    unsigned vmhosts = 2;
    uint64_t seed = 42;
    unsigned threads = 1;
    bool replication = true;
    bool coalesce = false;
    sim::Tick coalesce_window = 2 * kMicrosecond;
    size_t coalesce_max = 8;
    double resteer_ratio = 0.0;
};

std::unique_ptr<core::Testbed>
makeReplRack(const ReplRackOptions &o)
{
    core::TestbedOptions options;
    options.vmhosts = o.vmhosts;
    options.sidecores = 2;
    options.seed = o.seed;
    options.threads = o.threads;
    options.shards = models::vrioShardCount(o.vmhosts, o.iohosts);
    options.configure = [&](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_via_switch = true;
        mc.recovery.enabled = true;
        mc.rack.iohosts = o.iohosts;
        mc.rack.coalesce = o.coalesce;
        mc.rack.coalesce_window = o.coalesce_window;
        mc.rack.coalesce_max = o.coalesce_max;
        mc.rack.shared_volume = true;
        mc.rack.resteer_ratio = o.resteer_ratio;
        mc.rack.resteer_dwell = 5 * kMillisecond;
        mc.rack.replication = o.replication;
    };
    auto tb = std::make_unique<core::Testbed>(ModelKind::Vrio, o.vms,
                                              options);
    tb->settle();
    return tb;
}

models::VrioModel &
vrioOf(core::Testbed &tb)
{
    auto *vm = dynamic_cast<models::VrioModel *>(&tb.model());
    EXPECT_NE(vm, nullptr);
    return *vm;
}

/** Shard owning rack IOhost @p k (fabric 0, VMhosts, then IOhosts). */
unsigned
ioShard(unsigned vmhosts, unsigned k)
{
    return 1 + vmhosts + k;
}

TEST(ReplFailover, AckedWritesReadableFromTheWarmPeer)
{
    ReplRackOptions o;
    auto tb = makeReplRack(o);
    auto &sim = tb->simulation();
    auto &vm = vrioOf(*tb);
    auto &hv1 = vm.rackHypervisor(1);

    // An acknowledged write: the client saw Ok only after the peer
    // acked the mirrored commit (output-commit), so its data must be
    // readable wherever the client lands next.
    unsigned done_a = 0;
    {
        block::BlockRequest w;
        w.kind = BlkType::Out;
        w.sector = 64;
        w.nsectors = 8;
        w.data.assign(8 * virtio::kSectorSize, 0xA5);
        tb->guest(0).submitBlock(std::move(w),
                                 [&done_a](virtio::BlkStatus s, Bytes) {
                                     EXPECT_EQ(s, virtio::BlkStatus::Ok);
                                     ++done_a;
                                 });
    }
    tb->runFor(5 * kMillisecond);
    ASSERT_EQ(done_a, 1u);

    // A second write races the home's crash window: whether it
    // committed before the crash (retry answered from the committed
    // table) or not (warm replay / retry re-executes), it completes
    // exactly once at the surviving store.
    unsigned done_b = 0;
    {
        block::BlockRequest w;
        w.kind = BlkType::Out;
        w.sector = 128;
        w.nsectors = 8;
        w.data.assign(8 * virtio::kSectorSize, 0x3C);
        tb->guest(0).submitBlock(std::move(w),
                                 [&done_b](virtio::BlkStatus s, Bytes) {
                                     EXPECT_EQ(s, virtio::BlkStatus::Ok);
                                     ++done_b;
                                 });
    }
    {
        sim::ShardScope scope(sim, ioShard(o.vmhosts, 0));
        auto &hv0 = vm.rackHypervisor(0);
        sim.events().scheduleAt(sim.now() + 50 * kMicrosecond,
                                [&hv0]() { hv0.setOffline(true); });
        // The crash is a window, not a funeral: the revived host
        // resumes acking its peer's mirror stream, which is what lets
        // the survivor release held responses again (output-commit
        // needs a live replica).
        sim.events().scheduleAt(sim.now() + 18 * kMillisecond,
                                [&hv0]() { hv0.setOffline(false); });
    }
    tb->runFor(40 * kMillisecond);

    // The lapse classified as HomeDead (IOhost 1 kept beating) and
    // failover preferred the warm peer.
    EXPECT_EQ(vm.clientHomeIoHost(0), 1u);
    EXPECT_EQ(bench::clientCount(vm, 0, "client.failovers"), 1u);
    EXPECT_EQ(bench::clientCount(vm, 0, "rack.path_suspicions"), 0u);
    EXPECT_EQ(done_b, 1u);
    // The mirror stream demonstrably fed the peer.
    ASSERT_NE(hv1.replicator(), nullptr);
    EXPECT_GT(hv1.replicator()->recordsApplied(), 0u);
    EXPECT_GE(hv1.replicator()->commitsApplied(), 1u);

    // Read-your-write across the failover, from the new home's store.
    std::vector<std::pair<uint64_t, uint8_t>> expect = {{64, 0xA5},
                                                        {128, 0x3C}};
    for (auto [sector, fill] : expect) {
        Bytes got;
        block::BlockRequest r;
        r.kind = BlkType::In;
        r.sector = sector;
        r.nsectors = 8;
        tb->guest(0).submitBlock(std::move(r),
                                 [&got](virtio::BlkStatus s, Bytes d) {
                                     EXPECT_EQ(s, virtio::BlkStatus::Ok);
                                     got = std::move(d);
                                 });
        tb->runFor(5 * kMillisecond);
        ASSERT_EQ(got.size(), 8u * virtio::kSectorSize)
            << "sector " << sector;
        for (uint8_t byte : got)
            ASSERT_EQ(byte, fill) << "sector " << sector;
    }
    EXPECT_EQ(vm.clientPendingBlocks(0), 0u);
    EXPECT_EQ(hv1.heldResponses(), 0u);
}

TEST(ReplRehome, PlannedFlipHasBoundedBlackout)
{
    ReplRackOptions o;
    o.vms = 2;
    auto tb = makeReplRack(o);
    auto &vm = vrioOf(*tb);

    workloads::FilebenchRandom::Config wcfg;
    wcfg.readers = 1;
    wcfg.writers = 1;
    workloads::FilebenchRandom wl(tb->guest(0),
                                  tb->simulation().random().split(),
                                  wcfg);
    wl.start();
    tb->runFor(5 * kMillisecond);

    // A planned drain-mirror-flip onto the warm peer, under load.
    vm.scheduleRehome(0, 1, tb->simulation().now() + 2 * kMillisecond);
    tb->runFor(20 * kMillisecond);

    EXPECT_EQ(bench::clientCount(vm, 0, "rack.rehomes"), 1u);
    EXPECT_EQ(vm.clientHomeIoHost(0), 1u);
    // A re-home is not a failure: no lapse, no failover.
    EXPECT_EQ(bench::clientCount(vm, 0, "client.failovers"), 0u);
    EXPECT_EQ(vm.rackHypervisor(0).rehomesIssued(), 1u);
    // Blackout = flip tick to first accepted response at the new
    // home.  A planned flip pays a handoff round trip, never a
    // detection window: strictly under the 8 ms lapse budget.
    EXPECT_GT(vm.clientLastBlackout(0), 0u);
    EXPECT_LT(vm.clientLastBlackout(0), 5 * kMillisecond);

    wl.stop();
    tb->runFor(150 * kMillisecond);
    EXPECT_EQ(wl.outstandingOps(), 0u);
    EXPECT_EQ(wl.ioErrors(), 0u);
    EXPECT_EQ(vm.clientPendingBlocks(0), 0u);
    EXPECT_EQ(vm.rackHypervisor(0).heldResponses(), 0u);
    EXPECT_EQ(vm.rackHypervisor(1).heldResponses(), 0u);
}

TEST(ReplPathSuspect, TotalBeatSilenceSuppressesFailover)
{
    // Kill the switch ports of BOTH IOhosts' client NICs, staggered
    // so each client's classifier sees the other source already
    // stale when its home lapses: the verdict is PathSuspect, and the
    // client must keep retrying in place instead of bouncing between
    // equally unreachable homes.
    ReplRackOptions o;
    o.replication = false; // per-path suspicion is rack-generic
    auto tb = makeReplRack(o);
    auto &sim = tb->simulation();
    auto &vm = vrioOf(*tb);
    net::Switch &sw = tb->rack().rackSwitch();

    tb->runFor(5 * kMillisecond);
    const sim::Tick t0 = sim.now();
    for (unsigned k = 0; k < 2; ++k) {
        net::MacAddress victim = vm.rackIoHostMac(k);
        sim::ShardScope scope(sim, 0); // the switch is rack fabric
        sim::Tick down = t0 + (k == 0 ? 4 : 0) * kMillisecond;
        // Downing a port flushes its learned MACs, so resolve the
        // victim port at kill time and remember it for the heal.
        auto killed = std::make_shared<std::optional<size_t>>();
        sim.events().scheduleAt(down, [&sw, victim, killed]() {
            if (auto port = sw.portOf(victim)) {
                sw.setPortDown(*port, true);
                *killed = *port;
            }
        });
        sim.events().scheduleAt(t0 + 18 * kMillisecond,
                                [&sw, killed]() {
                                    if (*killed)
                                        sw.setPortDown(**killed, false);
                                });
    }
    tb->runFor(40 * kMillisecond);

    // VM 0 (homed on IOhost 0, whose port died last): by the time its
    // monitor lapsed, IOhost 1 was long silent too — pure suspicion,
    // zero failovers, home unchanged.
    EXPECT_GE(bench::clientCount(vm, 0, "rack.path_suspicions"), 1u);
    EXPECT_EQ(bench::clientCount(vm, 0, "client.failovers"), 0u);
    EXPECT_EQ(vm.clientHomeIoHost(0), 0u);
    // VM 1's home port died first while IOhost 0 still beat — that
    // lapse is a legitimate HomeDead failover — but once every source
    // went dark, further lapses were suppressed as suspicion.
    EXPECT_GE(bench::clientCount(vm, 1, "rack.path_suspicions"), 1u);
    EXPECT_LE(bench::clientCount(vm, 1, "client.failovers"), 1u);

    // The path healed: both clients serve I/O again from wherever
    // they sit, with no stranded state.
    for (unsigned v = 0; v < 2; ++v) {
        unsigned done = 0;
        block::BlockRequest r;
        r.kind = BlkType::In;
        r.sector = 8 * v;
        r.nsectors = 8;
        tb->guest(v).submitBlock(std::move(r),
                                 [&done](virtio::BlkStatus s, Bytes) {
                                     EXPECT_EQ(s, virtio::BlkStatus::Ok);
                                     ++done;
                                 });
        tb->runFor(10 * kMillisecond);
        EXPECT_EQ(done, 1u) << "vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u) << "vm " << v;
    }
}

TEST(FaultPlan, OverlappingOutageWindowsCoalesce)
{
    // Two same-IOhost windows that overlap must become ONE downtime
    // interval: naively paired begin/end events would revive the host
    // at the FIRST window's end, mid-crash.
    ReplRackOptions o;
    o.replication = false;
    auto tb = makeReplRack(o);
    auto &vm = vrioOf(*tb);
    const sim::Tick t0 = tb->simulation().now();

    fault::FaultPlan plan;
    plan.killIoHost(t0 + 2 * kMillisecond, 6 * kMillisecond, 0);
    plan.killIoHost(t0 + 5 * kMillisecond, 6 * kMillisecond, 0);
    plan.killIoHost(t0 + 2 * kMillisecond, 3 * kMillisecond, 1);
    fault::FaultInjector inj(tb->simulation(), "fault", plan);
    inj.attach(vm);
    inj.arm();
    EXPECT_EQ(inj.outagesCoalesced(), 1u);

    // Between the first window's naive end (t0+8ms) and the merged
    // end (t0+11ms) the host must still be down.
    tb->runFor(9 * kMillisecond + 500 * kMicrosecond);
    EXPECT_TRUE(vm.rackHypervisor(0).offline());
    EXPECT_FALSE(vm.rackHypervisor(1).offline()); // distinct host: kept
    tb->runFor(3 * kMillisecond);
    EXPECT_FALSE(vm.rackHypervisor(0).offline());
    // One begin/end pair per maximal interval: 1 merged + 1 separate.
    EXPECT_EQ(inj.outagesTriggered(), 2u);
}

TEST(DeviceWatchdog, StarvedQueueTripsWithHealthyWorkers)
{
    // A request staged in the coalescer under an absurd merge window
    // is the worker watchdog's blind spot incarnate: the duplicate
    // filter holds an in-service entry, no completion ever comes, and
    // every worker is idle and healthy.  The per-device pass must
    // declare the queue starved and drop its entries so retries
    // re-admit.
    ReplRackOptions o;
    o.replication = false;
    o.coalesce = true;
    o.coalesce_window = 10 * sim::kSecond;
    o.coalesce_max = 64;
    auto tb = makeReplRack(o);
    auto &vm = vrioOf(*tb);

    block::BlockRequest w;
    w.kind = BlkType::Out;
    w.sector = 0;
    w.nsectors = 8;
    w.data.assign(8 * virtio::kSectorSize, 0x55);
    tb->guest(0).submitBlock(std::move(w), [](virtio::BlkStatus, Bytes) {});
    tb->runFor(25 * kMillisecond);

    auto &hv = vm.rackHypervisor(0);
    EXPECT_GE(hv.devicesStarved(), 1u);
    EXPECT_EQ(hv.wedgesDetected(), 0u); // workers were never the story
}

// -- duplicate-filter handoff property across seeds and threads ----------

/**
 * Warm failover under load: IOhost 0 crashes for a 15 ms window while
 * every VM runs a closed-loop mix.  The handoff must leave zero
 * stranded requests, zero I/O errors, and zero held responses — and
 * because results are a function of (seed, shards), never of thread
 * count, a fingerprint of every observable counter must be identical
 * at 1, 2 and 8 event-loop threads for the same seed.
 */
class ReplHandoff
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>>
{};

TEST_P(ReplHandoff, FailoverUnderLoadDrainsDryAtEveryThreadCount)
{
    const uint64_t seed = std::get<0>(GetParam());
    const unsigned threads = std::get<1>(GetParam());

    ReplRackOptions o;
    o.vms = 4;
    o.seed = seed;
    o.threads = threads;
    auto tb = makeReplRack(o);
    auto &sim = tb->simulation();
    auto &vm = vrioOf(*tb);

    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < o.vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 1;
        cfg.writers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            tb->guest(v), sim.random().split(), cfg));
        wls.back()->start();
    }
    tb->runFor(5 * kMillisecond);

    // The crash lands mid-load at an absolute tick on the owning
    // shard, so the same timeline drives every thread count.
    const sim::Tick t0 = sim.now();
    {
        sim::ShardScope scope(sim, ioShard(o.vmhosts, 0));
        auto &hv0 = vm.rackHypervisor(0);
        sim.events().scheduleAt(t0 + 5 * kMillisecond,
                                [&hv0]() { hv0.setOffline(true); });
        sim.events().scheduleAt(t0 + 20 * kMillisecond,
                                [&hv0]() { hv0.setOffline(false); });
    }
    tb->runFor(50 * kMillisecond);
    for (auto &wl : wls)
        wl->stop();
    tb->runFor(200 * kMillisecond);

    uint64_t ops = 0;
    std::vector<uint64_t> fingerprint;
    for (unsigned v = 0; v < o.vms; ++v) {
        ops += wls[v]->opsCompleted();
        EXPECT_EQ(wls[v]->outstandingOps(), 0u)
            << "seed " << seed << " threads " << threads << " vm " << v;
        EXPECT_EQ(wls[v]->ioErrors(), 0u)
            << "seed " << seed << " threads " << threads << " vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u)
            << "seed " << seed << " threads " << threads << " vm " << v;
        fingerprint.push_back(wls[v]->opsCompleted());
        for (const char *series :
             {"client.failovers", "rack.resteers", "rack.path_suspicions",
              "transport.rtq.retransmissions"})
            fingerprint.push_back(bench::clientCount(vm, v, series));
    }
    EXPECT_GT(ops, 100u);
    for (unsigned k = 0; k < 2; ++k) {
        auto &hv = vm.rackHypervisor(k);
        EXPECT_EQ(hv.heldResponses(), 0u)
            << "iohost " << k << " lag " << hv.replicator()->lag()
            << " lastAcked " << hv.replicator()->lastAcked()
            << " nextSeq " << hv.replicator()->nextSeq()
            << " windowFull " << hv.replicator()->windowFull()
            << " homes " << vm.clientHomeIoHost(0)
            << vm.clientHomeIoHost(1) << vm.clientHomeIoHost(2)
            << vm.clientHomeIoHost(3) << " failovers "
            << bench::clientCount(vm, 0, "client.failovers")
            << bench::clientCount(vm, 1, "client.failovers")
            << bench::clientCount(vm, 2, "client.failovers")
            << bench::clientCount(vm, 3, "client.failovers")
            << " suspicions "
            << bench::clientCount(vm, 1, "rack.path_suspicions")
            << bench::clientCount(vm, 3, "rack.path_suspicions");
        fingerprint.push_back(hv.warmReplays());
        fingerprint.push_back(hv.commitHits());
        fingerprint.push_back(hv.duplicatesSuppressed());
    }
    // The crashed host's clients moved to the warm peer and stayed
    // (voluntary re-steering is off).
    EXPECT_EQ(vm.clientHomeIoHost(0), 1u);
    EXPECT_EQ(vm.clientHomeIoHost(2), 1u);
    EXPECT_EQ(bench::clientCount(vm, 0, "client.failovers"), 1u);

    // Thread-count invariance: the first run of each seed records the
    // fingerprint; every other thread count must reproduce it.
    static std::map<uint64_t, std::vector<uint64_t>> seen;
    auto [it, inserted] = seen.emplace(seed, fingerprint);
    if (!inserted) {
        EXPECT_EQ(it->second, fingerprint)
            << "seed " << seed << " threads " << threads
            << ": results must be f(seed, shards), never f(threads)";
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, ReplHandoff,
    ::testing::Combine(::testing::Values(11ull, 47ull, 90210ull),
                       ::testing::Values(1u, 2u, 8u)),
    [](const auto &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
               "_t" + std::to_string(std::get<1>(info.param));
    });

// -- multi-fault soak: crash mid-re-home, replication link killed --------

class ReplSoak : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ReplSoak, CrashDuringRehomeAndReplLinkKillDrainDry)
{
    const unsigned threads = GetParam();
    ReplRackOptions o;
    o.vms = 4;
    o.threads = threads;
    auto tb = makeReplRack(o);
    auto &sim = tb->simulation();
    auto &vm = vrioOf(*tb);
    net::Switch &sw = tb->rack().rackSwitch();

    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < o.vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 1;
        cfg.writers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            tb->guest(v), sim.random().split(), cfg));
        wls.back()->start();
    }
    tb->runFor(5 * kMillisecond);
    const sim::Tick t0 = sim.now();

    // (1) A planned re-home of VM 0 onto IOhost 1...
    vm.scheduleRehome(0, 1, t0 + 5 * kMillisecond);
    // (2) ...whose primary crashes right as the drain begins.  If the
    // flip command got out, this is a crash at the new home's first
    // breath; if not, the client lapses and the warm failover lands
    // it on IOhost 1 anyway.  Either way VM 0 ends up there.
    {
        sim::ShardScope scope(sim, ioShard(o.vmhosts, 0));
        auto &hv0 = vm.rackHypervisor(0);
        sim.events().scheduleAt(t0 + 5 * kMillisecond +
                                    150 * kMicrosecond,
                                [&hv0]() { hv0.setOffline(true); });
        sim.events().scheduleAt(t0 + 25 * kMillisecond,
                                [&hv0]() { hv0.setOffline(false); });
    }
    // (3) While the revived IOhost 0 catches up on the mirror stream,
    // the survivor's replication port dies: syncs and acks stall,
    // held responses back up behind the output-commit rule, and
    // go-back-N must replay the gap after the heal.
    {
        net::MacAddress victim = net::MacAddress::local(0x7d0000 + 1);
        sim::ShardScope scope(sim, 0); // the switch is rack fabric
        // Downing a port flushes its learned MACs, so resolve the
        // victim port at kill time and remember it for the heal.
        auto killed = std::make_shared<std::optional<size_t>>();
        sim.events().scheduleAt(t0 + 26 * kMillisecond,
                                [&sw, victim, killed]() {
                                    if (auto port = sw.portOf(victim)) {
                                        sw.setPortDown(*port, true);
                                        *killed = *port;
                                    }
                                });
        sim.events().scheduleAt(t0 + 32 * kMillisecond,
                                [&sw, killed]() {
                                    if (*killed)
                                        sw.setPortDown(**killed, false);
                                });
    }

    tb->runFor(60 * kMillisecond);
    for (auto &wl : wls)
        wl->stop();
    tb->runFor(250 * kMillisecond);

    uint64_t ops = 0;
    for (unsigned v = 0; v < o.vms; ++v) {
        ops += wls[v]->opsCompleted();
        EXPECT_EQ(wls[v]->outstandingOps(), 0u)
            << "threads " << threads << " vm " << v;
        EXPECT_EQ(wls[v]->ioErrors(), 0u)
            << "threads " << threads << " vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u)
            << "threads " << threads << " vm " << v;
    }
    EXPECT_GT(ops, 100u);
    EXPECT_EQ(vm.clientHomeIoHost(0), 1u);
    EXPECT_GE(bench::clientCount(vm, 0, "rack.rehomes") +
                  bench::clientCount(vm, 0, "client.failovers"),
              1u);
    for (unsigned k = 0; k < 2; ++k)
        EXPECT_EQ(vm.rackHypervisor(k).heldResponses(), 0u)
            << "iohost " << k;

    // Epilogue: a fresh write from the re-homed client commits
    // through the healed replication ring (its held response needs
    // the revived peer's ack) and reads back intact — the zero-loss
    // invariant end to end.
    unsigned done = 0;
    {
        block::BlockRequest w;
        w.kind = BlkType::Out;
        w.sector = 192;
        w.nsectors = 8;
        w.data.assign(8 * virtio::kSectorSize, 0x77);
        tb->guest(0).submitBlock(std::move(w),
                                 [&done](virtio::BlkStatus s, Bytes) {
                                     EXPECT_EQ(s, virtio::BlkStatus::Ok);
                                     ++done;
                                 });
    }
    tb->runFor(10 * kMillisecond);
    ASSERT_EQ(done, 1u);
    Bytes got;
    {
        block::BlockRequest r;
        r.kind = BlkType::In;
        r.sector = 192;
        r.nsectors = 8;
        tb->guest(0).submitBlock(std::move(r),
                                 [&got](virtio::BlkStatus s, Bytes d) {
                                     EXPECT_EQ(s, virtio::BlkStatus::Ok);
                                     got = std::move(d);
                                 });
    }
    tb->runFor(10 * kMillisecond);
    ASSERT_EQ(got.size(), 8u * virtio::kSectorSize);
    for (uint8_t byte : got)
        ASSERT_EQ(byte, 0x77);
}

INSTANTIATE_TEST_SUITE_P(Threads, ReplSoak,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto &info) {
                             return "t" + std::to_string(info.param);
                         });

} // namespace
} // namespace vrio
