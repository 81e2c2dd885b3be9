/**
 * @file
 * Rack-layer tests (DESIGN.md §15): the cross-VM request coalescer's
 * merge rules, the placement policy's steering decisions, the
 * generalized shard map's RNG-stream contract, and model-level rack
 * behavior — coalesced data integrity, failover-as-placement,
 * load-driven re-steering, and a randomized fault-soup soak that must
 * drain dry at every thread count.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common.hpp"
#include "core/testbed.hpp"
#include "fault/injector.hpp"
#include "interpose/services.hpp"
#include "iohost/placement.hpp"
#include "models/rack.hpp"
#include "models/vrio.hpp"
#include "net/switch.hpp"
#include "telemetry/trace.hpp"
#include "transport/coalesce.hpp"

namespace vrio {
namespace {

using models::ModelKind;
using sim::kMicrosecond;
using sim::kMillisecond;
using transport::CoalesceEntry;
using transport::MergedRun;
using transport::planMergedRuns;
using virtio::BlkType;

// -- coalesce planner: merge rules ---------------------------------------

CoalesceEntry
entry(uint8_t type, uint64_t lba, uint32_t nsectors, uint64_t arrival,
      uint32_t ns_id = 0)
{
    CoalesceEntry e;
    e.device_id = 0x5700 + unsigned(arrival);
    e.serial = arrival;
    e.blk_type = type;
    e.ns_id = ns_id;
    e.lba = lba;
    e.nsectors = nsectors;
    e.arrival = arrival;
    if (type == uint8_t(BlkType::Out))
        e.payload.assign(uint64_t(nsectors) * virtio::kSectorSize,
                         uint8_t(0xc0 + arrival));
    return e;
}

TEST(CoalescePlan, AdjacentReadsMergeIntoOneRun)
{
    auto runs = planMergedRuns(
        {entry(uint8_t(BlkType::In), 0, 8, 0),
         entry(uint8_t(BlkType::In), 8, 8, 1),
         entry(uint8_t(BlkType::In), 16, 8, 2)},
        8);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].lba, 0u);
    EXPECT_EQ(runs[0].nsectors, 24u);
    EXPECT_EQ(runs[0].parts.size(), 3u);
    EXPECT_TRUE(runs[0].merged());
}

TEST(CoalescePlan, ReadOverlapDuplicateAndSubsetCollapse)
{
    // Partial overlap: [0,8) + [4,12) -> one covering read [0,12).
    auto overlap = planMergedRuns({entry(uint8_t(BlkType::In), 0, 8, 0),
                                   entry(uint8_t(BlkType::In), 4, 8, 1)},
                                  8);
    ASSERT_EQ(overlap.size(), 1u);
    EXPECT_EQ(overlap[0].lba, 0u);
    EXPECT_EQ(overlap[0].nsectors, 12u);

    // Exact duplicate and strict subset both collapse into the cover.
    auto dup = planMergedRuns({entry(uint8_t(BlkType::In), 0, 8, 0),
                               entry(uint8_t(BlkType::In), 0, 8, 1),
                               entry(uint8_t(BlkType::In), 2, 4, 2)},
                              8);
    ASSERT_EQ(dup.size(), 1u);
    EXPECT_EQ(dup[0].lba, 0u);
    EXPECT_EQ(dup[0].nsectors, 8u);
    EXPECT_EQ(dup[0].parts.size(), 3u);
}

TEST(CoalescePlan, GappedReadsNeverMerge)
{
    auto runs = planMergedRuns({entry(uint8_t(BlkType::In), 0, 8, 0),
                                entry(uint8_t(BlkType::In), 24, 8, 1)},
                               8);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_FALSE(runs[0].merged());
    EXPECT_FALSE(runs[1].merged());
}

TEST(CoalescePlan, WritesMergeOnlyOnExactAdjacency)
{
    // Adjacent writes merge...
    auto adj = planMergedRuns({entry(uint8_t(BlkType::Out), 0, 8, 0),
                               entry(uint8_t(BlkType::Out), 8, 8, 1)},
                              8);
    ASSERT_EQ(adj.size(), 1u);
    EXPECT_EQ(adj[0].nsectors, 16u);

    // ...but an overlapping pair has an ordering obligation a single
    // submission cannot express, so it stays two submissions.
    auto ovl = planMergedRuns({entry(uint8_t(BlkType::Out), 0, 8, 0),
                               entry(uint8_t(BlkType::Out), 4, 8, 1)},
                              8);
    EXPECT_EQ(ovl.size(), 2u);

    // Duplicate writes likewise never collapse.
    auto dup = planMergedRuns({entry(uint8_t(BlkType::Out), 0, 8, 0),
                               entry(uint8_t(BlkType::Out), 0, 8, 1)},
                              8);
    EXPECT_EQ(dup.size(), 2u);
}

TEST(CoalescePlan, ReadsAndWritesNeverShareARun)
{
    auto runs = planMergedRuns({entry(uint8_t(BlkType::In), 0, 8, 0),
                                entry(uint8_t(BlkType::Out), 8, 8, 1)},
                               8);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_NE(runs[0].blk_type, runs[1].blk_type);
}

TEST(CoalescePlan, DataOpsCrossNamespacesFencesDoNot)
{
    // Adjacent reads from different namespaces of the same backing
    // device merge — a shared volume striped across VMs is the point.
    auto data = planMergedRuns(
        {entry(uint8_t(BlkType::In), 0, 8, 0, /*ns=*/0),
         entry(uint8_t(BlkType::In), 8, 8, 1, /*ns=*/1)},
        8);
    EXPECT_EQ(data.size(), 1u);

    // FLUSH folds with FLUSH of the same namespace only.
    auto same_ns = planMergedRuns(
        {entry(uint8_t(BlkType::Flush), 0, 0, 0, /*ns=*/3),
         entry(uint8_t(BlkType::Flush), 0, 0, 1, /*ns=*/3)},
        8);
    EXPECT_EQ(same_ns.size(), 1u);
    auto cross_ns = planMergedRuns(
        {entry(uint8_t(BlkType::Flush), 0, 0, 0, /*ns=*/3),
         entry(uint8_t(BlkType::Flush), 0, 0, 1, /*ns=*/4)},
        8);
    EXPECT_EQ(cross_ns.size(), 2u);

    // TRIM is a fence too, even when the ranges are adjacent.
    auto trim = planMergedRuns(
        {entry(uint8_t(BlkType::Discard), 0, 8, 0, /*ns=*/0),
         entry(uint8_t(BlkType::Discard), 8, 8, 1, /*ns=*/1)},
        8);
    EXPECT_EQ(trim.size(), 2u);
}

TEST(CoalescePlan, UnknownTypesRunAloneAndAreNeverDropped)
{
    // A type the planner has no merge rule for (here virtio's GET_ID,
    // 8) must still come back in a run of its own: a dropped entry
    // would never be answered.
    auto runs = planMergedRuns({entry(8, 0, 0, 0),
                                entry(uint8_t(BlkType::In), 8, 8, 1),
                                entry(8, 0, 0, 2)},
                               8);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].blk_type, 8u);
    EXPECT_FALSE(runs[0].merged());
    EXPECT_EQ(runs[1].blk_type, uint8_t(BlkType::In));
    EXPECT_EQ(runs[2].parts.front().arrival, 2u);
}

TEST(CoalescePlan, MaxRunCapsMembership)
{
    std::vector<CoalesceEntry> entries;
    for (unsigned i = 0; i < 8; ++i)
        entries.push_back(entry(uint8_t(BlkType::In), i * 8, 8, i));
    auto runs = planMergedRuns(entries, 3);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].parts.size(), 3u);
    EXPECT_EQ(runs[1].parts.size(), 3u);
    EXPECT_EQ(runs[2].parts.size(), 2u);
}

TEST(CoalescePlan, RunsOrderedByFirstArrivalAndDeterministic)
{
    // Two distant extents; the later-LBA one arrived first, so its
    // run must come back first (flush preserves rough request order).
    std::vector<CoalesceEntry> entries = {
        entry(uint8_t(BlkType::In), 100, 8, 0),
        entry(uint8_t(BlkType::In), 0, 8, 1),
        entry(uint8_t(BlkType::In), 108, 8, 2)};
    auto a = planMergedRuns(entries, 8);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0].lba, 100u);
    EXPECT_EQ(a[1].lba, 0u);

    // Same input -> byte-identical plan (no container-address order).
    auto b = planMergedRuns(entries, 8);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].lba, b[i].lba);
        EXPECT_EQ(a[i].nsectors, b[i].nsectors);
        ASSERT_EQ(a[i].parts.size(), b[i].parts.size());
        for (size_t p = 0; p < a[i].parts.size(); ++p)
            EXPECT_EQ(a[i].parts[p].serial, b[i].parts[p].serial);
    }
}

TEST(CoalescePlan, BuildAndSliceRoundTrip)
{
    auto w0 = entry(uint8_t(BlkType::Out), 8, 8, 0);
    auto w1 = entry(uint8_t(BlkType::Out), 16, 8, 1);
    auto runs = planMergedRuns({w1, w0}, 8);
    ASSERT_EQ(runs.size(), 1u);
    Bytes payload = transport::buildRunPayload(runs[0]);
    ASSERT_EQ(payload.size(), 16u * virtio::kSectorSize);
    // Parts are placed by LBA: w0's bytes first, then w1's.
    EXPECT_EQ(payload[0], w0.payload[0]);
    EXPECT_EQ(payload[8 * virtio::kSectorSize], w1.payload[0]);

    // Read fan-back slicing: each part gets its own window.
    auto r = planMergedRuns({entry(uint8_t(BlkType::In), 8, 8, 0),
                             entry(uint8_t(BlkType::In), 16, 8, 1)},
                            8);
    ASSERT_EQ(r.size(), 1u);
    Bytes data(16 * virtio::kSectorSize, 0);
    data[0] = 0x11;
    data[8 * virtio::kSectorSize] = 0x22;
    auto s0 = transport::sliceRunData(r[0], r[0].parts[0], data);
    auto s1 = transport::sliceRunData(r[0], r[0].parts[1], data);
    ASSERT_EQ(s0.size(), 8u * virtio::kSectorSize);
    ASSERT_EQ(s1.size(), 8u * virtio::kSectorSize);
    EXPECT_EQ(s0[0], 0x11);
    EXPECT_EQ(s1[0], 0x22);
    // The slices are views into the completion, not copies of it.
    EXPECT_EQ(s0.data(), data.data());
    EXPECT_EQ(s1.data(), data.data() + 8 * virtio::kSectorSize);

    // Error completions carry no data: the slice comes back empty.
    EXPECT_TRUE(transport::sliceRunData(r[0], r[0].parts[1], Bytes{})
                    .empty());
}

// -- placement policy ----------------------------------------------------

iohost::IoHostLoad
load(uint32_t load_ns, sim::Tick last_beat, bool seen = true)
{
    iohost::IoHostLoad l;
    l.load_ns = load_ns;
    l.last_beat = last_beat;
    l.seen = seen;
    return l;
}

TEST(Placement, BootAssignRoundRobins)
{
    EXPECT_EQ(iohost::PlacementPolicy::bootAssign(0, 3), 0u);
    EXPECT_EQ(iohost::PlacementPolicy::bootAssign(1, 3), 1u);
    EXPECT_EQ(iohost::PlacementPolicy::bootAssign(2, 3), 2u);
    EXPECT_EQ(iohost::PlacementPolicy::bootAssign(3, 3), 0u);
    EXPECT_EQ(iohost::PlacementPolicy::bootAssign(5, 1), 0u);
}

TEST(Placement, PickTargetRequiresRealImbalance)
{
    iohost::PlacementConfig cfg;
    cfg.imbalance_ratio = 2.0;
    const sim::Tick now = 100 * kMillisecond;
    const sim::Tick fresh = 10 * kMillisecond;

    // Home below the load floor: never move, whatever the peers say.
    auto idle = iohost::PlacementPolicy::pickTarget(
        0, {load(100, now), load(0, now)}, cfg, now, fresh);
    EXPECT_FALSE(idle.has_value());

    // Imbalance below the ratio gate: stay.
    auto mild = iohost::PlacementPolicy::pickTarget(
        0, {load(9000, now), load(5000, now)}, cfg, now, fresh);
    EXPECT_FALSE(mild.has_value());

    // 3x imbalance: move to the least-loaded fresh peer.
    auto move = iohost::PlacementPolicy::pickTarget(
        0, {load(15000, now), load(5000, now), load(4000, now)}, cfg,
        now, fresh);
    ASSERT_TRUE(move.has_value());
    EXPECT_EQ(*move, 2u);

    // The best peer must be a strict improvement over home.
    auto worse = iohost::PlacementPolicy::pickTarget(
        0, {load(15000, now), load(20000, now)}, cfg, now, fresh);
    EXPECT_FALSE(worse.has_value());
}

TEST(Placement, PickTargetIgnoresStalePeers)
{
    iohost::PlacementConfig cfg;
    cfg.imbalance_ratio = 2.0;
    const sim::Tick now = 100 * kMillisecond;
    const sim::Tick fresh = 10 * kMillisecond;

    // The only lighter peer's beat is outside the freshness window —
    // its advertised load is history, not a steering signal.
    auto stale = iohost::PlacementPolicy::pickTarget(
        0, {load(15000, now), load(1000, now - 50 * kMillisecond)}, cfg,
        now, fresh);
    EXPECT_FALSE(stale.has_value());
}

TEST(Placement, PickFailoverPrefersFreshestThenLightest)
{
    const sim::Tick now = 100 * kMillisecond;
    // Freshest beat wins outright.
    EXPECT_EQ(iohost::PlacementPolicy::pickFailover(
                  0,
                  {load(0, now - 9 * kMillisecond),
                   load(9000, now - 1 * kMillisecond),
                   load(100, now - 5 * kMillisecond)},
                  now, 10 * kMillisecond),
              1u);
    // Equal freshness: lower load, then lower index.
    EXPECT_EQ(iohost::PlacementPolicy::pickFailover(
                  0, {load(0, now), load(500, now), load(200, now)}, now,
                  10 * kMillisecond),
              2u);
    // Nothing ever seen: deterministic next-neighbor.
    EXPECT_EQ(iohost::PlacementPolicy::pickFailover(
                  1, {load(0, 0, false), load(0, 0, false),
                      load(0, 0, false)},
                  now, 10 * kMillisecond),
              2u);
}

// -- shard map regression (generalized vrioShardCount) -------------------

TEST(ShardMap, CountCoversVmhostsFabricAndIoHosts)
{
    // Legacy: vmhosts + fabric + one IOhost shard (standby shares it).
    EXPECT_EQ(models::vrioShardCount(1), 3u);
    EXPECT_EQ(models::vrioShardCount(3), 5u);
    // One rack IOhost lands exactly on the legacy layout...
    EXPECT_EQ(models::vrioShardCount(3, 1), 5u);
    // ...and every further IOhost adds its own shard.
    EXPECT_EQ(models::vrioShardCount(2, 3), 6u);
    EXPECT_EQ(models::vrioShardCount(4, 4), 9u);
}

TEST(ShardMap, ShardZeroKeepsHistoricalRngStream)
{
    // The contract that keeps every pre-rack golden byte-identical:
    // shard 0 owns the root RNG stream, no matter how many IOhost
    // shards the rack appends after the VMhosts.
    sim::Simulation legacy(42);
    std::vector<uint64_t> want;
    for (int i = 0; i < 16; ++i)
        want.push_back(legacy.random().next());

    for (unsigned iohosts : {1u, 3u}) {
        sim::Simulation::Config sc;
        sc.seed = 42;
        sc.shards = models::vrioShardCount(2, iohosts);
        sim::Simulation sharded(sc);
        std::vector<uint64_t> got;
        for (int i = 0; i < 16; ++i)
            got.push_back(sharded.shardRandom(0).next());
        EXPECT_EQ(want, got) << "iohosts=" << iohosts;
        // And the appended IOhost shards draw from distinct streams.
        EXPECT_NE(sharded.shardRandom(sc.shards - 1).next(), want[0]);
    }
}

// -- model-level: coalesced writes and reads keep per-VM integrity -------

struct RackOptions
{
    unsigned iohosts = 2;
    unsigned vms = 4;
    unsigned vmhosts = 2;
    uint64_t seed = 42;
    unsigned threads = 1;
    double resteer_ratio = 0.0;
    bool watchdog = true;
    bool coalesce = true;
    bool failback = false;
    sim::Tick window = 2 * kMicrosecond;
    size_t coalesce_max = 8;
};

std::unique_ptr<core::Testbed>
makeRack(const RackOptions &o)
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
        if (!o.watchdog)
            mc.recovery.watchdog_period = 0;
        mc.rack.iohosts = o.iohosts;
        mc.rack.coalesce = o.coalesce;
        mc.rack.coalesce_window = o.window;
        mc.rack.coalesce_max = o.coalesce_max;
        mc.rack.shared_volume = true;
        mc.rack.resteer_ratio = o.resteer_ratio;
        mc.rack.resteer_dwell = 5 * kMillisecond;
        mc.rack.failback = o.failback;
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

TEST(RackCoalesce, CrossVmWritesMergeAndReadBackIntact)
{
    RackOptions o;
    o.iohosts = 1;
    o.vms = 2;
    o.vmhosts = 2;
    o.window = 50 * kMicrosecond;
    o.coalesce_max = 2;
    auto tb = makeRack(o);
    auto &vm = vrioOf(*tb);
    auto &hv = vm.rackHypervisor(0);

    // Both VMs write adjacent 4KB extents of the shared volume in the
    // same tick: the exact-adjacency write rule merges them into ONE
    // backend submission.
    unsigned done = 0;
    for (unsigned v = 0; v < 2; ++v) {
        block::BlockRequest w;
        w.kind = BlkType::Out;
        w.sector = v * 8;
        w.nsectors = 8;
        w.data.assign(8 * virtio::kSectorSize, uint8_t(0xA0 + v));
        tb->guest(v).submitBlock(std::move(w),
                                 [&done](virtio::BlkStatus s, Bytes) {
                                     EXPECT_EQ(s, virtio::BlkStatus::Ok);
                                     ++done;
                                 });
    }
    tb->runFor(5 * kMillisecond);
    EXPECT_EQ(done, 2u);
    EXPECT_EQ(hv.coalesceStaged(), 2u);
    EXPECT_EQ(hv.coalesceRuns(), 1u);
    EXPECT_EQ(hv.coalesceMergedParts(), 2u);

    // Read the extents back — adjacent cross-VM reads merge too, and
    // the fan-back must slice each VM exactly its own bytes.
    std::vector<Bytes> got(2);
    for (unsigned v = 0; v < 2; ++v) {
        block::BlockRequest r;
        r.kind = BlkType::In;
        r.sector = v * 8;
        r.nsectors = 8;
        tb->guest(v).submitBlock(
            std::move(r), [&got, v](virtio::BlkStatus s, Bytes data) {
                EXPECT_EQ(s, virtio::BlkStatus::Ok);
                got[v] = std::move(data);
            });
    }
    tb->runFor(5 * kMillisecond);
    EXPECT_EQ(hv.coalesceRuns(), 2u);
    EXPECT_EQ(hv.coalesceMergedParts(), 4u);
    for (unsigned v = 0; v < 2; ++v) {
        ASSERT_EQ(got[v].size(), 8u * virtio::kSectorSize);
        for (uint8_t b : got[v])
            ASSERT_EQ(b, uint8_t(0xA0 + v));
    }
}

TEST(RackCoalesce, GappedRequestsStayIndividualSubmissions)
{
    RackOptions o;
    o.iohosts = 1;
    o.vms = 2;
    o.window = 50 * kMicrosecond;
    o.coalesce_max = 2;
    auto tb = makeRack(o);
    auto &hv = vrioOf(*tb).rackHypervisor(0);

    unsigned done = 0;
    for (unsigned v = 0; v < 2; ++v) {
        block::BlockRequest r;
        r.kind = BlkType::In;
        r.sector = v * 64; // a gap: adjacency never holds
        r.nsectors = 8;
        tb->guest(v).submitBlock(std::move(r),
                                 [&done](virtio::BlkStatus s, Bytes) {
                                     EXPECT_EQ(s, virtio::BlkStatus::Ok);
                                     ++done;
                                 });
    }
    tb->runFor(5 * kMillisecond);
    EXPECT_EQ(done, 2u);
    EXPECT_EQ(hv.coalesceStaged(), 2u);
    EXPECT_EQ(hv.coalesceRuns(), 2u);
    EXPECT_EQ(hv.coalesceMergedParts(), 0u);
}

TEST(RackCoalesce, ChainedDevicesBypassStagingAndStoreCiphertext)
{
    // A chain transforms exactly one request's payload, which a merged
    // run cannot express: an encrypted device runs every request as a
    // run of one, while its unchained neighbour on the same shared
    // volume still stages.
    std::vector<std::unique_ptr<interpose::Chain>> chains;
    unsigned blk_calls = 0;
    core::TestbedOptions options;
    options.vmhosts = 2;
    options.sidecores = 2;
    options.seed = 42;
    options.shards = models::vrioShardCount(2, 1);
    options.configure = [&](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_via_switch = true;
        mc.rack.iohosts = 1;
        mc.rack.coalesce = true;
        mc.rack.coalesce_window = 50 * kMicrosecond;
        mc.rack.shared_volume = true;
        // VM 1's disk is encrypted at rest; VM 0's is not.
        mc.chain_factory = [&](uint32_t,
                               bool is_block) -> interpose::Chain * {
            if (!is_block || blk_calls++ != 1)
                return nullptr;
            auto chain = std::make_unique<interpose::Chain>();
            chain->append(std::make_unique<interpose::EncryptionService>(
                Bytes(32, 0x3c)));
            chains.push_back(std::move(chain));
            return chains.back().get();
        };
    };
    core::Testbed tb(ModelKind::Vrio, 2, options);
    tb.settle();
    auto &hv = vrioOf(tb).rackHypervisor(0);

    auto submit = [&](unsigned v, block::BlockRequest req) {
        Bytes got;
        bool ok = false;
        tb.guest(v).submitBlock(std::move(req),
                                [&](virtio::BlkStatus s, Bytes data) {
                                    ok = s == virtio::BlkStatus::Ok;
                                    got = std::move(data);
                                });
        tb.runFor(5 * kMillisecond);
        EXPECT_TRUE(ok) << "vm " << v;
        return got;
    };
    Bytes plain(8 * virtio::kSectorSize);
    for (size_t i = 0; i < plain.size(); ++i)
        plain[i] = uint8_t(i * 13 + 5);

    submit(1, {BlkType::Out, 0, 8, plain});
    EXPECT_EQ(hv.coalesceStaged(), 0u);

    // The unchained VM reads the shared volume raw: ciphertext.
    Bytes raw = submit(0, {BlkType::In, 0, 8, {}});
    EXPECT_EQ(hv.coalesceStaged(), 1u);
    ASSERT_EQ(raw.size(), plain.size());
    EXPECT_NE(raw, plain);
    EXPECT_NE(raw, Bytes(raw.size(), 0));

    // The encrypted VM reads through its chain: plaintext again.
    EXPECT_EQ(submit(1, {BlkType::In, 0, 8, {}}), plain);
    EXPECT_EQ(hv.coalesceStaged(), 1u);
}

TEST(RackCoalesce, RetransmissionsSurviveTheMergePath)
{
    // Channel loss on a coalescing rack: the duplicate filter and the
    // retry protocol must keep every request exactly-once through
    // merged submissions — no errors, no stranded ops, and the closed
    // loops' outstanding counts return to zero (a duplicate fan-back
    // completion would unbalance them).
    RackOptions o;
    o.iohosts = 2;
    o.vms = 4;
    o.window = 10 * kMicrosecond;
    auto tb = makeRack(o);
    auto &vm = vrioOf(*tb);

    fault::FaultPlan plan;
    plan.seed = 17;
    plan.dropRate(0.02);
    fault::FaultInjector inj(tb->simulation(), "fault", plan);
    inj.attach(vm);
    inj.arm();

    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < o.vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 2;
        cfg.writers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            tb->guest(v), tb->simulation().random().split(), cfg));
        wls.back()->start();
    }
    tb->runFor(40 * kMillisecond);
    for (auto &wl : wls)
        wl->stop();
    tb->runFor(150 * kMillisecond);

    uint64_t retransmits = 0, ops = 0;
    for (unsigned v = 0; v < o.vms; ++v) {
        retransmits +=
            bench::clientCount(vm, v, "transport.rtq.retransmissions");
        ops += wls[v]->opsCompleted();
        EXPECT_EQ(wls[v]->outstandingOps(), 0u) << "vm " << v;
        EXPECT_EQ(wls[v]->ioErrors(), 0u) << "vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u) << "vm " << v;
    }
    EXPECT_GT(ops, 100u);
    EXPECT_GT(inj.framesDropped(), 0u);
    EXPECT_GT(retransmits, 0u);
}

// -- model-level: placement ----------------------------------------------

TEST(RackPlacement, BootAssignmentRoundRobinsAcrossIoHosts)
{
    RackOptions o;
    o.iohosts = 2;
    o.vms = 4;
    auto tb = makeRack(o);
    auto &vm = vrioOf(*tb);
    ASSERT_EQ(vm.rackIoHostCount(), 2u);
    for (unsigned v = 0; v < 4; ++v) {
        EXPECT_EQ(vm.clientHomeIoHost(v), v % 2) << "vm " << v;
        EXPECT_EQ(bench::clientCount(vm, v, "rack.resteers"), 0u);
    }
}

TEST(RackPlacement, DeadIoHostIsJustAPlacementDecision)
{
    // PR 4's standby subsumed: when IOhost 0 dies, its clients' lapse
    // handler re-homes them onto IOhost 1 via PlacementPolicy — same
    // machinery as a voluntary re-steer, flagged as failover.
    RackOptions o;
    auto tb = makeRack(o);
    auto &vm = vrioOf(*tb);

    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < o.vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 1;
        cfg.writers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            tb->guest(v), tb->simulation().random().split(), cfg));
        wls.back()->start();
    }
    tb->runFor(5 * kMillisecond);

    // IOhost 0 dies and never comes back inside the run.
    fault::FaultPlan plan;
    plan.killIoHost(tb->simulation().now() + 2 * kMillisecond,
                    10 * sim::kSecond, /*iohost=*/0);
    fault::FaultInjector inj(tb->simulation(), "fault", plan);
    inj.attach(vm);
    inj.arm();

    tb->runFor(40 * kMillisecond);
    for (unsigned v = 0; v < o.vms; ++v) {
        if (v % 2 == 0) {
            // Homed on the dead IOhost: lapsed and failed over.
            EXPECT_EQ(vm.clientHomeIoHost(v), 1u) << "vm " << v;
            EXPECT_EQ(bench::clientCount(vm, v, "client.failovers"), 1u)
                << "vm " << v;
            EXPECT_GE(bench::clientCount(vm, v, "rack.resteers"), 1u)
                << "vm " << v;
        } else {
            EXPECT_EQ(vm.clientHomeIoHost(v), 1u) << "vm " << v;
            EXPECT_EQ(bench::clientCount(vm, v, "client.failovers"), 0u)
                << "vm " << v;
        }
    }

    // The survivor serves everyone; the loops drain dry.
    uint64_t at_check = 0;
    for (auto &wl : wls)
        at_check += wl->opsCompleted();
    tb->runFor(20 * kMillisecond);
    uint64_t later = 0;
    for (auto &wl : wls)
        later += wl->opsCompleted();
    EXPECT_GT(later, at_check);

    for (auto &wl : wls)
        wl->stop();
    tb->runFor(150 * kMillisecond);
    for (unsigned v = 0; v < o.vms; ++v) {
        EXPECT_EQ(wls[v]->outstandingOps(), 0u) << "vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u) << "vm " << v;
    }
}

TEST(RackPlacement, FailbackReturnsRefugeesToTheRevivedHome)
{
    // A bounded outage: IOhost 0 dies, its clients fail over to
    // IOhost 1, then IOhost 0 revives and resumes heartbeating.
    // With rack.failback the refugees re-steer back to their boot
    // home (dwell-gated) and the rack ends rebalanced; without it
    // they squat on the survivor forever — run both and compare.
    for (bool failback : {false, true}) {
        RackOptions o;
        o.failback = failback;
        auto tb = makeRack(o);
        auto &vm = vrioOf(*tb);

        std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
        for (unsigned v = 0; v < o.vms; ++v) {
            workloads::FilebenchRandom::Config cfg;
            cfg.readers = 1;
            cfg.writers = 1;
            wls.push_back(std::make_unique<workloads::FilebenchRandom>(
                tb->guest(v), tb->simulation().random().split(), cfg));
            wls.back()->start();
        }
        tb->runFor(5 * kMillisecond);

        fault::FaultPlan plan;
        plan.killIoHost(tb->simulation().now() + 2 * kMillisecond,
                        15 * kMillisecond, /*iohost=*/0);
        fault::FaultInjector inj(tb->simulation(), "fault", plan);
        inj.attach(vm);
        inj.arm();

        // Long enough for the lapse, the revive, fresh heartbeats
        // and the 5 ms re-steer dwell.
        tb->runFor(60 * kMillisecond);

        for (unsigned v = 0; v < o.vms; ++v) {
            if (v % 2 == 0) {
                // Boot-homed on the dead IOhost: failed over either
                // way; only fail-back brings it home again.
                EXPECT_EQ(bench::clientCount(vm, v, "client.failovers"), 1u)
                    << "failback " << failback << " vm " << v;
                EXPECT_EQ(vm.clientHomeIoHost(v), failback ? 0u : 1u)
                    << "failback " << failback << " vm " << v;
                if (failback) {
                    EXPECT_EQ(bench::clientCount(vm, v, "rack.failbacks"), 1u)
                        << "vm " << v;
                }
            } else {
                EXPECT_EQ(vm.clientHomeIoHost(v), 1u)
                    << "failback " << failback << " vm " << v;
                if (failback) {
                    EXPECT_EQ(bench::clientCount(vm, v, "rack.failbacks"), 0u)
                        << "vm " << v;
                }
            }
        }
        // Without rack.failback there is no fail-back series at all.
        if (!failback) {
            EXPECT_EQ(tb->simulation().telemetry().metrics.find(
                          "rack.failbacks", {{"vm", tb->guest(0).vm().name()}}),
                      nullptr);
        }

        // Whatever the placement, the loops still drain dry.
        for (auto &wl : wls)
            wl->stop();
        tb->runFor(150 * kMillisecond);
        for (unsigned v = 0; v < o.vms; ++v) {
            EXPECT_EQ(wls[v]->outstandingOps(), 0u)
                << "failback " << failback << " vm " << v;
            EXPECT_EQ(vm.clientPendingBlocks(v), 0u)
                << "failback " << failback << " vm " << v;
        }
    }
}

TEST(RackPlacement, LoadImbalanceTriggersVoluntaryResteer)
{
    // Wedge every worker of IOhost 0: its heartbeats keep flowing but
    // the advertised residency digest pins to "repel" — clients homed
    // there must move to IOhost 1 WITHOUT a lapse or failover.  The
    // watchdog is off so quarantine cannot mask the load signal.
    RackOptions o;
    o.resteer_ratio = 1.5;
    o.watchdog = false;
    auto tb = makeRack(o);
    auto &vm = vrioOf(*tb);

    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < o.vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            tb->guest(v), tb->simulation().random().split(), cfg));
        wls.back()->start();
    }
    tb->runFor(10 * kMillisecond);

    fault::FaultPlan plan;
    sim::Tick at = tb->simulation().now() + 1 * kMillisecond;
    plan.wedgeWorker(0, at, /*iohost=*/0);
    plan.wedgeWorker(1, at, /*iohost=*/0);
    fault::FaultInjector inj(tb->simulation(), "fault", plan);
    inj.attach(vm);
    inj.arm();

    tb->runFor(40 * kMillisecond);
    for (unsigned v = 0; v < o.vms; v += 2) {
        EXPECT_EQ(vm.clientHomeIoHost(v), 1u) << "vm " << v;
        EXPECT_GE(bench::clientCount(vm, v, "rack.resteers"), 1u)
            << "vm " << v;
        EXPECT_EQ(bench::clientCount(vm, v, "client.failovers"), 0u)
            << "vm " << v;
        EXPECT_EQ(bench::clientCount(vm, v, "client.heartbeat_lapses"), 0u)
            << "vm " << v;
    }

    // Un-wedge so the moved clients' stragglers can drain from the
    // old home too, then drain dry.
    inj.clearWedge(0, 0);
    inj.clearWedge(1, 0);
    for (auto &wl : wls)
        wl->stop();
    tb->runFor(150 * kMillisecond);
    for (unsigned v = 0; v < o.vms; ++v) {
        EXPECT_EQ(wls[v]->outstandingOps(), 0u) << "vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u) << "vm " << v;
    }
}

// -- soak: randomized fault soup over a 2-IOhost rack --------------------

/**
 * The rack soak (DESIGN.md §15): a seeded fault soup — an IOhost
 * crash window, worker wedges, a switch-port kill — lands on a
 * 2-IOhost coalescing rack under load, at 1, 2 and 8 event-loop
 * threads.  Faults are realized by direct shard-scoped events (the
 * FaultInjector's counters are not shard-striped), so the same
 * absolute-tick timeline drives every thread count.
 *
 * Must-holds: the run drains dry (zero stranded requests — a
 * duplicate fan-back completion would unbalance the closed loops'
 * outstanding counts), and at 1 thread (where the tracer may be
 * armed) the "recovery.resteer" trace instants match the clients'
 * placement-move counters exactly.
 */
class RackSoak
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>>
{};

TEST_P(RackSoak, FaultSoupDrainsDry)
{
    const uint64_t seed = std::get<0>(GetParam());
    const unsigned threads = std::get<1>(GetParam());
    const unsigned iohosts = 2, vmhosts = 2, vms = 4;

    RackOptions o;
    o.iohosts = iohosts;
    o.vms = vms;
    o.vmhosts = vmhosts;
    o.seed = seed;
    o.threads = threads;
    o.resteer_ratio = 1.5;
    o.window = 10 * kMicrosecond;
    auto tb = makeRack(o);
    auto &sim = tb->simulation();
    auto &vm = vrioOf(*tb);

    const bool traced = threads == 1; // tracer is not thread-safe
    if (traced)
        sim.telemetry().tracer.enable(1 << 16,
                                      telemetry::cat::kRecovery);

    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 1;
        cfg.writers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            tb->guest(v), sim.random().split(), cfg));
        wls.back()->start();
    }
    tb->runFor(5 * kMillisecond);

    // Seeded soup, realized at absolute ticks on the owning shards.
    sim::Random soup = sim::Random(seed).split("soak");
    const sim::Tick t0 = sim.now();
    auto io_shard = [&](unsigned k) { return 1 + vmhosts + k; };

    // (1) Crash one IOhost for a window longer than the lapse budget:
    // its clients fail over, then its beats return.
    unsigned dead = unsigned(soup.uniformInt(0, iohosts - 1));
    {
        sim::ShardScope scope(sim, io_shard(dead));
        auto &hv = vm.rackHypervisor(dead);
        sim.events().scheduleAt(t0 + 5 * kMillisecond,
                                [&hv]() { hv.setOffline(true); });
        sim.events().scheduleAt(t0 + 20 * kMillisecond,
                                [&hv]() { hv.setOffline(false); });
    }
    // (2) Wedge a worker on the surviving IOhost mid-outage; the
    // watchdog quarantines it and its load digest repels new clients.
    unsigned alive = 1 - dead;
    unsigned worker = unsigned(soup.uniformInt(0, 1));
    {
        sim::ShardScope scope(sim, io_shard(alive));
        auto &hv = vm.rackHypervisor(alive);
        sim.events().scheduleAt(t0 + 8 * kMillisecond, [&hv, worker]() {
            hv.workerCore(worker).resource().setPaused(true);
        });
        sim.events().scheduleAt(t0 + 30 * kMillisecond, [&hv, worker]() {
            hv.workerCore(worker).resource().setPaused(false);
        });
    }
    // (3) Kill the switch port behind one IOhost's client NIC after
    // the rack has healed: pure loss, recovered by retransmission or
    // another placement move.
    unsigned dark = unsigned(soup.uniformInt(0, iohosts - 1));
    {
        net::MacAddress victim = vm.rackIoHostMac(dark);
        net::Switch &sw = tb->rack().rackSwitch();
        sim::ShardScope scope(sim, 0); // the switch is rack fabric
        // Downing a port flushes its learned MACs, so a heal that
        // re-resolves portOf(victim) finds nothing and leaves the
        // port dark forever.  Resolve at kill time, heal by index.
        auto killed = std::make_shared<std::optional<size_t>>();
        sim.events().scheduleAt(t0 + 35 * kMillisecond,
                                [&sw, victim, killed]() {
                                    if (auto port = sw.portOf(victim)) {
                                        sw.setPortDown(*port, true);
                                        *killed = *port;
                                    }
                                });
        sim.events().scheduleAt(t0 + 41 * kMillisecond, [&sw, killed]() {
            if (*killed)
                sw.setPortDown(**killed, false);
        });
    }

    tb->runFor(70 * kMillisecond);
    for (auto &wl : wls)
        wl->stop();
    tb->runFor(200 * kMillisecond);

    uint64_t ops = 0, resteers = 0;
    for (unsigned v = 0; v < vms; ++v) {
        ops += wls[v]->opsCompleted();
        resteers += bench::clientCount(vm, v, "rack.resteers");
        EXPECT_EQ(wls[v]->outstandingOps(), 0u)
            << "seed " << seed << " threads " << threads << " vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u)
            << "seed " << seed << " threads " << threads << " vm " << v;
    }
    EXPECT_GT(ops, 100u);
    // The crashed IOhost's clients at least failed over.
    EXPECT_GE(resteers, vms / iohosts);

    if (traced) {
        auto &tr = sim.telemetry().tracer;
        EXPECT_EQ(tr.droppedEvents(), 0u);
        EXPECT_EQ(tr.countNamed("recovery.resteer"), resteers)
            << "every placement move must leave exactly one trace "
               "instant";
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, RackSoak,
    ::testing::Combine(::testing::Values(11ull, 47ull, 90210ull),
                       ::testing::Values(1u, 2u, 8u)),
    [](const auto &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
               "_t" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace vrio
