/**
 * @file
 * Multi-tenant QoS tests (DESIGN.md §17): the FairScheduler's SFQ
 * virtual-time and weight invariants, deadline-lane promotion,
 * admission control's defer/shed/restore ladder, starvation-freedom
 * under a randomized aggressor across seeds, and an end-to-end rack
 * check that the scheduler engages at the IOhost fan-out and the rack
 * still drains dry.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/testbed.hpp"
#include "interpose/services.hpp"
#include "models/vrio.hpp"
#include "qos/scheduler.hpp"
#include "sim/random.hpp"
#include "workloads/open_loop.hpp"

namespace vrio {
namespace {

using models::ModelKind;
using qos::FairScheduler;
using qos::SchedulerConfig;
using qos::TenantConfig;
using qos::Verdict;
using sim::kMicrosecond;
using sim::kMillisecond;

// -- SFQ invariants ------------------------------------------------------

TEST(QosScheduler, VirtualTimeMonotoneAndPerTenantFifo)
{
    SchedulerConfig cfg;
    cfg.high_water = 1000; // stay below pressure: pure SFQ here
    FairScheduler s{cfg};
    // Interleaved pushes from two tenants with varying costs; the
    // virtual clock must never run backwards across pops, and each
    // tenant's tokens must serve in push order (the steering layer
    // depends on per-device ordering).
    std::map<uint32_t, std::vector<uint64_t>> pushed;
    uint64_t token = 0;
    for (int round = 0; round < 50; ++round) {
        for (uint32_t t = 0; t < 2; ++t) {
            double cost = 1.0 + double((round + t) % 5);
            ASSERT_EQ(s.push(t, token, cost, sim::Tick(round)),
                      Verdict::Admitted);
            pushed[t].push_back(token++);
        }
    }
    std::map<uint32_t, size_t> served;
    double vprev = s.virtualTime();
    while (auto p = s.pop(sim::Tick(1000))) {
        EXPECT_GE(s.virtualTime(), vprev) << "virtual time reversed";
        vprev = s.virtualTime();
        ASSERT_LT(served[p->tenant], pushed[p->tenant].size());
        EXPECT_EQ(p->token, pushed[p->tenant][served[p->tenant]])
            << "tenant " << p->tenant << " served out of FIFO order";
        ++served[p->tenant];
        EXPECT_FALSE(p->promoted); // no SLOs declared, no promotions
    }
    EXPECT_EQ(served[0], pushed[0].size());
    EXPECT_EQ(served[1], pushed[1].size());
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.promotions(), 0u);
}

TEST(QosScheduler, ServiceTracksWeightsUnderBacklog)
{
    // Two permanently backlogged tenants at weights 3:1 must split
    // service 3:1 — SFQ's defining property.  Equal unit costs, so
    // the ratio is exact up to one request of lag.
    FairScheduler s{SchedulerConfig{}};
    s.setTenant(0, TenantConfig{3.0, 0});
    s.setTenant(1, TenantConfig{1.0, 0});
    uint64_t token = 0;
    auto top_up = [&](uint32_t t, size_t depth) {
        while (s.queued(t) < depth)
            s.push(t, token++, 1.0, 0);
    };
    std::map<uint32_t, unsigned> served;
    for (int i = 0; i < 400; ++i) {
        top_up(0, 8);
        top_up(1, 8);
        auto p = s.pop(0);
        ASSERT_TRUE(p.has_value());
        ++served[p->tenant];
    }
    EXPECT_NEAR(double(served[0]), 300.0, 4.0);
    EXPECT_NEAR(double(served[1]), 100.0, 4.0);
}

// -- deadline lane -------------------------------------------------------

TEST(QosScheduler, DeadlineLanePromotesExhaustedSlack)
{
    SchedulerConfig cfg;
    cfg.promote_slack = 50 * kMicrosecond;
    FairScheduler s{cfg};
    s.setTenant(0, TenantConfig{1.0, 0});
    s.setTenant(1, TenantConfig{1.0, /*slo=*/100 * kMicrosecond});

    // Tenant 0's cheap backlog owns the fair lane; tenant 1's one
    // expensive request would lose on finish tags alone.
    for (uint64_t i = 0; i < 8; ++i)
        s.push(0, i, 1.0, 0);
    s.push(1, 100, 50.0, 0);

    // Well before the SLO bites, fair order rules: tenant 0 serves.
    auto early = s.pop(10 * kMicrosecond);
    ASSERT_TRUE(early.has_value());
    EXPECT_EQ(early->tenant, 0u);
    EXPECT_FALSE(early->promoted);
    EXPECT_EQ(s.promotions(), 0u);

    // At 60 us the deadline (100 us) is within the 50 us slack: the
    // deadline lane overrides the fair winner and flags the pop.
    auto late = s.pop(60 * kMicrosecond);
    ASSERT_TRUE(late.has_value());
    EXPECT_EQ(late->tenant, 1u);
    EXPECT_EQ(late->token, 100u);
    EXPECT_TRUE(late->promoted);
    EXPECT_EQ(s.promotions(), 1u);

    // With the promoted head gone, fair order resumes seamlessly.
    auto after = s.pop(60 * kMicrosecond);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->tenant, 0u);
    EXPECT_FALSE(after->promoted);
}

TEST(QosScheduler, EarliestDeadlineWinsAmongPromoted)
{
    SchedulerConfig cfg;
    cfg.promote_slack = 1 * kMillisecond; // everything is urgent
    FairScheduler s{cfg};
    s.setTenant(0, TenantConfig{1.0, 300 * kMicrosecond});
    s.setTenant(1, TenantConfig{1.0, 100 * kMicrosecond});
    s.push(0, 0, 1.0, /*now=*/0);              // deadline 300 us
    s.push(1, 1, 1.0, /*now=*/50 * kMicrosecond); // deadline 150 us
    auto p = s.pop(60 * kMicrosecond);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->tenant, 1u) << "EDF must serve the earlier deadline";
}

// -- admission control ---------------------------------------------------

TEST(QosScheduler, AdmissionDefersThenShedsThenRestores)
{
    SchedulerConfig cfg;
    cfg.high_water = 8;
    cfg.tenant_floor = 2;
    cfg.shed_factor = 2.0;
    FairScheduler s{cfg};
    s.setTenant(0, TenantConfig{1.0, 0});
    s.setTenant(1, TenantConfig{1.0, 0});
    // Equal weights: share = max(floor, 0.5 * 8) = 4, shed line 8.
    EXPECT_EQ(s.shareOf(0), 4u);

    // Background tenant fills 6 slots before pressure arms.
    uint64_t token = 0;
    for (int i = 0; i < 6; ++i)
        ASSERT_EQ(s.push(1, token++, 1.0, 0), Verdict::Admitted);

    // The aggressor climbs its own ladder: admitted below its share,
    // deferred at/past it, shed at shed_factor * share.
    std::vector<Verdict> got;
    for (int i = 0; i < 10; ++i)
        got.push_back(s.push(0, token++, 1.0, 0));
    // Pressure arms once total hits 8: pushes 1-2 land before that.
    std::vector<Verdict> want = {
        Verdict::Admitted, Verdict::Admitted, Verdict::Admitted,
        Verdict::Admitted, Verdict::Deferred, Verdict::Deferred,
        Verdict::Deferred, Verdict::Deferred, Verdict::Shed,
        Verdict::Shed};
    EXPECT_EQ(got, want);
    EXPECT_EQ(s.deferrals(), 4u);
    EXPECT_EQ(s.sheds(), 2u);
    EXPECT_EQ(s.queued(0), 8u) << "shed requests must not queue";

    // Draining the backlog disarms pressure: the same tenant admits
    // at full priority again — shed is load shedding, not a ban.
    while (s.pop(0))
        ;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.push(0, token++, 1.0, 0), Verdict::Admitted);
    EXPECT_EQ(s.sheds(), 2u);
}

// -- starvation freedom --------------------------------------------------

TEST(QosScheduler, NoStarvationUnderRandomAggressorAcrossSeeds)
{
    // A deferred tenant's finish tags are penalized, never infinite:
    // whatever the arrival pattern, every queued token must
    // eventually serve, exactly once, in per-tenant order.
    for (uint64_t seed : {11ull, 47ull, 90210ull}) {
        sim::Random rng(seed);
        SchedulerConfig cfg;
        cfg.high_water = 16;
        cfg.tenant_floor = 2;
        FairScheduler s{cfg};
        const unsigned tenants = 4;
        for (uint32_t t = 0; t < tenants; ++t)
            s.setTenant(t, TenantConfig{1.0 + double(t % 2), 0});

        std::map<uint32_t, std::vector<uint64_t>> queued_tokens;
        std::map<uint32_t, size_t> next_served;
        uint64_t token = 0, pops = 0;
        sim::Tick now = 0;
        for (int step = 0; step < 4000; ++step) {
            now += sim::Tick(1 + rng.uniformInt(0, 3)) * kMicrosecond;
            // Tenant 0 is the aggressor: five times the offered load.
            uint32_t t = rng.bernoulli(0.55)
                             ? 0
                             : uint32_t(1 + rng.uniformInt(0, 2));
            double cost = rng.uniform(0.5, 2.0);
            if (s.push(t, token, cost, now) != Verdict::Shed)
                queued_tokens[t].push_back(token);
            ++token;
            while (s.queued() > 12) {
                auto p = s.pop(now);
                ASSERT_TRUE(p.has_value());
                ASSERT_LT(next_served[p->tenant],
                          queued_tokens[p->tenant].size());
                EXPECT_EQ(
                    p->token,
                    queued_tokens[p->tenant][next_served[p->tenant]])
                    << "seed " << seed;
                ++next_served[p->tenant];
                ++pops;
            }
        }
        while (auto p = s.pop(now)) {
            ++next_served[p->tenant];
            ++pops;
        }
        uint64_t total_queued = 0;
        for (uint32_t t = 0; t < tenants; ++t) {
            total_queued += queued_tokens[t].size();
            EXPECT_EQ(next_served[t], queued_tokens[t].size())
                << "seed " << seed << " tenant " << t
                << " starved: queued tokens never served";
            // Everybody — the deferred aggressor included — got real
            // service, not just eventual drain.
            EXPECT_GT(next_served[t], 100u)
                << "seed " << seed << " tenant " << t;
        }
        EXPECT_EQ(pops, total_queued) << "seed " << seed;
        EXPECT_TRUE(s.empty());
    }
}

TEST(QosScheduler, ClearResetsForCrashRecovery)
{
    FairScheduler s{SchedulerConfig{}};
    for (uint64_t i = 0; i < 10; ++i)
        s.push(i % 2, i, 3.0, 0);
    // Pop past both tenants' first items so the served start tags —
    // and with them the virtual clock — move off zero.
    for (int i = 0; i < 4; ++i)
        s.pop(0);
    EXPECT_GT(s.virtualTime(), 0.0);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.queued(0), 0u);
    EXPECT_DOUBLE_EQ(s.virtualTime(), 0.0);
    // Post-crash pushes start from a clean virtual clock.
    EXPECT_EQ(s.push(0, 99, 1.0, 0), Verdict::Admitted);
    auto p = s.pop(0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->token, 99u);
}

// -- end to end ----------------------------------------------------------

TEST(QosRack, SchedulerEngagesAtTheFanOutAndDrainsDry)
{
    // A noisy neighbor floods one victim on a single-worker IOhost
    // with QoS on: admission control and the deadline lane must
    // actually engage (counters move), victims must see no errors,
    // and stopping the workloads must drain the rack dry — sheds
    // are retried by the client transport, never lost.
    core::TestbedOptions options;
    options.vmhosts = 2;
    options.sidecores = 1;
    options.seed = 1337;
    options.shards = models::vrioShardCount(2, 1);
    std::vector<std::unique_ptr<interpose::Chain>> chains;
    options.configure = [&chains](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_via_switch = true;
        mc.rack.iohosts = 1;
        // Encryption at rest makes the single worker — where the
        // scheduler sits — the contended resource, not the links.
        mc.chain_factory = [&chains](uint32_t,
                                     bool is_block) -> interpose::Chain * {
            if (!is_block)
                return nullptr;
            Bytes key(32, 0x7c);
            auto chain = std::make_unique<interpose::Chain>();
            chain->append(std::make_unique<interpose::EncryptionService>(
                key, /*cycles_per_byte=*/4.0));
            chains.push_back(std::move(chain));
            return chains.back().get();
        };
        mc.rack.qos.enabled = true;
        mc.rack.qos.high_water = 32;
        mc.rack.qos.tenant_floor = 8;
        mc.rack.qos.slos = {0, 300 * kMicrosecond, 300 * kMicrosecond,
                            300 * kMicrosecond};
    };
    core::Testbed tb(ModelKind::Vrio, 4, options);
    tb.settle();
    auto &vm = dynamic_cast<models::VrioModel &>(tb.model());

    std::vector<std::unique_ptr<workloads::OpenLoopBlock>> wls;
    for (unsigned v = 0; v < 4; ++v) {
        workloads::OpenLoopBlock::Config cfg;
        cfg.rate = v == 0 ? 200000 : 10000;
        cfg.write_fraction = v == 0 ? 1.0 : 0.5;
        wls.push_back(std::make_unique<workloads::OpenLoopBlock>(
            tb.guest(v), tb.simulation().random().split(), cfg));
        wls.back()->start();
    }
    tb.runFor(30 * kMillisecond);

    auto &hv = vm.rackHypervisor(0);
    EXPECT_GT(hv.qosSheds() + hv.qosDeferrals(), 0u)
        << "admission control never engaged under a 20x aggressor";
    uint64_t ops = 0;
    for (unsigned v = 0; v < 4; ++v) {
        ops += wls[v]->opsCompleted();
        EXPECT_EQ(wls[v]->ioErrors(), 0u) << "vm " << v;
        if (v != 0)
            EXPECT_GT(wls[v]->opsCompleted(), 0u) << "vm " << v;
    }
    EXPECT_GT(ops, 1000u);

    for (auto &wl : wls)
        wl->stop();
    tb.runFor(200 * kMillisecond);
    for (unsigned v = 0; v < 4; ++v) {
        EXPECT_EQ(wls[v]->outstandingOps(), 0u) << "vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u) << "vm " << v;
    }
}

TEST(QosRack, OrdersWhatTheCoalescerMergesOnASharedVolume)
{
    // QoS and coalescing together: the scheduler's picks stage and
    // merge, data stays intact, and every request the scheduler was
    // offered is either completed or shed once the rack drains.
    core::TestbedOptions options;
    options.vmhosts = 2;
    options.sidecores = 1;
    options.seed = 4242;
    options.shards = models::vrioShardCount(2, 1);
    options.configure = [](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_via_switch = true;
        mc.rack.iohosts = 1;
        mc.rack.shared_volume = true;
        mc.rack.coalesce = true;
        mc.rack.coalesce_window = 20 * kMicrosecond;
        mc.rack.qos.enabled = true;
        mc.rack.qos.high_water = 16;
        mc.rack.qos.tenant_floor = 2;
    };
    core::Testbed tb(ModelKind::Vrio, 4, options);
    tb.settle();
    auto &vm = dynamic_cast<models::VrioModel &>(tb.model());
    auto &hv = vm.rackHypervisor(0);
    const uint64_t msgs_before = hv.messagesProcessed();
    const uint64_t dups_before = hv.duplicatesSuppressed();

    // Each VM writes its own adjacent 4 KiB extent in the same tick,
    // then reads it back.  Completions run on the VMs' own shards, so
    // each writes only its own slot.
    auto each = [&](virtio::BlkType kind) {
        std::vector<Bytes> got(4);
        std::vector<virtio::BlkStatus> status(4, virtio::BlkStatus::IoErr);
        for (unsigned v = 0; v < 4; ++v) {
            block::BlockRequest r;
            r.kind = kind;
            r.sector = v * 8;
            r.nsectors = 8;
            if (kind == virtio::BlkType::Out)
                r.data.assign(8 * virtio::kSectorSize, uint8_t(0xA0 + v));
            tb.guest(v).submitBlock(
                std::move(r), [&, v](virtio::BlkStatus s, Bytes data) {
                    status[v] = s;
                    got[v] = std::move(data);
                });
        }
        tb.runFor(5 * kMillisecond);
        for (unsigned v = 0; v < 4; ++v)
            EXPECT_EQ(status[v], virtio::BlkStatus::Ok) << "vm " << v;
        return got;
    };
    each(virtio::BlkType::Out);
    auto got = each(virtio::BlkType::In);
    for (unsigned v = 0; v < 4; ++v)
        EXPECT_EQ(got[v], Bytes(8 * virtio::kSectorSize, uint8_t(0xA0 + v)))
            << "vm " << v;
    EXPECT_GT(hv.coalesceMergedParts(), 0u);

    // A noisy neighbor then pushes admission control into action.
    std::vector<std::unique_ptr<workloads::OpenLoopBlock>> wls;
    for (unsigned v = 0; v < 4; ++v) {
        workloads::OpenLoopBlock::Config cfg;
        cfg.rate = v == 0 ? 400000 : 20000;
        wls.push_back(std::make_unique<workloads::OpenLoopBlock>(
            tb.guest(v), tb.simulation().random().split(), cfg));
        wls.back()->start();
    }
    tb.runFor(20 * kMillisecond);
    for (auto &wl : wls)
        wl->stop();
    tb.runFor(200 * kMillisecond);
    EXPECT_GT(hv.qosSheds() + hv.qosDeferrals(), 0u);
    for (unsigned v = 0; v < 4; ++v) {
        EXPECT_EQ(wls[v]->ioErrors(), 0u) << "vm " << v;
        EXPECT_EQ(wls[v]->outstandingOps(), 0u) << "vm " << v;
        EXPECT_EQ(vm.clientPendingBlocks(v), 0u) << "vm " << v;
    }

    // Conservation: offered = completed + shed, with nothing left
    // queued or held.  Offered is every block request past the
    // duplicate filter; completed is every response whose QoS slot
    // was released (one latency sample each).
    EXPECT_EQ(hv.qosQueued(), 0u);
    EXPECT_EQ(hv.heldResponses(), 0u);
    uint64_t offered = (hv.messagesProcessed() - msgs_before) -
                       (hv.duplicatesSuppressed() - dups_before);
    uint64_t completed = 0;
    tb.simulation().telemetry().metrics.forEach([&](const auto &s) {
        if (s.name == "qos.tenant.latency_us")
            completed += s.histogram.count();
    });
    EXPECT_GT(completed, 1000u);
    EXPECT_EQ(offered, completed + hv.qosSheds());
}

} // namespace
} // namespace vrio
