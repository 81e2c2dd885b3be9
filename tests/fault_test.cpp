/**
 * @file
 * Tests for the fault-injection subsystem: link-hook mechanics, NIC
 * FCS/ring behavior, and the injector's determinism contract (zero
 * perturbation when idle, bit-identical schedules per seed, recovery
 * through the Section 4.5 retransmission protocol).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common.hpp"
#include "fault/injector.hpp"
#include "models/vrio.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"

namespace vrio {
namespace {

using models::ModelKind;
using sim::kMicrosecond;
using sim::kMillisecond;
using sim::kNanosecond;

// -- link hook mechanics ------------------------------------------------

class SinkPort : public net::NetPort
{
  public:
    std::vector<net::FramePtr> got;
    std::vector<sim::Tick> when;
    sim::Simulation *sim = nullptr;

    void
    receive(net::FramePtr f) override
    {
        got.push_back(std::move(f));
        if (sim)
            when.push_back(sim->now());
    }
};

/** Hook that replays a fixed verdict script, one entry per frame. */
class ScriptedHook : public net::LinkFaultHook
{
  public:
    std::vector<net::FaultVerdict> script;
    size_t cursor = 0;

    net::FaultVerdict
    onTransmit(net::Link &, int, const net::Frame &) override
    {
        if (cursor < script.size())
            return script[cursor++];
        return {};
    }
};

net::FramePtr
smallFrame()
{
    auto f = std::make_shared<net::Frame>();
    f->bytes.resize(1246);
    return f;
}

TEST(LinkFaultHook, DropCorruptDelayDeliver)
{
    sim::Simulation sim;
    net::LinkConfig cfg;
    cfg.gbps = 10.0;
    cfg.propagation = 500 * kNanosecond;
    net::Link link(sim, "l", cfg);
    SinkPort a, b;
    b.sim = &sim;
    link.connect(a, b);

    ScriptedHook hook;
    net::FaultVerdict drop, corrupt, delay;
    drop.kind = net::FaultVerdict::Kind::Drop;
    corrupt.kind = net::FaultVerdict::Kind::Corrupt;
    delay.kind = net::FaultVerdict::Kind::Delay;
    delay.extra_delay = 10 * kMicrosecond;
    hook.script = {drop, corrupt, delay, net::FaultVerdict{}};
    link.setFaultHook(&hook);

    for (int i = 0; i < 4; ++i)
        link.transmit(a, smallFrame());
    sim.runToCompletion();

    EXPECT_EQ(link.framesLost(), 1u);
    EXPECT_EQ(link.framesDelivered(), 3u);
    ASSERT_EQ(b.got.size(), 3u);
    // Frame 2 was corrupted in flight; bytes intact, flag set.
    EXPECT_TRUE(b.got[0]->fcs_corrupt);
    EXPECT_EQ(b.got[0]->bytes.size(), 1246u);
    EXPECT_FALSE(b.got[1]->fcs_corrupt);
    // 1250B at 10 Gbps = 1 us serialization each (FIFO transmitter);
    // the delayed frame pays 10 us extra propagation, so frame 4
    // overtakes it — delay is also the reorder mechanism.
    EXPECT_EQ(b.when[0], 2 * kMicrosecond + 500 * kNanosecond);
    EXPECT_EQ(b.when[1], 4 * kMicrosecond + 500 * kNanosecond);
    EXPECT_EQ(b.when[2], 3 * kMicrosecond + 10 * kMicrosecond +
                             500 * kNanosecond);
}

TEST(LinkFaultHook, AlwaysDeliverHookMatchesNoHook)
{
    // A hook returning Deliver for every frame must leave timing and
    // counters identical to running without a hook.
    auto run = [](bool with_hook) {
        sim::Simulation sim;
        net::LinkConfig cfg;
        net::Link link(sim, "l", cfg);
        SinkPort a, b;
        b.sim = &sim;
        link.connect(a, b);
        ScriptedHook hook; // empty script -> Deliver forever
        if (with_hook)
            link.setFaultHook(&hook);
        for (int i = 0; i < 8; ++i)
            link.transmit(a, smallFrame());
        sim.runToCompletion();
        return b.when;
    };
    EXPECT_EQ(run(false), run(true));
}

// -- NIC FCS drop and ring squeeze --------------------------------------

net::FramePtr
frameTo(net::MacAddress dst)
{
    net::EtherHeader eh;
    eh.dst = dst;
    eh.src = net::MacAddress::local(0x99);
    eh.ether_type = uint16_t(net::EtherType::Ipv4);
    return net::makeFrame(eh, std::vector<uint8_t>(64, 0xab));
}

TEST(NicFaults, CorruptFrameDroppedBeforeClassification)
{
    sim::Simulation sim;
    net::NicConfig cfg;
    net::Nic nic(sim, "n", cfg);
    net::MacAddress mac = net::MacAddress::local(1);
    nic.setQueueMac(0, mac);

    auto good = frameTo(mac);
    auto bad = frameTo(mac);
    bad->fcs_corrupt = true;
    nic.receive(bad);
    nic.receive(good);
    EXPECT_EQ(nic.rxPending(0), 1u);
    EXPECT_EQ(nic.rxCrcDrops(), 1u);
    EXPECT_EQ(nic.rxFrames(), 1u);
}

TEST(NicFaults, RxRingLimitSqueezeAndRestore)
{
    sim::Simulation sim;
    net::NicConfig cfg;
    cfg.rx_ring_size = 4;
    net::Nic nic(sim, "n", cfg);
    net::MacAddress mac = net::MacAddress::local(1);
    nic.setQueueMac(0, mac);
    nic.setRxMode(0, net::Nic::RxMode::Poll);

    nic.setRxRingLimit(2);
    for (int i = 0; i < 4; ++i)
        nic.receive(frameTo(mac));
    EXPECT_EQ(nic.rxPending(0), 2u);
    EXPECT_EQ(nic.rxDrops(), 2u);

    // 0 restores the configured ring; limits above it clamp to it.
    nic.setRxRingLimit(0);
    EXPECT_EQ(nic.rxRingLimit(), 4u);
    nic.setRxRingLimit(100);
    EXPECT_EQ(nic.rxRingLimit(), 4u);
}

TEST(SwitchFaults, CorruptFrameDroppedAtIngress)
{
    sim::Simulation sim;
    net::Switch sw(sim, "sw");
    net::NetPort &p0 = sw.newPort();
    net::NetPort &p1 = sw.newPort();
    net::LinkConfig lcfg;
    net::Link l0(sim, "l0", lcfg), l1(sim, "l1", lcfg);
    SinkPort h0, h1;
    l0.connect(h0, p0);
    l1.connect(h1, p1);

    auto f = frameTo(net::MacAddress::local(1));
    f->fcs_corrupt = true;
    l0.transmit(h0, f);
    sim.runToCompletion();
    EXPECT_EQ(sw.crcDrops(), 1u);
    EXPECT_EQ(sw.framesFlooded(), 0u);
    EXPECT_TRUE(h1.got.empty());
}

// -- end-to-end determinism and recovery --------------------------------

struct VrioRun
{
    uint64_t ops = 0;
    uint64_t errors = 0;
    uint64_t retransmits = 0;
    uint64_t injected_drops = 0;
    std::vector<double> latency_us;
};

/**
 * One small self-contained vRIO filebench run; @p plan == nullptr
 * means no injector is constructed at all.
 */
VrioRun
runVrioFilebench(const fault::FaultPlan *plan)
{
    bench::SweepOptions opt;
    opt.warmup = 5 * kMillisecond;
    opt.measure = 30 * kMillisecond;
    opt.tweak = [](models::ModelConfig &mc) { mc.with_block = true; };
    bench::Experiment exp(ModelKind::Vrio, 1, opt);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);
    EXPECT_NE(vm, nullptr);

    std::unique_ptr<fault::FaultInjector> inj;
    if (plan) {
        inj = std::make_unique<fault::FaultInjector>(*exp.sim, "fault",
                                                     *plan);
        inj->attach(*vm);
        inj->arm();
    }

    workloads::FilebenchRandom::Config cfg;
    cfg.readers = 1;
    cfg.writers = 1;
    workloads::FilebenchRandom wl(exp.model->guest(0),
                                  exp.sim->random().split(), cfg);
    wl.start();
    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    wl.resetStats();
    exp.sim->runUntil(exp.sim->now() + opt.measure);

    VrioRun r;
    r.ops = wl.opsCompleted();
    r.errors = wl.ioErrors();
    r.retransmits =
        bench::clientCount(*vm, 0, "transport.rtq.retransmissions");
    r.latency_us = wl.latencyUs().raw();
    if (inj)
        r.injected_drops = inj->framesDropped();
    return r;
}

TEST(FaultDeterminism, ZeroRatePlanIsByteIdentical)
{
    // Attaching an injector whose plan does nothing must not perturb
    // the run at all: same op count and a bit-identical latency
    // sample sequence as no injector existing.
    VrioRun bare = runVrioFilebench(nullptr);
    fault::FaultPlan idle;
    VrioRun with_idle = runVrioFilebench(&idle);

    EXPECT_EQ(bare.ops, with_idle.ops);
    EXPECT_EQ(bare.retransmits, with_idle.retransmits);
    EXPECT_EQ(bare.latency_us, with_idle.latency_us);
    EXPECT_EQ(with_idle.injected_drops, 0u);
}

TEST(FaultDeterminism, SameSeedSameSchedule)
{
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.dropRate(0.01);
    VrioRun a = runVrioFilebench(&plan);
    VrioRun b = runVrioFilebench(&plan);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.injected_drops, b.injected_drops);
    EXPECT_EQ(a.latency_us, b.latency_us);
}

TEST(FaultDeterminism, DifferentFaultSeedDiffers)
{
    fault::FaultPlan p7, p8;
    p7.seed = 7;
    p7.dropRate(0.01);
    p8.seed = 8;
    p8.dropRate(0.01);
    VrioRun a = runVrioFilebench(&p7);
    VrioRun b = runVrioFilebench(&p8);
    ASSERT_GT(a.injected_drops, 0u);
    ASSERT_GT(b.injected_drops, 0u);
    // Different fault streams produce different latency sequences.
    EXPECT_NE(a.latency_us, b.latency_us);
}

TEST(FaultRecovery, LossCausesRetransmissionsNotErrors)
{
    fault::FaultPlan plan;
    plan.seed = 11;
    plan.dropRate(0.01);
    VrioRun r = runVrioFilebench(&plan);
    EXPECT_GT(r.injected_drops, 0u);
    EXPECT_GT(r.retransmits, 0u);
    EXPECT_EQ(r.errors, 0u); // every request recovered
    EXPECT_GT(r.ops, 0u);
}

TEST(FaultRecovery, IoHostOutageStallsThenRecovers)
{
    bench::SweepOptions opt;
    opt.warmup = 5 * kMillisecond;
    opt.tweak = [](models::ModelConfig &mc) { mc.with_block = true; };
    bench::Experiment exp(ModelKind::Vrio, 1, opt);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);
    ASSERT_NE(vm, nullptr);

    workloads::FilebenchRandom::Config cfg;
    cfg.readers = 1;
    cfg.writers = 1;
    workloads::FilebenchRandom wl(exp.model->guest(0),
                                  exp.sim->random().split(), cfg);
    wl.start();
    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    wl.resetStats();

    // 20ms healthy, 50ms dark, 150ms recovery.
    fault::FaultPlan plan;
    plan.seed = 3;
    plan.killIoHost(exp.sim->now() + 20 * kMillisecond,
                    50 * kMillisecond);
    fault::FaultInjector inj(*exp.sim, "fault", plan);
    inj.attach(*vm);
    inj.arm();

    exp.sim->runUntil(exp.sim->now() + 20 * kMillisecond);
    uint64_t before = wl.opsCompleted();
    exp.sim->runUntil(exp.sim->now() + 50 * kMillisecond);
    uint64_t during = wl.opsCompleted() - before;
    exp.sim->runUntil(exp.sim->now() + 150 * kMillisecond);
    uint64_t after = wl.opsCompleted() - before - during;

    EXPECT_GT(before, 100u);
    // The IOhost was dark: at most a handful of stragglers complete.
    EXPECT_LT(during, before / 10);
    // Retransmission revived every thread; throughput returned.
    EXPECT_GT(after, before);
    EXPECT_EQ(wl.ioErrors(), 0u);
    EXPECT_EQ(inj.outagesTriggered(), 1u);
    EXPECT_GT(vm->hypervisor().offlineRxDrops(), 0u);
    EXPECT_GT(bench::clientCount(*vm, 0, "transport.rtq.retransmissions"),
              0u);
    EXPECT_FALSE(vm->hypervisor().offline());
}

TEST(FaultInjection, SqueezeWindowClampsAndRestoresRings)
{
    bench::SweepOptions opt;
    opt.tweak = [](models::ModelConfig &mc) { mc.with_block = true; };
    bench::Experiment exp(ModelKind::Vrio, 1, opt);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);
    ASSERT_NE(vm, nullptr);

    fault::FaultPlan plan;
    plan.squeezeRxRing(exp.sim->now() + 10 * kMillisecond,
                       10 * kMillisecond, 8);
    fault::FaultInjector inj(*exp.sim, "fault", plan);
    inj.attach(*vm);
    inj.arm();

    auto nics = vm->iohostClientNics();
    ASSERT_FALSE(nics.empty());
    size_t full = nics[0]->rxRingLimit();
    EXPECT_GT(full, 8u);

    exp.sim->runUntil(exp.sim->now() + 15 * kMillisecond);
    for (net::Nic *nic : nics)
        EXPECT_EQ(nic->rxRingLimit(), 8u);
    exp.sim->runUntil(exp.sim->now() + 10 * kMillisecond);
    for (net::Nic *nic : nics)
        EXPECT_EQ(nic->rxRingLimit(), full);
}

TEST(FaultSweep, ResultsIndependentOfWorkerCount)
{
    // The resilience bench distributes fault cells over a thread
    // pool; per-cell results must not depend on the pool size.
    auto sweep = [](unsigned jobs) {
        bench::SweepRunner runner(jobs);
        std::vector<std::shared_ptr<VrioRun>> slots;
        for (uint64_t seed : {21ull, 22ull, 23ull}) {
            slots.push_back(runner.defer<VrioRun>(
                "cell " + std::to_string(seed), [seed]() {
                    fault::FaultPlan plan;
                    plan.seed = seed;
                    plan.dropRate(0.005);
                    return runVrioFilebench(&plan);
                }));
        }
        runner.run();
        std::vector<uint64_t> out;
        for (auto &s : slots) {
            out.push_back(s->ops);
            out.push_back(s->retransmits);
            out.push_back(s->injected_drops);
        }
        return out;
    };
    EXPECT_EQ(sweep(1), sweep(3));
}

// -- Gilbert-Elliott burst-loss statistics --------------------------------

/**
 * Statistical validation of the two-state Markov loss chain: stream
 * many sequence-stamped frames through an injector-hooked link and
 * reconstruct the loss pattern from the gaps on the receive side.
 * With bad_loss = 1 and good_loss = 0 the theory gives
 *
 *   long-run loss rate          p / (p + q)   (= the requested average)
 *   mean loss-burst length      1 / q
 *   P(loss | previous loss)     1 - q         (chain stays bad)
 *
 * Checked at three plan seeds so a lucky stream cannot mask a broken
 * transition rule.
 */
class BurstLossStats : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(BurstLossStats, MatchesChainTheory)
{
    constexpr int kFrames = 100000;
    constexpr double kAvgLoss = 0.05;
    constexpr double kMeanBurst = 6.0;
    // ~5000 losses in ~830 bursts: comfortably inside 15% tolerance.
    constexpr double kTol = 0.15;

    sim::Simulation sim;
    net::LinkConfig lcfg;
    net::Link link(sim, "l", lcfg);
    SinkPort src, dst;
    link.connect(src, dst);

    fault::FaultPlan plan;
    plan.seed = GetParam();
    plan.burstLoss(kAvgLoss, kMeanBurst);
    fault::FaultInjector inj(sim, "inj", plan);
    inj.attachLink(link);
    inj.arm();

    for (uint32_t seq = 0; seq < kFrames; ++seq) {
        auto f = std::make_shared<net::Frame>();
        f->bytes.resize(64);
        std::memcpy(f->bytes.data(), &seq, sizeof(seq));
        link.transmit(src, std::move(f));
    }
    sim.runToCompletion();

    // One direction, no delay faults: deliveries stay in order, so
    // the gaps between received sequence numbers are the loss bursts.
    std::vector<bool> lost(kFrames, true);
    for (const auto &f : dst.got) {
        uint32_t seq;
        std::memcpy(&seq, f->bytes.data(), sizeof(seq));
        lost[seq] = false;
    }

    uint64_t losses = 0, bursts = 0, stay_pairs = 0, stay_lost = 0;
    for (int i = 0; i < kFrames; ++i) {
        if (!lost[i])
            continue;
        ++losses;
        if (i == 0 || !lost[i - 1])
            ++bursts;
        if (i + 1 < kFrames) {
            ++stay_pairs;
            if (lost[i + 1])
                ++stay_lost;
        }
    }
    ASSERT_GT(bursts, 100u) << "too few bursts for statistics";
    EXPECT_EQ(losses, inj.framesBurstDropped());

    double rate = double(losses) / kFrames;
    double mean_burst = double(losses) / double(bursts);
    double stay = double(stay_lost) / double(stay_pairs);

    EXPECT_NEAR(rate, kAvgLoss, kAvgLoss * kTol)
        << "long-run loss rate off at seed " << GetParam();
    EXPECT_NEAR(mean_burst, kMeanBurst, kMeanBurst * kTol)
        << "mean burst length off at seed " << GetParam();
    double expect_stay = 1.0 - 1.0 / kMeanBurst;
    EXPECT_NEAR(stay, expect_stay, expect_stay * kTol)
        << "loss correlation off at seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstLossStats,
                         ::testing::Values(3, 17, 29));

// -- arm-time plan validation ---------------------------------------------

TEST(FaultPlanDeathTest, ArmRejectsPastWindows)
{
    // A window behind now() would silently measure nothing; arm()
    // must reject the plan loudly instead.
    sim::Simulation sim;
    net::NicConfig ncfg;
    net::Nic nic(sim, "n", ncfg);
    sim.events().schedule(5 * kMillisecond, []() {});
    sim.runToCompletion();

    fault::FaultPlan plan;
    plan.squeezeRxRing(1 * kMillisecond, 1 * kMillisecond, 8);
    fault::FaultInjector inj(sim, "fault", plan);
    inj.attachRxRing(nic);
    EXPECT_DEATH(inj.arm(), "already in the past");
}

// -- failure detection + recovery (cfg.recovery) --------------------------

std::vector<std::unique_ptr<workloads::FilebenchRandom>>
startFilebench(bench::Experiment &exp, unsigned n_vms)
{
    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < n_vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 1;
        cfg.writers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            exp.model->guest(v), exp.sim->random().split(), cfg));
        wls.back()->start();
    }
    return wls;
}

uint64_t
totalOps(const std::vector<std::unique_ptr<workloads::FilebenchRandom>>
             &wls)
{
    uint64_t ops = 0;
    for (const auto &wl : wls)
        ops += wl->opsCompleted();
    return ops;
}

TEST(Recovery, WatchdogDetectsAndReSteersWedgedWorker)
{
    bench::SweepOptions opt;
    opt.warmup = 5 * kMillisecond;
    opt.sidecores = 2; // somewhere for the survivors to re-steer to
    opt.tweak = [](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.recovery.enabled = true;
    };
    bench::Experiment exp(ModelKind::Vrio, 2, opt);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);
    ASSERT_NE(vm, nullptr);

    auto wls = startFilebench(exp, 2);
    exp.sim->runUntil(exp.sim->now() + opt.warmup);

    const sim::Tick period = 5 * kMillisecond; // recovery default
    sim::Tick wedge_at = exp.sim->now() + 5 * kMillisecond;
    fault::FaultPlan plan;
    plan.wedgeWorker(0, wedge_at);
    fault::FaultInjector inj(*exp.sim, "fault", plan);
    inj.attach(*vm);
    inj.arm();

    exp.sim->runUntil(exp.sim->now() + 40 * kMillisecond);
    auto &hv = vm->hypervisor();
    EXPECT_EQ(inj.wedgesTriggered(), 1u);
    EXPECT_EQ(hv.wedgesDetected(), 1u);
    // The watchdog declares after `watchdog_threshold` consecutive
    // no-progress sweeps, so the latency it reports is exactly
    // threshold * period; the wall-clock detection tick also absorbs
    // the sweep-phase offset and the wedged worker's final in-service
    // completion (at most two extra periods).
    EXPECT_EQ(hv.lastWedgeDetectLatency(), 2 * period);
    EXPECT_GE(hv.lastWedgeDetectTick(), wedge_at + 2 * period);
    EXPECT_LE(hv.lastWedgeDetectTick(), wedge_at + 5 * period);

    // Quarantine re-bound the dead worker's devices: the closed loops
    // keep completing ops afterwards with no device error.
    uint64_t at_check = totalOps(wls);
    exp.sim->runUntil(exp.sim->now() + 20 * kMillisecond);
    EXPECT_GT(totalOps(wls), at_check);

    for (auto &wl : wls)
        wl->stop();
    exp.sim->runUntil(exp.sim->now() + 100 * kMillisecond);
    for (auto &wl : wls) {
        EXPECT_EQ(wl->outstandingOps(), 0u);
        EXPECT_EQ(wl->ioErrors(), 0u);
    }
    for (unsigned v = 0; v < 2; ++v)
        EXPECT_EQ(vm->clientPendingBlocks(v), 0u);
}

TEST(Recovery, HeartbeatLapseFailsOverToStandby)
{
    // A rack of two IOhosts: VM 0 is homed on IOhost 0, and IOhost 1
    // is its cold standby.
    bench::SweepOptions opt;
    opt.warmup = 5 * kMillisecond;
    opt.tweak = [](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_via_switch = true;
        mc.recovery.enabled = true;
        mc.rack.iohosts = 2;
    };
    bench::Experiment exp(ModelKind::Vrio, 1, opt);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);
    ASSERT_NE(vm, nullptr);
    ASSERT_EQ(vm->rackIoHostCount(), 2u);
    ASSERT_EQ(vm->clientHomeIoHost(0), 0u);

    auto wls = startFilebench(exp, 1);
    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    EXPECT_GT(bench::clientCount(*vm, 0, "client.heartbeats_seen"), 0u);

    // The primary dies and never returns inside the run: recovery
    // must come from failover, not from waiting out the outage.
    sim::Tick dead_at = exp.sim->now() + 5 * kMillisecond;
    fault::FaultPlan plan;
    plan.killIoHost(dead_at, 10 * sim::kSecond);
    fault::FaultInjector inj(*exp.sim, "fault", plan);
    inj.attach(*vm);
    inj.arm();

    exp.sim->runUntil(exp.sim->now() + 30 * kMillisecond);
    EXPECT_GE(bench::clientCount(*vm, 0, "client.heartbeat_lapses"), 1u);
    EXPECT_EQ(bench::clientCount(*vm, 0, "client.failovers"), 1u);
    // Detection within the lapse window (miss * period = 8 ms) of the
    // last pre-crash beat.
    EXPECT_GT(vm->clientLapseTick(0), dead_at);
    EXPECT_LE(vm->clientLapseTick(0), dead_at + 12 * kMillisecond);

    // The standby now serves the channel while the primary is dark.
    EXPECT_TRUE(vm->hypervisor().offline());
    EXPECT_EQ(vm->clientHomeIoHost(0), 1u);
    uint64_t at_check = totalOps(wls);
    exp.sim->runUntil(exp.sim->now() + 20 * kMillisecond);
    EXPECT_GT(totalOps(wls), at_check);

    for (auto &wl : wls)
        wl->stop();
    exp.sim->runUntil(exp.sim->now() + 100 * kMillisecond);
    EXPECT_EQ(wls[0]->outstandingOps(), 0u);
    EXPECT_EQ(wls[0]->ioErrors(), 0u);
    EXPECT_EQ(vm->clientPendingBlocks(0), 0u);
}

TEST(Recovery, DeadPortReroutesThroughSecondClientNic)
{
    // Two VMhosts means the IOhost has two client NICs on the rack
    // switch.  Killing the port behind one of them re-routes that
    // client's traffic: the switch flushes the dead port's addresses
    // and floods, the frames reach the IOhost's other client NIC, and
    // the IOhost re-learns the client's port from the new ingress.
    bench::SweepOptions opt;
    opt.warmup = 5 * kMillisecond;
    opt.vmhosts = 2;
    opt.tweak = [](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_via_switch = true;
        mc.recovery.enabled = true;
    };
    bench::Experiment exp(ModelKind::Vrio, 2, opt);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);
    ASSERT_NE(vm, nullptr);
    auto nics = vm->iohostClientNics();
    ASSERT_EQ(nics.size(), 2u);

    auto wls = startFilebench(exp, 2);
    exp.sim->runUntil(exp.sim->now() + opt.warmup);

    sim::Tick down_at = exp.sim->now() + 5 * kMillisecond;
    fault::FaultPlan plan;
    plan.killSwitchPort(nics[0]->queueMac(0), down_at,
                        20 * kMillisecond);
    fault::FaultInjector inj(*exp.sim, "fault", plan);
    inj.attach(*vm);
    inj.attachSwitch(exp.rack->rackSwitch());
    inj.arm();

    // Measure strictly inside the window: ops must keep completing
    // over the surviving NIC.
    exp.sim->runUntil(down_at + 5 * kMillisecond);
    uint64_t in_window = totalOps(wls);
    exp.sim->runUntil(down_at + 18 * kMillisecond);
    EXPECT_EQ(inj.portDownsTriggered(), 1u);
    EXPECT_GT(totalOps(wls), in_window);
    EXPECT_GT(exp.rack->rackSwitch().deadPortDrops(), 0u);

    exp.sim->runUntil(exp.sim->now() + 20 * kMillisecond);
    for (auto &wl : wls)
        wl->stop();
    exp.sim->runUntil(exp.sim->now() + 100 * kMillisecond);
    for (auto &wl : wls) {
        EXPECT_EQ(wl->outstandingOps(), 0u);
        EXPECT_EQ(wl->ioErrors(), 0u);
    }
}

TEST(Recovery, StreamResetSnapshotsCongestionCounters)
{
    // bench::FaultedStreamResult reports post-warmup deltas: the
    // congestion machine's cumulative counters are snapshotted by
    // resetStats(), not rewound.
    bench::SweepOptions opt;
    opt.warmup = 5 * kMillisecond;
    bench::Experiment exp(ModelKind::Vrio, 1, opt);
    exp.settle();
    fault::FaultPlan plan;
    plan.seed = 13;
    plan.dropRate(0.02);
    auto inj = bench::attachInjector(exp, plan);
    ASSERT_NE(inj, nullptr);

    workloads::NetperfStream::Config scfg;
    scfg.adaptive = true;
    auto &gen = exp.rack->generator(0);
    // The stream keeps a reference to its costs: pass ones that
    // outlive it, not a temporary.
    workloads::NetperfStream wl(gen, gen.newSession(),
                                exp.model->guest(0), opt.costs, scfg);
    wl.start();
    exp.sim->runUntil(exp.sim->now() + 30 * kMillisecond);
    ASSERT_NE(wl.tcp(), nullptr);
    ASSERT_GT(wl.tcp()->timeouts() + wl.tcp()->fastRetransmits(), 0u)
        << "warmup saw no losses; raise the rate";

    uint64_t to_base = wl.tcp()->timeouts();
    uint64_t fr_base = wl.tcp()->fastRetransmits();
    wl.resetStats();
    EXPECT_EQ(wl.tcpTimeouts(), 0u);
    EXPECT_EQ(wl.tcpFastRetransmits(), 0u);

    exp.sim->runUntil(exp.sim->now() + 30 * kMillisecond);
    EXPECT_EQ(wl.tcpTimeouts(), wl.tcp()->timeouts() - to_base);
    EXPECT_EQ(wl.tcpFastRetransmits(),
              wl.tcp()->fastRetransmits() - fr_base);
    EXPECT_GT(wl.tcpTimeouts() + wl.tcpFastRetransmits(), 0u);
}

/**
 * Property: with the recovery layer armed, a single partial fault of
 * any class injected mid-run leaves zero stranded requests once the
 * workloads stop and the run drains — every submitted request
 * eventually completes.  Checked across three workload seeds per
 * fault class.
 */
class SingleFaultDrainsDry
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>>
{};

TEST_P(SingleFaultDrainsDry, NoStrandedRequests)
{
    const int fault_class = std::get<0>(GetParam());
    const uint64_t seed = std::get<1>(GetParam());
    const unsigned n_vms = 2;

    bench::SweepOptions opt;
    opt.warmup = 5 * kMillisecond;
    opt.seed = seed;
    opt.sidecores = 2;
    opt.tweak = [fault_class](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_via_switch = true;
        mc.recovery.enabled = true;
        // A permanent IOhost outage needs a peer to fail over to.
        if (fault_class == 2)
            mc.rack.iohosts = 2;
    };
    bench::Experiment exp(ModelKind::Vrio, n_vms, opt);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);
    ASSERT_NE(vm, nullptr);

    auto wls = startFilebench(exp, n_vms);
    exp.sim->runUntil(exp.sim->now() + opt.warmup);

    sim::Tick fault_at = exp.sim->now() + 5 * kMillisecond;
    fault::FaultPlan plan;
    plan.seed = seed;
    switch (fault_class) {
    case 0:
        plan.wedgeWorker(0, fault_at);
        break;
    case 1:
        plan.killSwitchPort(vm->iohostClientNics()[0]->queueMac(0),
                            fault_at, 15 * kMillisecond);
        break;
    case 2:
        plan.killIoHost(fault_at, 10 * sim::kSecond);
        break;
    }
    auto inj = bench::attachInjector(exp, plan);
    ASSERT_NE(inj, nullptr);

    exp.sim->runUntil(exp.sim->now() + 40 * kMillisecond);
    for (auto &wl : wls)
        wl->stop();
    exp.sim->runUntil(exp.sim->now() + 120 * kMillisecond);

    EXPECT_GT(totalOps(wls), 0u);
    for (auto &wl : wls)
        EXPECT_EQ(wl->outstandingOps(), 0u)
            << "class " << fault_class << " seed " << seed;
    for (unsigned v = 0; v < n_vms; ++v)
        EXPECT_EQ(vm->clientPendingBlocks(v), 0u)
            << "class " << fault_class << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    FaultClassesAndSeeds, SingleFaultDrainsDry,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(101, 202, 303)));

TEST(BurstLoss, ForAverageLossParameterization)
{
    auto ge = fault::GilbertElliott::forAverageLoss(0.02, 8.0);
    EXPECT_DOUBLE_EQ(ge.q, 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(ge.p, ge.q * 0.02 / 0.98);
    EXPECT_NEAR(ge.steadyStateLoss(), 0.02, 1e-12);
    EXPECT_DOUBLE_EQ(ge.bad_loss, 1.0);
    EXPECT_DOUBLE_EQ(ge.good_loss, 0.0);
}

} // namespace
} // namespace vrio
