/**
 * @file
 * Tests for the public Testbed API, the hv substrate, the load
 * generators, and cross-cutting properties (determinism, NUMA
 * penalty).
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/vrio.hpp"

namespace vrio {
namespace {

using models::ModelKind;
using sim::kMillisecond;

TEST(Testbed, BuildsEveryModelKind)
{
    for (ModelKind kind :
         {ModelKind::Baseline, ModelKind::Elvis, ModelKind::Optimum,
          ModelKind::Vrio, ModelKind::VrioNoPoll}) {
        core::Testbed tb(kind, 2);
        tb.settle();
        EXPECT_EQ(tb.model().kind(), kind);
        EXPECT_EQ(tb.model().numVms(), 2u);
        EXPECT_NE(tb.guest(0).mac(), tb.guest(1).mac());
    }
}

TEST(Testbed, ConfigureHookApplies)
{
    core::TestbedOptions options;
    options.configure = [](models::ModelConfig &mc) {
        mc.with_block = true;
    };
    core::Testbed tb(ModelKind::Vrio, 1, options);
    EXPECT_TRUE(tb.guest(0).hasBlockDevice());
}

TEST(Testbed, RackCoalesceEnvImpliesRackMode)
{
    // Coalescing sits at a rack IOhost's fan-out point: the switch
    // must build the rack, not a classic wiring that cannot coalesce.
    ::setenv("VRIO_RACK_COALESCE", "1", 1);
    core::Testbed tb(ModelKind::Vrio, 2);
    ::unsetenv("VRIO_RACK_COALESCE");
    const models::ModelConfig &mc = tb.model().config();
    EXPECT_TRUE(mc.rack.coalesce);
    EXPECT_EQ(mc.rack.iohosts, 1u);
    EXPECT_TRUE(mc.vrio_via_switch);
}

TEST(Testbed, RunsAreDeterministic)
{
    auto run = []() {
        core::Testbed tb(ModelKind::Vrio, 1);
        tb.settle();
        auto &gen = tb.generator();
        workloads::NetperfRr rr(gen, gen.newSession(), tb.guest(0), {});
        rr.start();
        tb.runFor(50 * kMillisecond);
        return std::make_pair(rr.transactions(),
                              rr.latencyUs().sum());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Testbed, SeedsChangeJitterNotStructure)
{
    auto run = [](uint64_t seed) {
        core::TestbedOptions options;
        options.seed = seed;
        core::Testbed tb(ModelKind::Vrio, 1, options);
        tb.settle();
        auto &gen = tb.generator();
        workloads::NetperfRr rr(gen, gen.newSession(), tb.guest(0), {});
        rr.start();
        tb.runFor(100 * kMillisecond);
        return rr.latencyUs().mean();
    };
    double a = run(1), b = run(999);
    EXPECT_NEAR(a, b, 1.0); // means agree within jitter noise
}

TEST(HvMachine, CoresRunCycles)
{
    sim::Simulation sim;
    hv::MachineConfig mc;
    mc.cores = 2;
    mc.ghz = 2.0;
    hv::Machine machine(sim, "m", mc);
    EXPECT_EQ(machine.coreCount(), 2u);

    sim::Tick done_at = 0;
    machine.core(0).run(4000, [&]() { done_at = sim.now(); });
    sim.runToCompletion();
    EXPECT_EQ(done_at, 2 * sim::kMicrosecond); // 4000 cy @ 2 GHz

    EXPECT_DEATH(machine.core(2), "out of range");
}

TEST(HvVm, MigrationRebindsCore)
{
    sim::Simulation sim;
    hv::MachineConfig mc;
    mc.cores = 2;
    hv::Machine machine(sim, "m", mc);
    hv::Vm vm(sim, "vm", machine.core(0));
    EXPECT_EQ(&vm.vcpu(), &machine.core(0));
    vm.migrateTo(machine.core(1));
    EXPECT_EQ(&vm.vcpu(), &machine.core(1));
}

TEST(HvVm, ClientKindNames)
{
    EXPECT_STREQ(hv::clientKindName(hv::ClientKind::KvmGuest),
                 "kvm-guest");
    EXPECT_STREQ(hv::clientKindName(hv::ClientKind::BareMetalPower),
                 "bare-metal-power");
    sim::Simulation sim;
    hv::MachineConfig mc;
    hv::Machine machine(sim, "m", mc);
    hv::Vm bare(sim, "b", machine.core(0), 1 << 20,
                hv::ClientKind::BareMetalX86);
    EXPECT_TRUE(bare.isBareMetal());
    hv::Vm kvm(sim, "k", machine.core(1), 1 << 20);
    EXPECT_FALSE(kvm.isBareMetal());
}

TEST(IoEvents, RecordAndSum)
{
    hv::IoEventCounts counts;
    counts.record(hv::IoEvent::SyncExit, 3);
    counts.record(hv::IoEvent::GuestInterrupt, 2);
    counts.record(hv::IoEvent::Injection, 2);
    counts.record(hv::IoEvent::HostInterrupt, 2);
    EXPECT_EQ(counts.sum(), 9u); // the baseline row of Table 3
    counts.record(hv::IoEvent::IohostInterrupt, 4);
    EXPECT_EQ(counts.iohost_interrupts, 4u);
}

TEST(Generator, NumaPenaltySlowsLateSessions)
{
    // Sessions 0..2 run on cores 1..3 (socket 0); session 3+ lands on
    // the second socket and pays the penalty (Fig. 13a's bump).
    auto latency_with_sessions = [](unsigned nsessions) {
        core::Testbed tb(ModelKind::Optimum, 7);
        tb.settle();
        auto &gen = tb.generator();
        std::vector<std::unique_ptr<workloads::NetperfRr>> wls;
        for (unsigned v = 0; v < nsessions; ++v) {
            wls.push_back(std::make_unique<workloads::NetperfRr>(
                gen, gen.newSession(), tb.guest(v),
                workloads::NetperfRr::Config{}));
            wls.back()->start();
        }
        tb.runFor(50 * kMillisecond);
        return wls.back()->latencyUs().mean(); // the newest session
    };
    double on_socket0 = latency_with_sessions(3);
    double on_socket1 = latency_with_sessions(4);
    EXPECT_GT(on_socket1, on_socket0 + 2.0);
}

TEST(Generator, SessionsAreIsolated)
{
    core::Testbed tb(ModelKind::Optimum, 2);
    tb.settle();
    auto &gen = tb.generator();
    unsigned s0 = gen.newSession();
    unsigned s1 = gen.newSession();
    EXPECT_NE(gen.sessionMac(s0), gen.sessionMac(s1));

    int got0 = 0, got1 = 0;
    tb.guest(0).setNetHandler(
        [&](Bytes, net::MacAddress src, uint64_t) {
            tb.guest(0).sendNet(src, Bytes(1, 1));
        });
    gen.setHandler(s0, [&](Bytes, net::MacAddress, uint64_t) { ++got0; });
    gen.setHandler(s1, [&](Bytes, net::MacAddress, uint64_t) { ++got1; });
    gen.send(s0, tb.guest(0).mac(), Bytes(1, 1));
    tb.runFor(10 * kMillisecond);
    EXPECT_EQ(got0, 1);
    EXPECT_EQ(got1, 0);
}

TEST(UmbrellaHeader, ExposesTheAdvertisedApi)
{
    // Compile-time check: everything the README shows is reachable
    // through core/vrio.hpp (this file includes only that header).
    core::Testbed tb(ModelKind::Elvis, 1);
    (void)cost::elvisRack(3);
    (void)cost::cpuUpgradePoints();
    interpose::Chain chain;
    stats::Table table("t");
    SUCCEED();
}

} // namespace
} // namespace vrio
