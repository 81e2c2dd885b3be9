/**
 * @file
 * Integration tests across the five I/O model wirings: end-to-end
 * request/response flow, Table-3 event accounting, block-path data
 * integrity (including the remote vRIO device), loss recovery, and
 * the device-creation control handshake.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "models/io_model.hpp"
#include "interpose/services.hpp"
#include "models/vrio.hpp"
#include "transport/encap.hpp"

namespace vrio::models {
namespace {

using sim::kMicrosecond;
using sim::kMillisecond;
using sim::kSecond;

/** Client @p v's count in its {vm} telemetry series @p series. */
uint64_t
clientCount(VrioModel &vm, unsigned v, const char *series)
{
    hv::Vm &guest = vm.guest(v).vm();
    return guest.sim().telemetry().metrics.count(series,
                                                 {{"vm", guest.name()}});
}

struct Harness
{
    sim::Simulation sim{12345};
    std::unique_ptr<Rack> rack;
    std::unique_ptr<IoModel> model;

    explicit Harness(ModelConfig mc, unsigned generators = 1)
    {
        RackConfig rc;
        rc.num_generators = generators;
        rack = std::make_unique<Rack>(sim, rc);
        model = makeModel(*rack, mc);
        // Let the vRIO device-creation handshake settle, then zero
        // the event counters so tests observe steady-state behaviour.
        sim.runUntil(5 * kMillisecond);
        for (unsigned v = 0; v < mc.num_vms; ++v)
            model->guest(v).vm().events() = {};
    }
};


/** gtest parameter names must be alphanumeric. */
std::string
paramName(ModelKind kind)
{
    std::string name = modelKindName(kind);
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}
ModelConfig
basicConfig(ModelKind kind, unsigned vms = 1)
{
    ModelConfig mc;
    mc.kind = kind;
    mc.num_vms = vms;
    return mc;
}

class AllModels : public ::testing::TestWithParam<ModelKind>
{};

TEST_P(AllModels, SingleRequestResponseCompletes)
{
    Harness h(basicConfig(GetParam()));
    auto &gen = h.rack->generator(0);
    unsigned session = gen.newSession();
    auto &guest = h.model->guest(0);

    bool guest_got = false;
    bool gen_got = false;
    guest.setNetHandler(
        [&](Bytes payload, net::MacAddress src, uint64_t) {
            guest_got = true;
            EXPECT_EQ(payload.size(), 1u);
            guest.sendNet(src, Bytes(1, 0xbb));
        });
    gen.setHandler(session, [&](Bytes payload, net::MacAddress, uint64_t) {
        gen_got = true;
        EXPECT_EQ(payload.size(), 1u);
        EXPECT_EQ(payload[0], 0xbb);
    });

    gen.send(session, guest.mac(), Bytes(1, 0xaa));
    h.sim.runUntil(h.sim.now() + 20 * kMillisecond);
    EXPECT_TRUE(guest_got) << modelKindName(GetParam());
    EXPECT_TRUE(gen_got) << modelKindName(GetParam());
}

TEST_P(AllModels, RoundTripLatencyIsSane)
{
    Harness h(basicConfig(GetParam()));
    auto &gen = h.rack->generator(0);
    unsigned session = gen.newSession();
    auto &guest = h.model->guest(0);

    sim::Tick t0 = 0, t1 = 0;
    guest.setNetHandler([&](Bytes, net::MacAddress src, uint64_t) {
        guest.sendNet(src, Bytes(1, 1));
    });
    gen.setHandler(session, [&](Bytes, net::MacAddress, uint64_t) {
        t1 = h.sim.now();
    });
    t0 = h.sim.now();
    gen.send(session, guest.mac(), Bytes(1, 1));
    h.sim.runUntil(h.sim.now() + 20 * kMillisecond);
    ASSERT_GT(t1, t0);
    double us = sim::ticksToMicros(t1 - t0);
    // Generous envelope; exact calibration is checked by the benches.
    EXPECT_GT(us, 5.0) << modelKindName(GetParam());
    EXPECT_LT(us, 200.0) << modelKindName(GetParam());
}

TEST_P(AllModels, ManyTransactionsSustain)
{
    Harness h(basicConfig(GetParam()));
    auto &gen = h.rack->generator(0);
    unsigned session = gen.newSession();
    auto &guest = h.model->guest(0);

    int completed = 0;
    guest.setNetHandler([&](Bytes, net::MacAddress src, uint64_t) {
        guest.sendNet(src, Bytes(1, 1));
    });
    gen.setHandler(session, [&](Bytes, net::MacAddress, uint64_t) {
        ++completed;
        if (completed < 500)
            gen.send(session, guest.mac(), Bytes(1, 1));
    });
    gen.send(session, guest.mac(), Bytes(1, 1));
    h.sim.runUntil(h.sim.now() + kSecond);
    EXPECT_EQ(completed, 500) << modelKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllModels,
    ::testing::Values(ModelKind::Baseline, ModelKind::Elvis,
                      ModelKind::Optimum, ModelKind::Vrio,
                      ModelKind::VrioNoPoll),
    [](const auto &info) { return paramName(info.param); });

// --- Table 3: per-transaction event accounting --------------------------

struct EventExpectation
{
    ModelKind kind;
    uint64_t exits, guest_irqs, injections, host_irqs, iohost_irqs;
};

// gtest prints an unprintable parameter as its raw bytes, padding
// included, and test discovery puts that text into the test's name;
// print the row's model so the name is the same on every build.
void
PrintTo(const EventExpectation &e, std::ostream *os)
{
    *os << modelKindName(e.kind);
}

class Table3 : public ::testing::TestWithParam<EventExpectation>
{};

TEST_P(Table3, SingleTransactionEventCounts)
{
    const auto &exp = GetParam();
    Harness h(basicConfig(exp.kind));
    auto &gen = h.rack->generator(0);
    unsigned session = gen.newSession();
    auto &guest = h.model->guest(0);

    uint64_t iohost_before = h.model->iohostInterrupts();

    bool done = false;
    guest.setNetHandler([&](Bytes, net::MacAddress src, uint64_t) {
        guest.sendNet(src, Bytes(1, 1));
    });
    gen.setHandler(session,
                   [&](Bytes, net::MacAddress, uint64_t) { done = true; });
    gen.send(session, guest.mac(), Bytes(1, 1));
    h.sim.runUntil(h.sim.now() + 50 * kMillisecond);
    ASSERT_TRUE(done);

    hv::IoEventCounts counts = h.model->guest(0).vm().events();
    EXPECT_EQ(counts.sync_exits, exp.exits) << modelKindName(exp.kind);
    EXPECT_EQ(counts.guest_interrupts, exp.guest_irqs);
    EXPECT_EQ(counts.injections, exp.injections);
    EXPECT_EQ(counts.host_interrupts, exp.host_irqs);
    EXPECT_EQ(h.model->iohostInterrupts() - iohost_before,
              exp.iohost_irqs);
}

// The rows of the paper's Table 3.
INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table3,
    ::testing::Values(
        EventExpectation{ModelKind::Optimum, 0, 2, 0, 0, 0},
        EventExpectation{ModelKind::Vrio, 0, 2, 0, 0, 0},
        EventExpectation{ModelKind::Elvis, 0, 2, 0, 2, 0},
        EventExpectation{ModelKind::VrioNoPoll, 0, 2, 0, 0, 4},
        EventExpectation{ModelKind::Baseline, 3, 2, 2, 2, 0}),
    [](const auto &info) { return paramName(info.param.kind); });

// --- Block path ---------------------------------------------------------

class BlockModels : public ::testing::TestWithParam<ModelKind>
{};

TEST_P(BlockModels, WriteReadIntegrity)
{
    ModelConfig mc = basicConfig(GetParam());
    mc.with_block = true;
    Harness h(mc);
    auto &guest = h.model->guest(0);
    ASSERT_TRUE(guest.hasBlockDevice());
    ASSERT_GT(guest.blockCapacitySectors(), 0u);

    Bytes data(4096);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 7 + 3);

    bool wrote = false;
    guest.submitBlock({virtio::BlkType::Out, 64, 8, data},
                      [&](virtio::BlkStatus s, Bytes) {
                          EXPECT_EQ(s, virtio::BlkStatus::Ok);
                          wrote = true;
                      });
    h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
    ASSERT_TRUE(wrote) << modelKindName(GetParam());

    Bytes got;
    guest.submitBlock({virtio::BlkType::In, 64, 8, {}},
                      [&](virtio::BlkStatus s, Bytes d) {
                          EXPECT_EQ(s, virtio::BlkStatus::Ok);
                          got = std::move(d);
                      });
    h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
    EXPECT_EQ(got, data) << modelKindName(GetParam());
}

TEST_P(BlockModels, LargeTransferCrossesSegmentationBound)
{
    ModelConfig mc = basicConfig(GetParam());
    mc.with_block = true;
    Harness h(mc);
    auto &guest = h.model->guest(0);

    // 256KB: forces multi-part software segmentation on the vRIO path.
    Bytes data(256 * 1024);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 131 + 17);
    uint32_t nsectors = uint32_t(data.size() / virtio::kSectorSize);

    bool wrote = false;
    guest.submitBlock({virtio::BlkType::Out, 0, nsectors, data},
                      [&](virtio::BlkStatus s, Bytes) {
                          EXPECT_EQ(s, virtio::BlkStatus::Ok);
                          wrote = true;
                      });
    h.sim.runUntil(h.sim.now() + 200 * kMillisecond);
    ASSERT_TRUE(wrote);

    Bytes got;
    guest.submitBlock({virtio::BlkType::In, 0, nsectors, {}},
                      [&](virtio::BlkStatus s, Bytes d) {
                          EXPECT_EQ(s, virtio::BlkStatus::Ok);
                          got = std::move(d);
                      });
    h.sim.runUntil(h.sim.now() + 200 * kMillisecond);
    EXPECT_EQ(got.size(), data.size());
    EXPECT_EQ(got, data) << modelKindName(GetParam());
}

TEST_P(BlockModels, OutOfRangeReadFails)
{
    ModelConfig mc = basicConfig(GetParam());
    mc.with_block = true;
    Harness h(mc);
    auto &guest = h.model->guest(0);
    virtio::BlkStatus status = virtio::BlkStatus::Ok;
    guest.submitBlock(
        {virtio::BlkType::In, guest.blockCapacitySectors() + 8, 8, {}},
        [&](virtio::BlkStatus s, Bytes) { status = s; });
    h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
    EXPECT_EQ(status, virtio::BlkStatus::IoErr);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BlockModels,
    ::testing::Values(ModelKind::Baseline, ModelKind::Elvis,
                      ModelKind::Vrio, ModelKind::VrioNoPoll),
    [](const auto &info) { return paramName(info.param); });

// --- vRIO-specific protocol behaviour -----------------------------------

TEST(VrioHandshake, DeviceCreationAcked)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio, 3);
    mc.with_block = true;
    Harness h(mc);
    auto &vm = static_cast<VrioModel &>(*h.model);
    // Each client saw a net and a block DevCreate and acked both.
    for (unsigned v = 0; v < 3; ++v)
        EXPECT_EQ(clientCount(vm, v, "client.dev_creates"), 2u) << "vm " << v;
    EXPECT_EQ(vm.hypervisor().acksReceived(), 6u);
}

TEST(VrioLoss, BlockRetransmissionRecovers)
{
    // Validation experiment of Section 4.5: artificially drop frames
    // on the vRIO channel; the block protocol must still complete all
    // I/O correctly (latency suffers, data does not).
    ModelConfig mc = basicConfig(ModelKind::Vrio);
    mc.with_block = true;
    mc.vrio_channel_loss = 0.05;
    Harness h(mc);
    auto &guest = h.model->guest(0);
    auto &vm = static_cast<VrioModel &>(*h.model);

    int completed = 0;
    int failed = 0;
    std::map<int, Bytes> written;
    std::function<void(int)> write_next = [&](int i) {
        if (i >= 60)
            return;
        Bytes data(4096);
        for (size_t j = 0; j < data.size(); ++j)
            data[j] = uint8_t(i + j * 11);
        written[i] = data;
        guest.submitBlock(
            {virtio::BlkType::Out, uint64_t(i) * 8, 8, data},
            [&, i](virtio::BlkStatus s, Bytes) {
                if (s == virtio::BlkStatus::Ok)
                    ++completed;
                else
                    ++failed;
                write_next(i + 1);
            });
    };
    write_next(0);
    h.sim.runUntil(h.sim.now() + 20 * kSecond);
    EXPECT_EQ(completed, 60);
    EXPECT_EQ(failed, 0);
    // With 5% loss and multi-frame requests, retransmissions must
    // have actually happened for this test to mean anything.
    EXPECT_GT(clientCount(vm, 0, "transport.rtq.retransmissions"), 0u);

    // Verify a couple of extents round-trip despite the loss.
    Bytes got;
    guest.submitBlock({virtio::BlkType::In, 8, 8, {}},
                      [&](virtio::BlkStatus s, Bytes d) {
                          EXPECT_EQ(s, virtio::BlkStatus::Ok);
                          got = std::move(d);
                      });
    h.sim.runUntil(h.sim.now() + 20 * kSecond);
    EXPECT_EQ(got, written[1]);
}

TEST(VrioLoss, TotalLossRaisesDeviceError)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio);
    mc.with_block = true;
    mc.vrio_channel_loss = 1.0; // channel dead
    Harness h(mc);
    auto &guest = h.model->guest(0);
    virtio::BlkStatus status = virtio::BlkStatus::Ok;
    bool done = false;
    guest.submitBlock({virtio::BlkType::In, 0, 8, {}},
                      [&](virtio::BlkStatus s, Bytes) {
                          status = s;
                          done = true;
                      });
    // Retry cap: 10+20+40+80+160+320+640 ms ~ 1.3 s.
    h.sim.runUntil(h.sim.now() + 5 * kSecond);
    EXPECT_TRUE(done);
    EXPECT_EQ(status, virtio::BlkStatus::Timeout);
}

TEST(VrioIngress, UnknownDeviceIdsLeakNoIntakeBudget)
{
    // Requests naming devices the IOhost does not serve are foreign
    // traffic.  A burst of them larger than the intake budget (one
    // worker x 16-frame batches) must leave the IOhost taking frames:
    // a valid read right behind it completes.
    ModelConfig mc = basicConfig(ModelKind::Vrio);
    mc.with_block = true;
    mc.sidecores = 1;
    Harness h(mc);
    auto &vm = static_cast<VrioModel &>(*h.model);
    auto &hv = vm.hypervisor();
    auto &metrics = h.sim.telemetry().metrics;
    auto foreign = [&]() {
        return metrics.count("iohost.foreign_rx_messages",
                             {{"iohv", hv.name()}});
    };
    const uint64_t foreign_before = foreign();

    net::Nic &port = *vm.iohostClientNics().at(0);
    const auto src = net::MacAddress::local(0xbad);
    constexpr unsigned kBurst = 40;
    for (unsigned i = 0; i < kBurst; ++i) {
        transport::TransportHeader hdr;
        hdr.device_id = 0xdead0000 + i;
        hdr.request_serial = i + 1;
        Bytes payload;
        if (i % 2) {
            hdr.type = transport::MsgType::NetOut;
            payload.assign(64, 0x5a);
        } else {
            hdr.type = transport::MsgType::BlkReq;
            hdr.blk_type = uint8_t(virtio::BlkType::In);
            hdr.io_len = 4096;
        }
        hdr.total_len = uint32_t(payload.size());
        port.receive(transport::encapsulate(src, port.queueMac(0), i + 1,
                                            hdr, payload));
    }
    h.sim.runUntil(h.sim.now() + 1 * kMillisecond);
    EXPECT_EQ(foreign() - foreign_before, kBurst);

    bool done = false;
    virtio::BlkStatus status = virtio::BlkStatus::IoErr;
    h.model->guest(0).submitBlock({virtio::BlkType::In, 0, 8, {}},
                                  [&](virtio::BlkStatus s, Bytes) {
                                      status = s;
                                      done = true;
                                  });
    h.sim.runUntil(h.sim.now() + 5 * kMillisecond);
    EXPECT_TRUE(done);
    EXPECT_EQ(status, virtio::BlkStatus::Ok);
}

TEST(VrioContention, WorkerSeesContendedPackets)
{
    // Fig. 8's right axis: with several VMs sharing one remote
    // sidecore, some packets find the worker busy.
    ModelConfig mc = basicConfig(ModelKind::Vrio, 6);
    mc.sidecores = 1;
    Harness h(mc);
    auto &gen = h.rack->generator(0);
    std::vector<std::unique_ptr<int>> dummy;

    for (unsigned v = 0; v < 6; ++v) {
        unsigned session = gen.newSession();
        auto &guest = h.model->guest(v);
        guest.setNetHandler([&guest](Bytes, net::MacAddress src, uint64_t) {
            guest.sendNet(src, Bytes(1, 1));
        });
        gen.setHandler(session,
                       [&gen, session, &guest](Bytes, net::MacAddress,
                                               uint64_t) {
                           gen.send(session, guest.mac(), Bytes(1, 1));
                       });
        gen.send(session, guest.mac(), Bytes(1, 1));
    }
    h.sim.runUntil(h.sim.now() + 200 * kMillisecond);
    auto resources = h.model->ioResources();
    ASSERT_EQ(resources.size(), 1u);
    EXPECT_GT(resources[0]->completed(), 100u);
    EXPECT_GT(resources[0]->contendedJobs(), 0u);
}

TEST(VrioRxRing, SmallRingDropsUnderBurst)
{
    // Section 4.5: the IOhost Rx ring at 512 showed loss under load;
    // 4096 eliminated it.  Burst block writes from several VMs and
    // compare NIC drops.
    auto run_with_ring = [](size_t ring) {
        ModelConfig mc = basicConfig(ModelKind::Vrio, 4);
        // Four VMhosts: four 10G links converge on the IOhost, and an
        // AES interposition chain keeps the worker busy, so a burst
        // outpaces it and piles up in its RX ring.
        mc.num_vmhosts = 4;
        mc.with_block = true;
        mc.iohost_rx_ring = ring;
        static std::vector<std::unique_ptr<interpose::Chain>> chains;
        mc.chain_factory = [](uint32_t, bool is_block)
            -> interpose::Chain * {
            if (!is_block)
                return nullptr;
            Bytes key(32, 1);
            auto chain = std::make_unique<interpose::Chain>();
            chain->append(
                std::make_unique<interpose::EncryptionService>(key));
            chains.push_back(std::move(chain));
            return chains.back().get();
        };
        Harness h(mc);
        uint64_t retransmits = 0;
        for (unsigned v = 0; v < 4; ++v) {
            auto &guest = h.model->guest(v);
            for (int i = 0; i < 24; ++i) {
                Bytes data(64 * 1024, uint8_t(i));
                guest.submitBlock({virtio::BlkType::Out,
                                   uint64_t(i) * 128, 128, data},
                                  [](virtio::BlkStatus, Bytes) {});
            }
        }
        h.sim.runUntil(h.sim.now() + 2 * kSecond);
        auto &vm = static_cast<VrioModel &>(*h.model);
        (void)retransmits;
        uint64_t drops = 0;
        for (const net::Nic *nic : vm.allNics())
            drops += nic->rxDrops();
        return drops;
    };
    uint64_t small = run_with_ring(64);
    uint64_t big = run_with_ring(4096);
    EXPECT_GT(small, 0u);
    EXPECT_EQ(big, 0u);
}

// --- T_virtio fallback channel (Section 4.6) -------------------------------

TEST(TvirtioChannel, WorksEndToEndWithExitOverheads)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio);
    mc.vrio_channel = ModelConfig::VrioChannel::Tvirtio;
    Harness h(mc);
    auto &gen = h.rack->generator(0);
    unsigned session = gen.newSession();
    auto &guest = h.model->guest(0);

    int completed = 0;
    guest.setNetHandler([&guest](Bytes, net::MacAddress src, uint64_t) {
        guest.sendNet(src, Bytes(1, 1));
    });
    gen.setHandler(session, [&](Bytes, net::MacAddress, uint64_t) {
        ++completed;
        if (completed < 100)
            gen.send(session, guest.mac(), Bytes(1, 1));
    });
    gen.send(session, guest.mac(), Bytes(1, 1));
    h.sim.runUntil(h.sim.now() + kSecond);
    EXPECT_EQ(completed, 100);

    // The defining difference from T_sriov: the channel reintroduces
    // exits, injections and host interrupts.
    const auto &e = h.model->guest(0).vm().events();
    EXPECT_GT(e.sync_exits, 0u);
    EXPECT_GT(e.injections, 0u);
    EXPECT_GT(e.host_interrupts, 0u);
}

TEST(TvirtioChannel, SlowerThanTsriov)
{
    auto mean_latency = [](ModelConfig::VrioChannel channel) {
        ModelConfig mc;
        mc.kind = ModelKind::Vrio;
        mc.num_vms = 1;
        mc.vrio_channel = channel;
        Harness h(mc);
        auto &gen = h.rack->generator(0);
        unsigned session = gen.newSession();
        auto &guest = h.model->guest(0);
        stats::Histogram lat;
        sim::Tick t0 = 0;
        guest.setNetHandler(
            [&guest](Bytes, net::MacAddress src, uint64_t) {
                guest.sendNet(src, Bytes(1, 1));
            });
        gen.setHandler(session, [&](Bytes, net::MacAddress, uint64_t) {
            lat.add(sim::ticksToMicros(h.sim.now() - t0));
            t0 = h.sim.now();
            gen.send(session, guest.mac(), Bytes(1, 1));
        });
        t0 = h.sim.now();
        gen.send(session, guest.mac(), Bytes(1, 1));
        h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
        return lat.mean();
    };
    double sriov =
        mean_latency(ModelConfig::VrioChannel::Tsriov);
    double tvirtio =
        mean_latency(ModelConfig::VrioChannel::Tvirtio);
    // Section 4.2's point: the SRIOV+ELI channel minimizes the added
    // hop's cost; the virtio fallback pays exits/vhost/injections.
    EXPECT_GT(tvirtio, sriov + 5.0);
}

TEST(TvirtioChannel, BlockPathStillCorrect)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio);
    mc.vrio_channel = ModelConfig::VrioChannel::Tvirtio;
    mc.with_block = true;
    Harness h(mc);
    auto &guest = h.model->guest(0);
    Bytes data(4096);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 11);
    bool wrote = false;
    guest.submitBlock({virtio::BlkType::Out, 8, 8, data},
                      [&](virtio::BlkStatus s, Bytes) {
                          wrote = s == virtio::BlkStatus::Ok;
                      });
    h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
    ASSERT_TRUE(wrote);
    Bytes got;
    guest.submitBlock({virtio::BlkType::In, 8, 8, {}},
                      [&](virtio::BlkStatus, Bytes d) {
                          got = std::move(d);
                      });
    h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
    EXPECT_EQ(got, data);
}

// --- switched T-channel topology (Section 4.6) ----------------------------

TEST(ViaSwitch, TrafficFlowsThroughTheRackSwitch)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio, 2);
    mc.vrio_via_switch = true;
    Harness h(mc);
    auto &gen = h.rack->generator(0);
    unsigned session = gen.newSession();
    auto &guest = h.model->guest(0);

    int completed = 0;
    guest.setNetHandler([&guest](Bytes, net::MacAddress src, uint64_t) {
        guest.sendNet(src, Bytes(1, 1));
    });
    gen.setHandler(session, [&](Bytes, net::MacAddress, uint64_t) {
        ++completed;
        if (completed < 200)
            gen.send(session, guest.mac(), Bytes(1, 1));
    });
    gen.send(session, guest.mac(), Bytes(1, 1));
    h.sim.runUntil(h.sim.now() + kSecond);
    EXPECT_EQ(completed, 200);
    // The switch carried the encapsulated T-channel frames too.
    EXPECT_GT(h.rack->rackSwitch().framesForwarded(), 400u);
}

TEST(ViaSwitch, AddsLatencyOverDirectWiring)
{
    auto mean_latency = [](bool via_switch) {
        ModelConfig mc;
        mc.kind = ModelKind::Vrio;
        mc.num_vms = 1;
        mc.vrio_via_switch = via_switch;
        Harness h(mc);
        auto &gen = h.rack->generator(0);
        unsigned session = gen.newSession();
        auto &guest = h.model->guest(0);
        stats::Histogram lat;
        sim::Tick t0 = 0;
        guest.setNetHandler(
            [&guest](Bytes, net::MacAddress src, uint64_t) {
                guest.sendNet(src, Bytes(1, 1));
            });
        gen.setHandler(session, [&](Bytes, net::MacAddress, uint64_t) {
            lat.add(sim::ticksToMicros(h.sim.now() - t0));
            t0 = h.sim.now();
            gen.send(session, guest.mac(), Bytes(1, 1));
        });
        t0 = h.sim.now();
        gen.send(session, guest.mac(), Bytes(1, 1));
        h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
        return lat.mean();
    };
    double direct = mean_latency(false);
    double switched = mean_latency(true);
    // Two extra switch traversals per direction cost real latency.
    EXPECT_GT(switched, direct + 1.0);
    EXPECT_LT(switched, direct + 15.0);
}

// --- interposition end-to-end ---------------------------------------------

// --- one builder, every cabling ------------------------------------------

TEST(VrioWiring, BuilderKeepsEachCablingShape)
{
    // The classic IOhost has one client port per VMhost (a direct link
    // each, or two switch links each via the switch); a rack has one
    // client switch port per IOhost plus one switch link per VMhost.
    const unsigned H = 3, sidecores = 2;
    const struct
    {
        const char *name;
        unsigned iohosts;
        bool via_switch;
        size_t ports, links;
    } cases[] = {
        {"classic-direct", 0, false, H, H},
        {"classic-switch", 0, true, H, 2 * H},
        {"rack-of-1", 1, true, 1, 1 + H},
        {"rack-of-2", 2, true, 2, 2 + H},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        ModelConfig mc = basicConfig(ModelKind::Vrio, 2 * H);
        mc.num_vmhosts = H;
        mc.sidecores = sidecores;
        mc.vrio_via_switch = c.via_switch;
        mc.rack.iohosts = c.iohosts;
        Harness h(mc);
        auto &vm = static_cast<VrioModel &>(*h.model);
        const unsigned R = std::max(1u, c.iohosts);
        EXPECT_EQ(vm.rackIoHostCount(), R);
        EXPECT_EQ(vm.channelLinks().size(), c.links);
        EXPECT_EQ(vm.ioResources().size(), R * sidecores);
        auto ports = vm.iohostClientNics();
        ASSERT_EQ(ports.size(), c.ports);
        std::set<net::MacAddress> macs;
        for (net::Nic *port : ports)
            macs.insert(port->queueMac(0));
        EXPECT_EQ(macs.size(), c.ports);
        // Every client reached its home port: the handshake landed.
        for (unsigned v = 0; v < mc.num_vms; ++v)
            EXPECT_GT(clientCount(vm, v, "client.dev_creates"), 0u)
                << "vm " << v;
    }
}

TEST(VrioWiringDeathTest, ClassicWiringRejectsRackOnlyOptions)
{
    // The classic wiring has no fan-out point or peer to apply these
    // to; building it with one set must fail instead of ignoring it.
    auto build = [](void (*set)(ModelConfig &)) {
        ModelConfig mc = basicConfig(ModelKind::Vrio);
        set(mc);
        Harness h(mc);
    };
    EXPECT_DEATH(build([](ModelConfig &mc) { mc.rack.coalesce = true; }),
                 "rejects rack.coalesce");
    EXPECT_DEATH(
        build([](ModelConfig &mc) { mc.rack.shared_volume = true; }),
        "rejects rack.shared_volume");
    EXPECT_DEATH(
        build([](ModelConfig &mc) { mc.rack.replication = true; }),
        "rejects rack.replication");
    EXPECT_DEATH(
        build([](ModelConfig &mc) { mc.rack.resteer_ratio = 2.0; }),
        "rejects rack.resteer_ratio");
    EXPECT_DEATH(build([](ModelConfig &mc) { mc.rack.failback = true; }),
                 "rejects rack.failback");
    EXPECT_DEATH(
        build([](ModelConfig &mc) { mc.rack.qos.enabled = true; }),
        "rejects rack.qos");
}

TEST(Interposition, CompressionThroughRemoteDisk)
{
    // Transparent storage compression running at the I/O hypervisor:
    // guests read back exactly what they wrote, and the service saw
    // real reduction on compressible data.
    static std::vector<std::unique_ptr<interpose::Chain>> chains;
    chains.clear();
    interpose::CompressionService *svc = nullptr;
    ModelConfig mc = basicConfig(ModelKind::Vrio);
    mc.with_block = true;
    mc.chain_factory = [&svc](uint32_t, bool is_block)
        -> interpose::Chain * {
        if (!is_block)
            return nullptr;
        auto service = std::make_unique<interpose::CompressionService>();
        svc = service.get();
        auto chain = std::make_unique<interpose::Chain>();
        chain->append(std::move(service));
        chains.push_back(std::move(chain));
        return chains.back().get();
    };
    Harness h(mc);
    auto &guest = h.model->guest(0);

    Bytes compressible(8192, 0x00);
    Bytes noisy(8192);
    for (size_t i = 0; i < noisy.size(); ++i)
        noisy[i] = uint8_t(i * 197 + 31);

    for (auto *data : {&compressible, &noisy}) {
        uint64_t sector = data == &compressible ? 0 : 64;
        bool ok = false;
        guest.submitBlock(
            {virtio::BlkType::Out, sector, 16, *data},
            [&](virtio::BlkStatus s, Bytes) {
                ok = s == virtio::BlkStatus::Ok;
            });
        h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
        ASSERT_TRUE(ok);
        Bytes got;
        guest.submitBlock({virtio::BlkType::In, sector, 16, {}},
                          [&](virtio::BlkStatus s, Bytes d) {
                              EXPECT_EQ(s, virtio::BlkStatus::Ok);
                              got = std::move(d);
                          });
        h.sim.runUntil(h.sim.now() + 100 * kMillisecond);
        EXPECT_EQ(got, *data);
    }
    ASSERT_NE(svc, nullptr);
    EXPECT_GE(svc->blocksCompressed(), 1u);
    EXPECT_GE(svc->blocksStoredRaw(), 1u);
    EXPECT_GT(svc->ratio(), 1.2);
}

TEST(Interposition, SdnRewriteRedirectsEgress)
{
    // An SDN service at the I/O hypervisor rewrites a virtual
    // destination MAC to a real one; the frame must leave the IOhost
    // with the rewritten header and reach the real endpoint.
    static std::vector<std::unique_ptr<interpose::Chain>> chains;
    chains.clear();
    interpose::SdnRewriteService *svc = nullptr;
    ModelConfig mc = basicConfig(ModelKind::Vrio);
    mc.chain_factory = [&svc](uint32_t, bool is_block)
        -> interpose::Chain * {
        if (is_block)
            return nullptr;
        auto service = std::make_unique<interpose::SdnRewriteService>();
        svc = service.get();
        auto chain = std::make_unique<interpose::Chain>();
        chain->append(std::move(service));
        chains.push_back(std::move(chain));
        return chains.back().get();
    };
    Harness h(mc);
    auto &gen = h.rack->generator(0);
    unsigned session = gen.newSession();
    auto &guest = h.model->guest(0);

    // The guest sends to a "virtual service address"; SDN maps it to
    // the generator's real session MAC.
    auto virtual_mac = net::MacAddress::local(0x999);
    ASSERT_NE(svc, nullptr);
    svc->mapAddress(virtual_mac, gen.sessionMac(session));

    int delivered = 0;
    gen.setHandler(session,
                   [&](Bytes, net::MacAddress, uint64_t) { ++delivered; });
    guest.sendNet(virtual_mac, Bytes(32, 0x77));
    h.sim.runUntil(h.sim.now() + 20 * kMillisecond);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(svc->rewrites(), 1u);
}

// --- live migration (Section 4.6 extension) ------------------------------

TEST(Migration, ClientMovesAndTrafficContinues)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio, 2);
    mc.num_vmhosts = 2;
    mc.spare_client_slots = 1;
    Harness h(mc);
    auto &vm = static_cast<VrioModel &>(*h.model);
    auto &gen = h.rack->generator(0);
    unsigned session = gen.newSession();
    auto &guest = h.model->guest(0);

    int completed = 0;
    guest.setNetHandler([&guest](Bytes, net::MacAddress src, uint64_t) {
        guest.sendNet(src, Bytes(1, 1));
    });
    gen.setHandler(session, [&](Bytes, net::MacAddress, uint64_t) {
        ++completed;
        gen.send(session, guest.mac(), Bytes(1, 1));
    });
    gen.send(session, guest.mac(), Bytes(1, 1));
    h.sim.runUntil(h.sim.now() + 50 * kMillisecond);
    int before = completed;
    ASSERT_GT(before, 100);
    ASSERT_EQ(vm.clientHost(0), 0u);

    // Migrate VM 0 from host 0 to host 1 while idle-ish; the RR loop
    // must keep running through the new VF and the IOhost must route
    // responses to the new port.
    vm.migrateClient(0, 1);
    EXPECT_EQ(vm.clientHost(0), 1u);
    h.sim.runUntil(h.sim.now() + 50 * kMillisecond);
    EXPECT_GT(completed, before + 100);
}

TEST(Migration, BlockIoSurvivesViaRetransmission)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio, 1);
    mc.num_vmhosts = 2;
    mc.spare_client_slots = 1;
    mc.with_block = true;
    Harness h(mc);
    auto &vm = static_cast<VrioModel &>(*h.model);
    auto &guest = h.model->guest(0);

    // Kick off a stream of writes, migrate mid-flight; requests whose
    // responses were routed to the stale port are recovered by the
    // retransmission machinery.
    int completed = 0, failed = 0;
    std::function<void(int)> write_next = [&](int i) {
        if (i >= 40)
            return;
        Bytes data(4096, uint8_t(i));
        guest.submitBlock(
            {virtio::BlkType::Out, uint64_t(i) * 8, 8, data},
            [&, i](virtio::BlkStatus s, Bytes) {
                s == virtio::BlkStatus::Ok ? ++completed : ++failed;
                write_next(i + 1);
            });
    };
    write_next(0);
    h.sim.runUntil(h.sim.now() + 200 * kMicrosecond);
    vm.migrateClient(0, 1);
    h.sim.runUntil(h.sim.now() + 5 * kSecond);
    EXPECT_EQ(completed, 40);
    EXPECT_EQ(failed, 0);

    // Data written before and after the move is intact.
    Bytes got;
    guest.submitBlock({virtio::BlkType::In, 0, 8, {}},
                      [&](virtio::BlkStatus s, Bytes d) {
                          EXPECT_EQ(s, virtio::BlkStatus::Ok);
                          got = std::move(d);
                      });
    h.sim.runUntil(h.sim.now() + kSecond);
    EXPECT_EQ(got, Bytes(4096, 0));
}

TEST(Migration, NoSpareSlotPanics)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio, 2);
    mc.num_vmhosts = 2;
    Harness h(mc);
    auto &vm = static_cast<VrioModel &>(*h.model);
    EXPECT_DEATH(vm.migrateClient(0, 1), "spare");
}

TEST(Migration, RoundTripReturnsHome)
{
    ModelConfig mc = basicConfig(ModelKind::Vrio, 1);
    mc.num_vmhosts = 2;
    mc.spare_client_slots = 1;
    Harness h(mc);
    auto &vm = static_cast<VrioModel &>(*h.model);
    vm.migrateClient(0, 1);
    EXPECT_EQ(vm.clientHost(0), 1u);
    vm.migrateClient(0, 0);
    EXPECT_EQ(vm.clientHost(0), 0u);
    // The freed slot on host 1 is reusable.
    vm.migrateClient(0, 1);
    EXPECT_EQ(vm.clientHost(0), 1u);
}

// --- heterogeneity -------------------------------------------------------

TEST(Heterogeneity, MixedClientKindsShareTheIohost)
{
    // Section 5: the IOhost serves KVM guests, ESXi guests, and
    // bare-metal OSes alike — the channel is just Ethernet.  Our
    // ClientKind is advisory metadata; verify I/O flows for a rack
    // mixing kinds (the model wiring is identical by construction).
    ModelConfig mc = basicConfig(ModelKind::Vrio, 3);
    Harness h(mc);
    auto &gen = h.rack->generator(0);
    int got = 0;
    for (unsigned v = 0; v < 3; ++v) {
        unsigned session = gen.newSession();
        auto &guest = h.model->guest(v);
        guest.setNetHandler([&guest](Bytes, net::MacAddress src, uint64_t) {
            guest.sendNet(src, Bytes(1, 1));
        });
        gen.setHandler(session,
                       [&got](Bytes, net::MacAddress, uint64_t) { ++got; });
        gen.send(session, guest.mac(), Bytes(1, 1));
    }
    h.sim.runUntil(h.sim.now() + 50 * kMillisecond);
    EXPECT_EQ(got, 3);
}

} // namespace
} // namespace vrio::models
