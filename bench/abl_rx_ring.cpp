/**
 * @file
 * Ablation: IOhost RX ring size (the Section 4.5 anecdote — 512
 * descriptors lost frames "in the wild"; 4096 eliminated the loss).
 *
 * Four VMhosts burst large encrypted writes at one worker; small
 * rings overflow, every drop costs a >=10 ms retransmission timeout.
 */
#include <cstdio>

#include "common.hpp"
#include "interpose/services.hpp"
#include "models/vrio.hpp"
#include "util/strutil.hpp"

using namespace vrio;
using models::ModelKind;

namespace {

struct RingResult
{
    uint64_t drops = 0;
    uint64_t retransmissions = 0;
    double write_latency_ms = 0;
};

RingResult
burst(size_t ring)
{
    bench::SweepOptions opt;
    std::vector<std::unique_ptr<interpose::Chain>> chains;
    opt.tweak = [&](models::ModelConfig &mc) {
        mc.num_vmhosts = 4;
        mc.with_block = true;
        mc.iohost_rx_ring = ring;
        mc.chain_factory = [&chains](uint32_t,
                                     bool is_block) -> interpose::Chain * {
            if (!is_block)
                return nullptr;
            Bytes key(32, 1);
            auto chain = std::make_unique<interpose::Chain>();
            chain->append(
                std::make_unique<interpose::EncryptionService>(key, 1.0));
            chains.push_back(std::move(chain));
            return chains.back().get();
        };
    };
    bench::Experiment exp(ModelKind::Vrio, 4, opt);
    exp.settle();

    stats::Histogram latency_ms;
    int outstanding = 0;
    for (unsigned v = 0; v < 4; ++v) {
        auto &guest = exp.model->guest(v);
        for (int i = 0; i < 24; ++i) {
            Bytes data(64 * 1024, uint8_t(i));
            sim::Tick t0 = exp.sim->now();
            ++outstanding;
            guest.submitBlock(
                {virtio::BlkType::Out, uint64_t(i) * 128, 128,
                 std::move(data)},
                [&, t0](virtio::BlkStatus, Bytes) {
                    latency_ms.add(
                        sim::ticksToMicros(exp.sim->now() - t0) / 1e3);
                    --outstanding;
                });
        }
    }
    exp.sim->runUntil(exp.sim->now() + sim::Tick(5) * sim::kSecond);

    auto &vm = static_cast<models::VrioModel &>(*exp.model);
    RingResult res;
    for (const net::Nic *nic : vm.allNics())
        res.drops += nic->rxDrops();
    for (unsigned v = 0; v < 4; ++v)
        res.retransmissions +=
            bench::clientCount(vm, v, "transport.rtq.retransmissions");
    res.write_latency_ms = latency_ms.mean();
    return res;
}

} // namespace

int
main()
{
    stats::Table table("Ablation: IOhost RX ring size under a "
                       "4-VMhost write burst");
    table.setHeader({"ring", "frames dropped", "retransmissions",
                     "mean write latency [ms]"});
    for (size_t ring : {64u, 128u, 256u, 512u, 1024u, 4096u}) {
        auto res = burst(ring);
        table.addRow({std::to_string(ring), std::to_string(res.drops),
                      std::to_string(res.retransmissions),
                      strFormat("%.2f", res.write_latency_ms)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("Section 4.5: growing the IOhost Rx ring from 512 to "
                "4096 packets eliminated in-the-wild loss; every drop "
                "costs at least one 10 ms timeout.\n");
    return 0;
}
