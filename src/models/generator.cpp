#include "models/generator.hpp"

#include "util/logging.hpp"

namespace vrio::models {

Generator::Generator(sim::Simulation &sim, std::string name,
                     const CostParams &costs, uint64_t mac_seed)
    : SimObject(sim, std::move(name)), costs(costs), mac_seed(mac_seed)
{
    hv::MachineConfig mc;
    mc.cores = 8; // two 4-core 2.93 GHz Xeon 5500s
    mc.ghz = costs.generator_ghz;
    machine = std::make_unique<hv::Machine>(sim, this->name() + ".m", mc);

    net::NicConfig nc;
    nc.gbps = 10.0;
    nc.num_queues = 8; // one RX queue per potential session
    nc.intr_coalesce_delay = sim::Tick(600) * sim::kNanosecond;
    nc.intr_coalesce_frames = 8;
    nic_ = std::make_unique<net::Nic>(sim, this->name() + ".nic", nc);
    for (unsigned q = 0; q < 8; ++q) {
        nic_->setRxHandler(q, [this](unsigned queue) {
            rxInterrupt(queue);
        });
    }
}

unsigned
Generator::newSession()
{
    vrio_assert(sessions.size() < 7,
                "generator supports at most 7 sessions (core 0 is the "
                "interrupt core)");
    Session s;
    s.mac = net::MacAddress::local(mac_seed + sessions.size());
    // Core 0 handles interrupts; sessions fill cores 1..7.
    s.core = unsigned(1 + sessions.size());
    sessions.push_back(std::move(s));
    unsigned id = unsigned(sessions.size() - 1);
    nic_->setQueueMac(id, sessions[id].mac);
    return id;
}

net::MacAddress
Generator::sessionMac(unsigned session) const
{
    vrio_assert(session < sessions.size(), "bad session ", session);
    return sessions[session].mac;
}

double
Generator::opCycles(const Session &s) const
{
    // Sessions on the second socket (CPU 1) pay the NUMA penalty:
    // their DRAM and PCIe traffic crosses the socket interconnect.
    double cycles = costs.gen_op_cycles;
    if (s.core >= costs.gen_numa_fast_cores)
        cycles *= costs.gen_numa_penalty;
    return cycles;
}

void
Generator::send(unsigned session, net::MacAddress dst, Bytes payload,
                uint64_t pad)
{
    vrio_assert(session < sessions.size(), "bad session ", session);
    Session &s = sessions[session];
    net::EtherHeader eh;
    eh.dst = dst;
    eh.src = s.mac;
    eh.ether_type = uint16_t(net::EtherType::Raw);
    auto frame = net::makeFrame(eh, payload, pad);
    machine->core(s.core).runPreempt(opCycles(s),
                              [this, session, frame = std::move(frame)]()
                                  mutable {
                                  nic_->send(session, std::move(frame));
                              });
}

void
Generator::setHandler(unsigned session, GenHandler handler)
{
    vrio_assert(session < sessions.size(), "bad session ", session);
    sessions[session].handler = std::move(handler);
}

void
Generator::rxInterrupt(unsigned queue)
{
    // IRQ work happens on core 0 (the designated interrupt core);
    // the per-op receive processing then runs on the session core.
    if (nic_->rxTake(queue, 64, rx_batch) == 0 ||
        queue >= sessions.size()) {
        rx_batch.clear();
        return;
    }
    Session &s = sessions[queue];
    machine->core(0).run(1500, []() {});
    for (auto &frame : rx_batch) {
        net::EtherHeader eh = frame->ether();
        Bytes payload(frame->bytes.begin() + net::kEtherHeaderSize,
                      frame->bytes.end());
        uint64_t pad = frame->pad;
        machine->core(s.core).run(
            opCycles(s),
            [&s, payload = std::move(payload), src = eh.src, pad]() mutable {
                if (s.handler)
                    s.handler(std::move(payload), src, pad);
            });
    }
    rx_batch.clear();
}

} // namespace vrio::models
