#include "models/optimum.hpp"

#include "models/jitter.hpp"

#include "util/logging.hpp"
#include "util/strutil.hpp"

namespace vrio::models {

/** Per-VM SRIOV+ELI endpoint. */
class OptimumModel::Endpoint : public GuestEndpoint
{
  public:
    Endpoint(OptimumModel &model, sim::Simulation &sim, hv::Core &vcpu,
             net::Nic &nic, unsigned vf, net::MacAddress f_mac,
             std::string name)
        : model(model), nic(nic), vf(vf), f_mac(f_mac),
          vm_(sim, std::move(name), vcpu)
    {
        nic.setQueueMac(vf, f_mac);
        nic.setRxHandler(vf, [this](unsigned q) { rxInterrupt(q); });
    }

    hv::Vm &vm() override { return vm_; }
    net::MacAddress mac() const override { return f_mac; }

    void
    sendNet(net::MacAddress dst, Bytes payload, uint64_t pad,
            uint64_t messages) override
    {
        (void)messages;
        const CostParams &c = model.config().costs;
        net::EtherHeader eh;
        eh.dst = dst;
        eh.src = f_mac;
        eh.ether_type = uint16_t(net::EtherType::Raw);
        auto frame = net::makeFrame(eh, payload, pad);
        vm_.vcpu().runPreempt(c.guest_net_tx, [this, frame = std::move(frame),
                                        &c]() mutable {
            nic.send(vf, std::move(frame));
            // ELI TX-completion interrupt, straight to the guest.
            vm_.events().record(hv::IoEvent::GuestInterrupt);
            vm_.vcpu().runPreempt(c.guest_irq, []() {});
        });
    }

    void setNetHandler(NetHandler h) override { handler = std::move(h); }

    bool hasBlockDevice() const override { return false; }
    uint64_t blockCapacitySectors() const override { return 0; }

    void
    submitBlock(block::BlockRequest, block::BlockCallback) override
    {
        // "We do not benchmark the optimum setup, because there is no
        // such thing as an SRIOV ramdisk" (Section 5).
        vrio_panic("the optimum (SRIOV) model has no paravirtual block "
                   "device");
    }

  private:
    OptimumModel &model;
    net::Nic &nic;
    unsigned vf;
    net::MacAddress f_mac;
    hv::Vm vm_;
    NetHandler handler;
    /** Frames taken per interrupt (reused: no allocation per IRQ). */
    std::vector<net::FramePtr> rx_batch;

    void
    rxInterrupt(unsigned q)
    {
        const CostParams &c = model.config().costs;
        // One (possibly coalesced) ELI interrupt.
        vm_.events().record(hv::IoEvent::GuestInterrupt);
        nic.rxTake(q, 64, rx_batch);
        vm_.vcpu().run(c.guest_irq, []() {});
        for (auto &frame : rx_batch) {
            net::EtherHeader eh = frame->ether();
            Bytes payload(frame->bytes.begin() + net::kEtherHeaderSize,
                          frame->bytes.end());
            uint64_t pad = frame->pad;
            auto &rng = vm_.sim().random();
            double cycles = c.guest_net_rx +
                            stallCycles(rng, c.guest_jitter, c.guest_ghz) +
                            stallCycles(rng, c.guest_stall, c.guest_ghz);
            vm_.vcpu().run(cycles,
                           [this, payload = std::move(payload),
                            src = eh.src, pad]() mutable {
                               if (handler)
                                   handler(std::move(payload), src, pad);
                           });
        }
        rx_batch.clear();
    }
};

OptimumModel::OptimumModel(Rack &rack, ModelConfig cfg)
    : IoModel(rack, cfg)
{
    vrio_assert(cfg.num_vmhosts >= 1, "need at least one VMhost");
    auto &sim = rack.sim();

    for (unsigned h = 0; h < cfg.num_vmhosts; ++h) {
        unsigned vms_here =
            (cfg.num_vms + cfg.num_vmhosts - 1 - h) / cfg.num_vmhosts;
        if (vms_here == 0)
            vms_here = 1; // keep machines well-formed

        Host host;
        hv::MachineConfig mc;
        mc.cores = vms_here; // the optimum uses N cores for N VMs
        mc.ghz = cfg.costs.guest_ghz;
        host.machine = std::make_unique<hv::Machine>(
            sim, strFormat("opt.host%u", h), mc);

        net::NicConfig nc;
        nc.gbps = rack.config().link_gbps;
        nc.num_queues = vms_here;
        // Logical frames up to 64KB ride the wire whole (TSO-class
        // behaviour folded into the link model).
        nc.mtu = 64 * 1024;
        nc.intr_coalesce_delay = sim::Tick(600) * sim::kNanosecond;
        nc.intr_coalesce_frames = 8;
        host.nic = std::make_unique<net::Nic>(
            sim, strFormat("opt.host%u.nic", h), nc);
        rack.connectToSwitch(strFormat("opt.host%u.link", h),
                             host.nic->port());
        hosts.push_back(std::move(host));
    }

    for (unsigned v = 0; v < cfg.num_vms; ++v) {
        unsigned h = v % cfg.num_vmhosts;
        unsigned slot = v / cfg.num_vmhosts;
        endpoints.push_back(std::make_unique<Endpoint>(
            *this, sim, hosts[h].machine->core(slot), *hosts[h].nic, slot,
            net::MacAddress::local(0x100000 + v),
            strFormat("opt.vm%u", v)));
    }
}

OptimumModel::~OptimumModel() = default;

GuestEndpoint &
OptimumModel::guest(unsigned vm_index)
{
    vrio_assert(vm_index < endpoints.size(), "bad VM ", vm_index);
    return *endpoints[vm_index];
}

const hv::Vm &
OptimumModel::vmAt(unsigned vm_index) const
{
    vrio_assert(vm_index < endpoints.size(), "bad VM ", vm_index);
    return const_cast<Endpoint &>(*endpoints[vm_index]).vm();
}

} // namespace vrio::models
