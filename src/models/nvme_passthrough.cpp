#include "models/nvme_passthrough.hpp"

#include "models/jitter.hpp"

#include "util/logging.hpp"
#include "util/strutil.hpp"

namespace vrio::models {

/**
 * Per-VM endpoint: SRIOV+ELI networking (identical to the optimum)
 * plus a privately owned NVMe queue pair in guest memory.
 */
class NvmePassthroughModel::Endpoint : public GuestEndpoint
{
  public:
    Endpoint(NvmePassthroughModel &model, sim::Simulation &sim,
             hv::Core &vcpu, net::Nic &nic, unsigned vf,
             net::MacAddress f_mac, nvme::Controller *ctrl,
             uint64_t ns_sectors, std::string name)
        : model(model), nic(nic), vf(vf), f_mac(f_mac),
          vm_(sim, std::move(name), vcpu)
    {
        nic.setQueueMac(vf, f_mac);
        nic.setRxHandler(vf, [this](unsigned q) { rxInterrupt(q); });

        if (!ctrl)
            return;
        // Boot-time admin mediation (the only hypervisor involvement
        // in this model): namespace attach, then CQ + SQ creation.
        // Each mediated call costs the guest one synchronous exit.
        nsid = ctrl->addNamespace(ns_sectors);
        vm_.events().record(hv::IoEvent::SyncExit);
        vm_.events().record(hv::IoEvent::AdminCommand);
        qp = std::make_unique<nvme::QueuePairDriver>(
            *ctrl, vm_.memory(), model.config().nvme_queue_depth,
            [this]() { completionInterrupt(); });
        vm_.events().record(hv::IoEvent::SyncExit);
        vm_.events().record(hv::IoEvent::AdminCommand, 2);
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
        vm_.vcpu().runPreempt(
            c.guest_net_tx, [this, frame = std::move(frame), &c]() mutable {
                nic.send(vf, std::move(frame));
                // ELI TX-completion interrupt, straight to the guest.
                vm_.events().record(hv::IoEvent::GuestInterrupt);
                vm_.vcpu().runPreempt(c.guest_irq, []() {});
            });
    }

    void setNetHandler(NetHandler h) override { handler = std::move(h); }

    bool hasBlockDevice() const override { return qp != nullptr; }

    uint64_t
    blockCapacitySectors() const override
    {
        return qp ? qp->controller().namespaceSectors(nsid) : 0;
    }

    void
    submitBlock(block::BlockRequest req, block::BlockCallback done) override
    {
        vrio_assert(qp, "no NVMe queue pair attached (with_block off)");
        const CostParams &c = model.config().costs;
        // Guest driver work, then the doorbell — a posted write to a
        // guest-mapped page, so no exit is charged anywhere.
        vm_.vcpu().runPreempt(
            c.guest_blk_submit,
            [this, req = std::move(req), done = std::move(done),
             &c]() mutable {
                qp->submit(
                    nsid, std::move(req),
                    [this, done = std::move(done),
                     &c](virtio::BlkStatus status, Bytes data) mutable {
                        // Completion half of the guest driver.
                        vm_.vcpu().run(
                            c.guest_blk_complete,
                            [done = std::move(done), status,
                             data = std::move(data)]() mutable {
                                done(status, std::move(data));
                            });
                    });
            });
    }

  private:
    NvmePassthroughModel &model;
    net::Nic &nic;
    unsigned vf;
    net::MacAddress f_mac;
    hv::Vm vm_;
    NetHandler handler;
    /** Frames taken per interrupt (reused: no allocation per IRQ). */
    std::vector<net::FramePtr> rx_batch;
    std::unique_ptr<nvme::QueuePairDriver> qp;
    uint32_t nsid = 0;

    void
    completionInterrupt()
    {
        // MSI-X vector delivered directly to the guest (ELI-style):
        // no exit, no injection, just the guest's interrupt handler
        // reaping the CQ.
        const CostParams &c = model.config().costs;
        vm_.events().record(hv::IoEvent::GuestInterrupt);
        vm_.vcpu().runPreempt(c.guest_irq, [this]() { qp->reap(); });
    }

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

NvmePassthroughModel::NvmePassthroughModel(Rack &rack, ModelConfig cfg)
    : IoModel(rack, cfg)
{
    vrio_assert(cfg.num_vmhosts >= 1, "need at least one VMhost");
    auto &sim = rack.sim();

    uint64_t per_vm_bytes = cfg.block_use_ssd
                                ? cfg.ssd_cfg.capacity_bytes
                                : cfg.ramdisk_cfg.capacity_bytes;
    uint64_t per_vm_sectors = per_vm_bytes / virtio::kSectorSize;

    for (unsigned h = 0; h < cfg.num_vmhosts; ++h) {
        unsigned vms_here =
            (cfg.num_vms + cfg.num_vmhosts - 1 - h) / cfg.num_vmhosts;
        if (vms_here == 0)
            vms_here = 1; // keep machines well-formed

        Host host;
        hv::MachineConfig mc;
        mc.cores = vms_here; // like the optimum: N cores for N VMs
        mc.ghz = cfg.costs.guest_ghz;
        host.machine = std::make_unique<hv::Machine>(
            sim, strFormat("nvmept.host%u", h), mc);

        net::NicConfig nc;
        nc.gbps = rack.config().link_gbps;
        nc.num_queues = vms_here;
        nc.mtu = 64 * 1024;
        nc.intr_coalesce_delay = sim::Tick(600) * sim::kNanosecond;
        nc.intr_coalesce_frames = 8;
        host.nic = std::make_unique<net::Nic>(
            sim, strFormat("nvmept.host%u.nic", h), nc);
        rack.connectToSwitch(strFormat("nvmept.host%u.link", h),
                             host.nic->port());

        if (cfg.with_block) {
            // One local device per VMhost; every VM on the host gets
            // its own namespace slice and queue pair.
            if (cfg.block_use_ssd) {
                block::SsdConfig sc = cfg.ssd_cfg;
                sc.capacity_bytes = per_vm_bytes * vms_here;
                host.backing = std::make_unique<block::SsdModel>(
                    sim, strFormat("nvmept.host%u.ssd", h), sc);
            } else {
                block::RamDiskConfig rc = cfg.ramdisk_cfg;
                rc.capacity_bytes = per_vm_bytes * vms_here;
                host.backing = std::make_unique<block::RamDisk>(
                    sim, strFormat("nvmept.host%u.rd", h), rc);
            }
            host.ctrl = std::make_unique<nvme::Controller>(
                sim, strFormat("nvmept.host%u.nvme", h), *host.backing,
                cfg.nvme_cfg);
        }
        hosts.push_back(std::move(host));
    }

    for (unsigned v = 0; v < cfg.num_vms; ++v) {
        unsigned h = v % cfg.num_vmhosts;
        unsigned slot = v / cfg.num_vmhosts;
        endpoints.push_back(std::make_unique<Endpoint>(
            *this, sim, hosts[h].machine->core(slot), *hosts[h].nic, slot,
            net::MacAddress::local(0x600000 + v), hosts[h].ctrl.get(),
            per_vm_sectors, strFormat("nvmept.vm%u", v)));
    }
}

NvmePassthroughModel::~NvmePassthroughModel() = default;

GuestEndpoint &
NvmePassthroughModel::guest(unsigned vm_index)
{
    vrio_assert(vm_index < endpoints.size(), "bad VM ", vm_index);
    return *endpoints[vm_index];
}

nvme::Controller &
NvmePassthroughModel::controller(unsigned host)
{
    vrio_assert(host < hosts.size() && hosts[host].ctrl, "no controller");
    return *hosts[host].ctrl;
}

const hv::Vm &
NvmePassthroughModel::vmAt(unsigned vm_index) const
{
    vrio_assert(vm_index < endpoints.size(), "bad VM ", vm_index);
    return const_cast<Endpoint &>(*endpoints[vm_index]).vm();
}

} // namespace vrio::models
