#include "models/elvis.hpp"

#include "models/jitter.hpp"

#include "util/logging.hpp"
#include "util/strutil.hpp"

namespace vrio::models {

/** Per-VM Elvis endpoint. */
class ElvisModel::Endpoint : public GuestEndpoint
{
  public:
    Endpoint(ElvisModel &model, unsigned host_index, unsigned vm_index,
             unsigned sidecore_slot, sim::Simulation &sim, hv::Core &vcpu,
             net::MacAddress f_mac, std::string name)
        : model(model), host_index(host_index), vm_index(vm_index),
          sidecore_slot(sidecore_slot), f_mac(f_mac),
          vm_(sim, std::move(name), vcpu), netdev(vm_)
    {
        const ModelConfig &cfg = model.config();
        if (cfg.chain_factory) {
            net_chain = cfg.chain_factory(device_id(), false);
            blk_chain = cfg.chain_factory(device_id(), true);
        }
    }

    void
    attachDisk(std::unique_ptr<block::BlockDevice> d)
    {
        disk = std::move(d);
        sched = std::make_unique<block::DiskScheduler>(
            [this](block::BlockRequest req, block::BlockCallback done) {
                dispatchBlock(std::move(req), std::move(done));
            });
    }

    uint32_t device_id() const { return 0x0e00 + vm_index; }
    unsigned sidecoreSlot() const { return sidecore_slot; }
    unsigned vmIndex() const { return vm_index; }

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
        // No exit: the guest just posts to the shared-memory ring;
        // the sidecore notices by polling.
        vm_.vcpu().runPreempt(c.guest_net_tx, [this, eh,
                                        payload = std::move(payload),
                                        pad]() mutable {
            if (!netdev.guestTransmit(eh, payload, pad)) {
                ++tx_ring_full;
                return;
            }
            model.notifyTx(host_index, this);
        });
    }

    void setNetHandler(NetHandler h) override { handler = std::move(h); }

    bool hasBlockDevice() const override { return disk != nullptr; }

    uint64_t
    blockCapacitySectors() const override
    {
        return disk ? disk->capacitySectors() : 0;
    }

    void
    submitBlock(block::BlockRequest req, block::BlockCallback done) override
    {
        vrio_assert(sched, "no block device attached");
        sched->submit(std::move(req), std::move(done));
    }

    // -- sidecore-side paths (invoked by the model) --------------------

    /**
     * Drain this VM's TX ring on its sidecore.
     * @return frames handed to the NIC.
     */
    unsigned
    sidecoreDrainTx()
    {
        const CostParams &c = model.config().costs;
        hv::Core &sc =
            model.sidecore(host_index, sidecore_slot);
        unsigned sent = 0;
        while (auto pkt = netdev.hostPopTx()) {
            ++sent;
            size_t bytes = pkt->frame.size() + pkt->pad;
            auto &rng = vm_.sim().random();
            double cycles = c.elvis_ring + c.elvis_backend_net +
                            c.elvis_per_byte * double(bytes) +
                            stallCycles(rng, c.elvis_stall, c.guest_ghz) +
                            stallCycles(rng, c.elvis_big_stall,
                                        c.guest_ghz);
            if (net_chain)
                cycles += net_chain->cycleCost(bytes);
            sc.run(cycles, [this, pkt = std::move(*pkt)]() mutable {
                bool forward = true;
                if (net_chain) {
                    auto ctx = netContext(
                        interpose::Direction::FromClient, pkt.frame);
                    double cc = 0;
                    forward = net_chain->run(ctx, pkt.frame, cc);
                }
                if (forward) {
                    auto out = std::make_shared<net::Frame>();
                    out->bytes = std::move(pkt.frame);
                    out->pad = pkt.pad;
                    model.hostNic(host_index).send(0, std::move(out));
                    // TX-done physical interrupt, handled on the
                    // sidecore (the cost vRIO's IOhost polling avoids).
                    vm_.events().record(hv::IoEvent::HostInterrupt);
                    model.sidecore(host_index, sidecore_slot)
                        .runPreempt(model.config().costs.elvis_host_irq +
                                 model.config().costs.elvis_irq_frame,
                             []() {});
                }
                netdev.hostCompleteTx(pkt.head);
                // Exitless IPI: TX-completion interrupt to the guest.
                ipiToGuest([this]() { netdev.guestReapTx(); });
            });
        }
        return sent;
    }

    /** Deliver a received frame through the sidecore. */
    void
    sidecoreDeliver(const net::FramePtr &frame)
    {
        const CostParams &c = model.config().costs;
        hv::Core &sc = model.sidecore(host_index, sidecore_slot);
        size_t bytes = frame->bytes.size() + frame->pad;
        auto &rng = vm_.sim().random();
        double cycles = c.elvis_ring + c.elvis_backend_net +
                        c.elvis_per_byte * double(bytes) +
                        stallCycles(rng, c.elvis_stall, c.guest_ghz) +
                        stallCycles(rng, c.elvis_big_stall, c.guest_ghz);
        if (net_chain)
            cycles += net_chain->cycleCost(bytes);
        sc.run(cycles, [this, frame]() {
            Bytes payload = frame->bytes;
            if (net_chain) {
                auto ctx =
                    netContext(interpose::Direction::ToClient, payload);
                double cc = 0;
                if (!net_chain->run(ctx, payload, cc))
                    return;
            }
            if (!netdev.hostDeliverRx(payload, frame->pad))
                return;
            ipiToGuest([this]() { guestReceive(); });
        });
    }

    VirtioNetDev &dev() { return netdev; }
    uint64_t txRingFull() const { return tx_ring_full; }

  private:
    ElvisModel &model;
    unsigned host_index;
    unsigned vm_index;
    unsigned sidecore_slot;
    net::MacAddress f_mac;
    hv::Vm vm_;
    VirtioNetDev netdev;
    VirtioBlkDev blkdev{vm_};
    std::map<uint16_t, block::BlockCallback> blk_pending;
    NetHandler handler;
    uint64_t tx_ring_full = 0;

    std::unique_ptr<block::BlockDevice> disk;
    std::unique_ptr<block::DiskScheduler> sched;
    interpose::Chain *net_chain = nullptr;
    interpose::Chain *blk_chain = nullptr;

    interpose::IoContext
    netContext(interpose::Direction dir, const Bytes &l2_frame)
    {
        interpose::IoContext ctx;
        ctx.dir = dir;
        ctx.device_id = device_id();
        ctx.is_block = false;
        if (l2_frame.size() >= net::kEtherHeaderSize) {
            ByteReader r(l2_frame);
            auto eh = net::EtherHeader::decode(r);
            ctx.src = eh.src;
            ctx.dst = eh.dst;
            ctx.ether_type = eh.ether_type;
        }
        return ctx;
    }

    /** Exitless IPI into the guest: IRQ cost, then @p body. */
    void
    ipiToGuest(std::function<void()> body)
    {
        const CostParams &c = model.config().costs;
        model.sidecore(host_index, sidecore_slot).runPreempt(c.ipi, []() {});
        vm_.events().record(hv::IoEvent::GuestInterrupt);
        vm_.vcpu().run(c.guest_irq, std::move(body));
    }

    void
    guestReceive()
    {
        const CostParams &c = model.config().costs;
        while (auto pkt = netdev.guestReapRx()) {
            if (pkt->frame.size() < net::kEtherHeaderSize)
                continue;
            net::EtherHeader eh;
            {
                ByteReader r(pkt->frame);
                eh = net::EtherHeader::decode(r);
            }
            Bytes payload(pkt->frame.begin() + net::kEtherHeaderSize,
                          pkt->frame.end());
            uint64_t pad = pkt->pad;
            double cycles = c.guest_net_rx +
                            stallCycles(vm_.sim().random(),
                                        c.guest_jitter, c.guest_ghz);
            vm_.vcpu().runPreempt(cycles,
                           [this, payload = std::move(payload),
                            src = eh.src, pad]() mutable {
                               if (handler)
                                   handler(std::move(payload), src, pad);
                           });
        }
    }

    /**
     * Block path over a real virtio-blk ring: the guest posts without
     * exiting; the sidecore notices by polling, runs interposition and
     * the local device, scatters status+data back and IPIs the guest.
     */
    void
    dispatchBlock(block::BlockRequest req, block::BlockCallback done)
    {
        const CostParams &c = model.config().costs;
        vm_.vcpu().runPreempt(c.guest_blk_submit,
                       [this, &c, req = std::move(req),
                        done = std::move(done)]() mutable {
                           auto head = blkdev.guestSubmit(req);
                           if (!head) {
                               done(virtio::BlkStatus::IoErr, {});
                               return;
                           }
                           blk_pending[*head] = std::move(done);
                           model.rack().sim().events().schedule(
                               c.elvis_poll_pickup,
                               [this]() { sidecorePumpBlk(); });
                       });
    }

    /** Sidecore: drain this VM's block ring. */
    void
    sidecorePumpBlk()
    {
        const CostParams &c = model.config().costs;
        auto hreq = blkdev.hostPop();
        if (!hreq)
            return;
        size_t bytes =
            std::max<size_t>(hreq->data.size(), hreq->read_len);
        double cycles = c.elvis_ring + c.elvis_backend_blk +
                        c.elvis_per_byte * double(bytes);
        if (blk_chain)
            cycles += blk_chain->cycleCost(bytes);

        model.sidecore(host_index, sidecore_slot)
            .runPreempt(cycles, [this, hreq = std::move(*hreq)]() mutable {
                sidecoreExecBlock(std::move(hreq));
                sidecorePumpBlk();
            });
    }

    void
    sidecoreExecBlock(VirtioBlkDev::HostRequest hreq)
    {
        if (blk_chain && hreq.hdr.type == virtio::BlkType::Out) {
            interpose::IoContext ctx;
            ctx.dir = interpose::Direction::FromClient;
            ctx.device_id = device_id();
            ctx.is_block = true;
            ctx.sector = hreq.hdr.sector;
            double cc = 0;
            if (!blk_chain->run(ctx, hreq.data, cc)) {
                completeBlock(hreq.head, virtio::BlkStatus::IoErr, {});
                return;
            }
        }
        block::BlockRequest breq;
        breq.kind = hreq.hdr.type;
        breq.sector = hreq.hdr.sector;
        if (hreq.hdr.type == virtio::BlkType::Out) {
            breq.nsectors =
                uint32_t(hreq.data.size() / virtio::kSectorSize);
            breq.data = std::move(hreq.data);
        } else if (hreq.hdr.type == virtio::BlkType::In) {
            breq.nsectors = hreq.read_len / virtio::kSectorSize;
        }
        uint64_t sector = hreq.hdr.sector;
        uint16_t head = hreq.head;
        disk->submit(std::move(breq),
                     [this, sector, head](virtio::BlkStatus status,
                                          Bytes data) mutable {
                         if (blk_chain &&
                             status == virtio::BlkStatus::Ok &&
                             !data.empty()) {
                             interpose::IoContext ctx;
                             ctx.dir = interpose::Direction::ToClient;
                             ctx.device_id = device_id();
                             ctx.is_block = true;
                             ctx.sector = sector;
                             double cc = 0;
                             if (!blk_chain->run(ctx, data, cc)) {
                                 status = virtio::BlkStatus::IoErr;
                                 data.clear();
                             }
                         }
                         completeBlock(head, status, std::move(data));
                     });
    }

    void
    completeBlock(uint16_t head, virtio::BlkStatus status, Bytes data)
    {
        const CostParams &c = model.config().costs;
        // Completion-side sidecore work, then the exitless IPI.
        hv::Core &sc = model.sidecore(host_index, sidecore_slot);
        sc.run(c.elvis_ring + c.ipi, [this, &c, head, status,
                                      data = std::move(data)]() mutable {
            blkdev.hostComplete(head, status, data);
            vm_.events().record(hv::IoEvent::GuestInterrupt);
            double cycles = c.guest_irq + c.guest_blk_complete;
            if (vm_.vcpu().resource().busyServers() > 0) {
                vm_.noteContextSwitch();
                cycles += c.guest_ctx_switch;
            }
            vm_.vcpu().run(cycles, [this]() {
                while (auto comp = blkdev.guestReap()) {
                    auto it = blk_pending.find(comp->head);
                    vrio_assert(it != blk_pending.end(),
                                "completion without a pending request");
                    auto cb = std::move(it->second);
                    blk_pending.erase(it);
                    cb(comp->status, std::move(comp->data));
                }
            });
        });
    }
};

ElvisModel::ElvisModel(Rack &rack, ModelConfig cfg) : IoModel(rack, cfg)
{
    auto &sim = rack.sim();
    for (unsigned h = 0; h < cfg.num_vmhosts; ++h) {
        unsigned vms_here =
            (cfg.num_vms + cfg.num_vmhosts - 1 - h) / cfg.num_vmhosts;
        if (vms_here == 0)
            vms_here = 1;

        Host host;
        hv::MachineConfig mc;
        mc.cores = vms_here + cfg.sidecores;
        mc.ghz = cfg.costs.guest_ghz;
        host.machine = std::make_unique<hv::Machine>(
            sim, strFormat("elvis.host%u", h), mc);
        host.first_sidecore = vms_here;
        host.num_sidecores = cfg.sidecores;
        host.tx_pending.resize(cfg.sidecores);
        host.pump_scheduled.resize(cfg.sidecores, false);

        net::NicConfig nc;
        nc.gbps = rack.config().link_gbps;
        nc.num_queues = cfg.sidecores;
        nc.mtu = 64 * 1024;
        nc.intr_coalesce_delay = sim::Tick(600) * sim::kNanosecond;
        nc.intr_coalesce_frames = 8;
        host.nic = std::make_unique<net::Nic>(
            sim, strFormat("elvis.host%u.nic", h), nc);
        for (unsigned q = 0; q < cfg.sidecores; ++q) {
            host.nic->setRxHandler(q, [this, h](unsigned queue) {
                nicRxInterrupt(h, queue);
            });
        }
        rack.connectToSwitch(strFormat("elvis.host%u.link", h),
                             host.nic->port());
        hosts.push_back(std::move(host));
    }

    for (unsigned v = 0; v < cfg.num_vms; ++v) {
        unsigned h = v % cfg.num_vmhosts;
        unsigned slot = v / cfg.num_vmhosts;
        unsigned s = slot % cfg.sidecores;
        auto mac = net::MacAddress::local(0x300000 + v);
        auto ep = std::make_unique<Endpoint>(
            *this, h, v, s, sim, hosts[h].machine->core(slot), mac,
            strFormat("elvis.vm%u", v));
        hosts[h].nic->addQueueMac(s, mac);
        if (cfg.with_block) {
            if (cfg.block_use_ssd) {
                ep->attachDisk(std::make_unique<block::SsdModel>(
                    sim, strFormat("elvis.vm%u.ssd", v), cfg.ssd_cfg));
            } else {
                ep->attachDisk(std::make_unique<block::RamDisk>(
                    sim, strFormat("elvis.vm%u.rd", v), cfg.ramdisk_cfg));
            }
        }
        hosts[h].vms.push_back(ep.get());
        endpoints.push_back(std::move(ep));
    }
}

ElvisModel::~ElvisModel() = default;

hv::Core &
ElvisModel::sidecore(unsigned host, unsigned s)
{
    Host &hst = hosts[host];
    vrio_assert(s < hst.num_sidecores, "bad sidecore slot ", s);
    return hst.machine->core(hst.first_sidecore + s);
}

net::Nic &
ElvisModel::hostNic(unsigned host)
{
    return *hosts[host].nic;
}

void
ElvisModel::notifyTx(unsigned host, Endpoint *ep)
{
    Host &hst = hosts[host];
    unsigned s = ep->sidecoreSlot();
    hst.tx_pending[s].emplace(ep->vmIndex(), ep);
    if (!hst.pump_scheduled[s]) {
        hst.pump_scheduled[s] = true;
        rack_.sim().events().schedule(cfg_.costs.elvis_poll_pickup,
                                      [this, host, s]() {
                                          pumpSidecore(host, s);
                                      });
    }
}

void
ElvisModel::pumpSidecore(unsigned host, unsigned s)
{
    Host &hst = hosts[host];
    hst.pump_scheduled[s] = false;
    auto pending = std::move(hst.tx_pending[s]);
    hst.tx_pending[s].clear();
    for (auto &[vm_index, ep] : pending)
        ep->sidecoreDrainTx();
}

void
ElvisModel::nicRxInterrupt(unsigned host, unsigned queue)
{
    std::vector<net::FramePtr> &frames = hosts[host].rx_batch;
    if (hosts[host].nic->rxTake(queue, 64, frames) == 0)
        return;
    // The physical RX interrupt lands on the sidecore owning the
    // queue.  The per-interrupt entry cost amortizes when moderation
    // coalesces arrivals, but the per-frame IRQ-context work (softirq,
    // cache/TLB pollution) does not — the paper's observation that
    // "the cost of interrupts is substantial despite [...] interrupt
    // coalescing".
    sidecore(host, queue).run(cfg_.costs.elvis_host_irq, []() {});
    for (auto &frame : frames) {
        net::EtherHeader eh = frame->ether();
        if (Endpoint *ep = endpointByMac(host, eh.dst)) {
            ep->vm().events().record(hv::IoEvent::HostInterrupt);
            sidecore(host, queue).run(cfg_.costs.elvis_irq_frame, []() {});
            ep->sidecoreDeliver(frame);
        }
    }
    frames.clear();
}

ElvisModel::Endpoint *
ElvisModel::endpointByMac(unsigned host, net::MacAddress mac)
{
    for (Endpoint *ep : hosts[host].vms) {
        if (ep->mac() == mac)
            return ep;
    }
    return nullptr;
}

GuestEndpoint &
ElvisModel::guest(unsigned vm_index)
{
    vrio_assert(vm_index < endpoints.size(), "bad VM ", vm_index);
    return *endpoints[vm_index];
}

const hv::Vm &
ElvisModel::vmAt(unsigned vm_index) const
{
    vrio_assert(vm_index < endpoints.size(), "bad VM ", vm_index);
    return const_cast<Endpoint &>(*endpoints[vm_index]).vm();
}

std::vector<const sim::Resource *>
ElvisModel::ioResources() const
{
    std::vector<const sim::Resource *> out;
    for (const auto &host : hosts) {
        for (unsigned s = 0; s < host.num_sidecores; ++s) {
            out.push_back(&host.machine
                               ->core(host.first_sidecore + s)
                               .resource());
        }
    }
    return out;
}

} // namespace vrio::models
