#include "models/baseline.hpp"

#include "models/jitter.hpp"

#include "util/logging.hpp"
#include "util/strutil.hpp"

namespace vrio::models {

/**
 * Per-VM baseline endpoint: real virtio rings, exit-based kicks,
 * vhost processing on the host's shared I/O core, injected
 * completions with EOI traps.
 */
class BaselineModel::Endpoint : public GuestEndpoint
{
  public:
    Endpoint(BaselineModel &model, unsigned host_index, unsigned vm_index,
             sim::Simulation &sim, hv::Core &vcpu, net::MacAddress f_mac,
             std::string name)
        : model(model), host_index(host_index), vm_index(vm_index),
          f_mac(f_mac), vm_(sim, std::move(name), vcpu), netdev(vm_)
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

    uint32_t device_id() const { return 0x0b00 + vm_index; }

    hv::Vm &vm() override { return vm_; }
    net::MacAddress mac() const override { return f_mac; }

    void
    sendNet(net::MacAddress dst, Bytes payload, uint64_t pad,
            uint64_t messages) override
    {
        const CostParams &c = model.config().costs;
        net::EtherHeader eh;
        eh.dst = dst;
        eh.src = f_mac;
        eh.ether_type = uint16_t(net::EtherType::Raw);

        // Notification suppression: the guest only kicks (exits) when
        // the host is not already processing its TX ring.
        bool kick = !host_tx_active;
        // One descriptor/notification per coalesced message.
        double cycles = c.guest_net_tx + (kick ? c.exit : 0) +
                        c.baseline_msg_ring * double(messages);
        if (kick)
            vm_.events().record(hv::IoEvent::SyncExit);

        vm_.vcpu().runPreempt(cycles, [this, eh, payload = std::move(payload),
                                pad, kick, messages]() mutable {
            if (!netdev.guestTransmit(eh, payload, pad)) {
                ++tx_ring_full;
                return;
            }
            pending_msgs += messages;
            if (kick && !host_tx_active) {
                host_tx_active = true;
                vhostPumpTx();
            }
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

    // -- host-side entry points (called by the model) ------------------

    /** Deliver one frame from the host NIC into the guest. */
    void
    hostDeliver(const net::FramePtr &frame)
    {
        const CostParams &c = model.config().costs;
        hv::Core &io = model.ioCore(host_index);
        size_t bytes = frame->bytes.size() + frame->pad;
        double cycles = c.vhost_net + c.vhost_per_byte * double(bytes) +
                        stallCycles(vm_.sim().random(), c.vhost_stall,
                                    c.guest_ghz);
        if (net_chain)
            cycles += net_chain->cycleCost(bytes);

        io.run(cycles, [this, frame]() {
            Bytes payload = frame->bytes; // L2 frame
            if (net_chain) {
                auto ctx = netContext(interpose::Direction::ToClient,
                                      payload);
                double chain_cycles = 0;
                if (!net_chain->run(ctx, payload, chain_cycles))
                    return; // dropped by interposition
            }
            if (!netdev.hostDeliverRx(payload, frame->pad))
                return; // RX ring empty: drop
            injectAndReceive();
        });
    }

    VirtioNetDev &dev() { return netdev; }
    uint64_t txRingFull() const { return tx_ring_full; }

  private:
    BaselineModel &model;
    unsigned host_index;
    unsigned vm_index;
    net::MacAddress f_mac;
    hv::Vm vm_;
    VirtioNetDev netdev;
    VirtioBlkDev blkdev{vm_};
    std::map<uint16_t, block::BlockCallback> blk_pending;
    NetHandler handler;
    bool host_tx_active = false;
    uint64_t tx_ring_full = 0;
    uint64_t pending_msgs = 0;

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

    /** vhost thread: drain the TX ring on the shared I/O core. */
    void
    vhostPumpTx()
    {
        const CostParams &c = model.config().costs;
        hv::Core &io = model.ioCore(host_index);
        auto pkt = netdev.hostPopTx();
        if (!pkt) {
            host_tx_active = false;
            return;
        }
        size_t bytes = pkt->frame.size() + pkt->pad;
        // vhost touches one descriptor per coalesced message.
        uint64_t msgs = pending_msgs > 0 ? pending_msgs : 1;
        pending_msgs = 0;
        double cycles = c.vhost_net + c.vhost_per_byte * double(bytes) +
                        c.baseline_msg_vhost * double(msgs) +
                        stallCycles(vm_.sim().random(), c.vhost_stall,
                                    c.guest_ghz);
        if (net_chain)
            cycles += net_chain->cycleCost(bytes);

        io.run(cycles, [this, pkt = std::move(*pkt)]() mutable {
            bool forward = true;
            if (net_chain) {
                auto ctx = netContext(interpose::Direction::FromClient,
                                      pkt.frame);
                double chain_cycles = 0;
                forward = net_chain->run(ctx, pkt.frame, chain_cycles);
            }
            if (forward) {
                auto out = std::make_shared<net::Frame>();
                out->bytes = std::move(pkt.frame);
                out->pad = pkt.pad;
                model.hostNic(host_index).send(0, std::move(out));
                // TX-done physical interrupt on the host.
                vm_.events().record(hv::IoEvent::HostInterrupt);
                model.ioCore(host_index)
                    .runPreempt(model.config().costs.host_irq, []() {});
            }
            netdev.hostCompleteTx(pkt.head);
            txDoneToGuest();
            vhostPumpTx(); // continue draining
        });
    }

    /** Inject the TX-completion interrupt into the guest. */
    void
    txDoneToGuest()
    {
        const CostParams &c = model.config().costs;
        vm_.events().record(hv::IoEvent::Injection);
        model.ioCore(host_index).runPreempt(c.injection, [this, &c]() {
            vm_.events().record(hv::IoEvent::GuestInterrupt);
            vm_.events().record(hv::IoEvent::SyncExit); // EOI trap
            vm_.vcpu().run(c.guest_irq + c.eoi_exit,
                           [this]() { netdev.guestReapTx(); });
        });
    }

    /** Inject the RX interrupt and run the guest receive path. */
    void
    injectAndReceive()
    {
        const CostParams &c = model.config().costs;
        vm_.events().record(hv::IoEvent::Injection);
        model.ioCore(host_index).runPreempt(c.injection, [this, &c]() {
            vm_.events().record(hv::IoEvent::GuestInterrupt);
            vm_.events().record(hv::IoEvent::SyncExit); // EOI trap
            vm_.vcpu().run(c.guest_irq + c.eoi_exit, [this, &c]() {
                while (auto pkt = netdev.guestReapRx()) {
                    if (pkt->frame.size() < net::kEtherHeaderSize)
                        continue; // overflow-drop placeholder
                    net::EtherHeader eh;
                    {
                        ByteReader r(pkt->frame);
                        eh = net::EtherHeader::decode(r);
                    }
                    Bytes payload(pkt->frame.begin() +
                                      net::kEtherHeaderSize,
                                  pkt->frame.end());
                    uint64_t pad = pkt->pad;
                    double rx_cycles =
                        c.guest_net_rx +
                        stallCycles(vm_.sim().random(), c.guest_jitter,
                                    c.guest_ghz);
                    vm_.vcpu().runPreempt(
                        rx_cycles,
                        [this, payload = std::move(payload), src = eh.src,
                         pad]() mutable {
                            if (handler)
                                handler(std::move(payload), src, pad);
                        });
                }
            });
        });
    }

    /**
     * Block path over a real virtio-blk ring: exit (kick), vhost pops
     * the chain on the shared I/O core, device I/O, status+data
     * scattered back, injected completion with an EOI trap.
     */
    void
    dispatchBlock(block::BlockRequest req, block::BlockCallback done)
    {
        const CostParams &c = model.config().costs;
        vm_.events().record(hv::IoEvent::SyncExit);
        vm_.vcpu().runPreempt(c.guest_blk_submit + c.exit,
                       [this, req = std::move(req),
                        done = std::move(done)]() mutable {
                           auto head = blkdev.guestSubmit(req);
                           if (!head) {
                               done(virtio::BlkStatus::IoErr, {});
                               return;
                           }
                           blk_pending[*head] = std::move(done);
                           vhostPumpBlk();
                       });
    }

    /** vhost block thread: drain the ring on the I/O core. */
    void
    vhostPumpBlk()
    {
        const CostParams &c = model.config().costs;
        auto hreq = blkdev.hostPop();
        if (!hreq)
            return;
        // vhost copies the payload in whichever direction it moves
        // (request data for writes, device data for reads).
        size_t bytes =
            std::max<size_t>(hreq->data.size(), hreq->read_len);
        double cycles = c.vhost_blk + c.vhost_blk_per_byte * double(bytes);
        if (blk_chain)
            cycles += blk_chain->cycleCost(bytes);

        model.ioCore(host_index)
            .run(cycles, [this, hreq = std::move(*hreq)]() mutable {
                hostExecBlock(std::move(hreq));
                vhostPumpBlk();
            });
    }

    /** Run interposition + the backing device for one ring request. */
    void
    hostExecBlock(VirtioBlkDev::HostRequest hreq)
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
        blkdev.hostComplete(head, status, data);
        vm_.events().record(hv::IoEvent::Injection);
        model.ioCore(host_index).run(c.injection, [this, &c]() {
            vm_.events().record(hv::IoEvent::GuestInterrupt);
            vm_.events().record(hv::IoEvent::SyncExit); // EOI trap
            double cycles = c.guest_irq + c.eoi_exit + c.guest_blk_complete;
            // Completions that preempt a busy vCPU force an
            // involuntary context switch (the Fig. 14 effect).
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

BaselineModel::BaselineModel(Rack &rack, ModelConfig cfg)
    : IoModel(rack, cfg)
{
    auto &sim = rack.sim();
    for (unsigned h = 0; h < cfg.num_vmhosts; ++h) {
        unsigned vms_here =
            (cfg.num_vms + cfg.num_vmhosts - 1 - h) / cfg.num_vmhosts;
        if (vms_here == 0)
            vms_here = 1;

        Host host;
        hv::MachineConfig mc;
        mc.cores = vms_here + 1; // N VMs + the shared I/O core
        mc.ghz = cfg.costs.guest_ghz;
        host.machine = std::make_unique<hv::Machine>(
            sim, strFormat("base.host%u", h), mc);
        host.io_core = vms_here;

        net::NicConfig nc;
        nc.gbps = rack.config().link_gbps;
        nc.num_queues = 1;
        nc.mtu = 64 * 1024;
        nc.intr_coalesce_delay = sim::Tick(600) * sim::kNanosecond;
        nc.intr_coalesce_frames = 8;
        host.nic = std::make_unique<net::Nic>(
            sim, strFormat("base.host%u.nic", h), nc);
        host.nic->setRxHandler(0, [this, h](unsigned) {
            nicRxInterrupt(h);
        });
        rack.connectToSwitch(strFormat("base.host%u.link", h),
                             host.nic->port());
        hosts.push_back(std::move(host));
    }

    for (unsigned v = 0; v < cfg.num_vms; ++v) {
        unsigned h = v % cfg.num_vmhosts;
        unsigned slot = v / cfg.num_vmhosts;
        auto mac = net::MacAddress::local(0x200000 + v);
        auto ep = std::make_unique<Endpoint>(
            *this, h, v, sim, hosts[h].machine->core(slot), mac,
            strFormat("base.vm%u", v));
        hosts[h].nic->addQueueMac(0, mac);
        if (cfg.with_block) {
            if (cfg.block_use_ssd) {
                ep->attachDisk(std::make_unique<block::SsdModel>(
                    sim, strFormat("base.vm%u.ssd", v), cfg.ssd_cfg));
            } else {
                ep->attachDisk(std::make_unique<block::RamDisk>(
                    sim, strFormat("base.vm%u.rd", v), cfg.ramdisk_cfg));
            }
        }
        hosts[h].vms.push_back(ep.get());
        endpoints.push_back(std::move(ep));
    }
}

BaselineModel::~BaselineModel() = default;

hv::Core &
BaselineModel::ioCore(unsigned host)
{
    return hosts[host].machine->core(hosts[host].io_core);
}

net::Nic &
BaselineModel::hostNic(unsigned host)
{
    return *hosts[host].nic;
}

BaselineModel::Endpoint *
BaselineModel::endpointByMac(unsigned host, net::MacAddress mac)
{
    for (Endpoint *ep : hosts[host].vms) {
        if (ep->mac() == mac)
            return ep;
    }
    return nullptr;
}

void
BaselineModel::nicRxInterrupt(unsigned host)
{
    // Physical interrupt handled by the host kernel on the I/O core.
    std::vector<net::FramePtr> &frames = hosts[host].rx_batch;
    if (hosts[host].nic->rxTake(0, 64, frames) == 0)
        return;
    // Charge the IRQ once (moderated); attribute it to the first
    // destination VM for Table-3 accounting.
    net::EtherHeader eh0 = frames.front()->ether();
    if (Endpoint *first = endpointByMac(host, eh0.dst))
        first->vm().events().record(hv::IoEvent::HostInterrupt);
    ioCore(host).run(cfg_.costs.host_irq, []() {});

    for (auto &frame : frames) {
        net::EtherHeader eh = frame->ether();
        if (Endpoint *ep = endpointByMac(host, eh.dst))
            ep->hostDeliver(frame);
    }
    frames.clear();
}

GuestEndpoint &
BaselineModel::guest(unsigned vm_index)
{
    vrio_assert(vm_index < endpoints.size(), "bad VM ", vm_index);
    return *endpoints[vm_index];
}

const hv::Vm &
BaselineModel::vmAt(unsigned vm_index) const
{
    vrio_assert(vm_index < endpoints.size(), "bad VM ", vm_index);
    return const_cast<Endpoint &>(*endpoints[vm_index]).vm();
}

std::vector<const sim::Resource *>
BaselineModel::ioResources() const
{
    std::vector<const sim::Resource *> out;
    for (const auto &host : hosts) {
        out.push_back(
            &host.machine->core(host.io_core).resource());
    }
    return out;
}

} // namespace vrio::models
