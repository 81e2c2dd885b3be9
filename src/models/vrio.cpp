#include "models/vrio.hpp"

#include "models/jitter.hpp"

#include "nvme/nvme_backed_device.hpp"
#include "transport/control.hpp"
#include "transport/encap.hpp"
#include "transport/reassembly.hpp"
#include "transport/segmenter.hpp"
#include "util/logging.hpp"
#include "util/strutil.hpp"

namespace vrio::models {

using transport::MsgType;
using transport::TransportHeader;

/**
 * The IOclient: the vRIO driver stack inside one VM — paravirtual
 * front-ends on top, the transport driver (T) below, speaking the
 * real wire protocol through its SRIOV VF.
 */
class VrioModel::Client : public GuestEndpoint
{
  public:
    Client(VrioModel &model, unsigned host_index, unsigned vm_index,
           unsigned vf, net::Nic *host_nic, net::MacAddress f_mac,
           net::MacAddress t_mac, std::vector<net::MacAddress> homes,
           unsigned home, hv::ClientKind kind, hv::Core *io_core,
           std::string name)
        : model(model), host_index(host_index), vm_index(vm_index), vf(vf),
          host_nic(host_nic), f_mac(f_mac), t_mac(t_mac),
          vm_(model.rack().sim(), std::move(name),
              /*vcpu*/ model.hosts[host_index].machine->core(vf),
              8u << 20, kind),
          reasm(model.rack().sim().events(), model.config().vrio_mtu),
          rtq(model.rack().sim().events(), transport::RetransmitConfig{},
              [this](uint64_t serial, uint16_t gen) {
                  sendBlockParts(serial, gen);
              },
              [this](uint64_t serial) { failBlock(serial); }),
          io_core(io_core), rack_macs(std::move(homes)), rack_home(home),
          rack_loads(rack_macs.size()), boot_home(home)
    {
        host_nic->setQueueMac(vf, t_mac);
        host_nic->setRxHandler(vf,
                               [this](unsigned q) { vfInterrupt(q); });

        // Telemetry: interned tracer ids (cheap even when tracing is
        // off) and pull-style probes over the transport-layer state.
        auto &tr = vm_.sim().telemetry().tracer;
        tg_track = tr.intern(strFormat("guest.vm%u", vm_index));
        tg_kick = tr.intern("guest.kick");
        tg_complete = tr.intern("guest.complete");
        tg_recovery_track = tr.intern("recovery");
        tg_lapse = tr.intern("recovery.hb_lapse");
        tg_failover = tr.intern("recovery.failover");
        tg_resteer = tr.intern("recovery.resteer");
        tg_rehome = tr.intern("recovery.rehome");
        tg_path_suspect = tr.intern("recovery.path_suspect");
        auto &m = vm_.sim().telemetry().metrics;
        telemetry::Labels vl{{"vm", vm_.name()}};
        m.probe("transport.rtq.retransmissions", vl,
                [this]() { return double(rtq.retransmissions()); });
        m.probe("transport.rtq.stale_responses", vl,
                [this]() { return double(rtq.staleResponses()); });
        m.probe("transport.reasm.checksum_drops", vl,
                [this]() { return double(reasm.checksumDrops()); });
        dev_creates = &counter("client.dev_creates");
    }

    /**
     * Rebind this client's transport channel (migration): the home
     * table's one entry becomes the new VMhost's IOhost port.
     */
    void
    rebind(unsigned new_host, unsigned new_vf, net::Nic *new_nic,
           hv::Core &new_vcpu, net::MacAddress new_iohost_mac)
    {
        host_nic->clearQueueMac(vf);
        host_nic->setRxHandler(vf, nullptr);
        host_index = new_host;
        vf = new_vf;
        host_nic = new_nic;
        rack_macs[rack_home] = new_iohost_mac;
        host_nic->setQueueMac(vf, t_mac);
        host_nic->setRxHandler(vf,
                               [this](unsigned q) { vfInterrupt(q); });
        vm_.migrateTo(new_vcpu);
    }

    uint32_t netDeviceId() const { return 0x5600 + vm_index; }
    uint32_t blkDeviceId() const { return 0x5700 + vm_index; }

    void
    attachRemoteDisk(uint64_t capacity_sectors)
    {
        blk_capacity = capacity_sectors;
        blk_failures = &counter("client.block_timeouts");
        sched = std::make_unique<block::DiskScheduler>(
            [this](block::BlockRequest req, block::BlockCallback done) {
                dispatchBlock(std::move(req), std::move(done));
            });
    }

    hv::Vm &vm() override { return vm_; }
    net::MacAddress mac() const override { return f_mac; }
    net::MacAddress tMac() const { return t_mac; }

    void
    sendNet(net::MacAddress dst, Bytes payload, uint64_t pad,
            uint64_t messages) override
    {
        (void)messages;
        traceGuest(tg_kick);
        const CostParams &c = model.config().costs;
        // The transport driver materializes the whole guest frame
        // (pad bytes become real zeros: vRIO ships actual bytes).
        Bytes frame_bytes;
        ByteWriter w(frame_bytes);
        net::EtherHeader eh;
        eh.dst = dst;
        eh.src = f_mac;
        eh.ether_type = uint16_t(net::EtherType::Raw);
        eh.encode(w);
        w.putBytes(payload);
        w.putZeros(size_t(pad));

        double cycles =
            c.guest_net_tx + c.vrio_encap +
            c.vrio_client_per_byte * double(frame_bytes.size());
        vm_.vcpu().runPreempt(cycles, [this, &c,
                                frame_bytes =
                                    std::move(frame_bytes)]() mutable {
            TransportHeader hdr;
            hdr.type = MsgType::NetOut;
            hdr.device_id = netDeviceId();
            hdr.request_serial = next_serial++;
            hdr.total_len = uint32_t(frame_bytes.size());
            auto wire = transport::encapsulate(
                t_mac, homeMac(), next_wire_id++, hdr, frame_bytes);
            transmitWire(std::move(wire));
            // ELI TX-completion interrupt.
            vm_.events().record(hv::IoEvent::GuestInterrupt);
            vm_.vcpu().runPreempt(c.guest_irq, []() {});
        });
    }

    void setNetHandler(NetHandler h) override { handler = std::move(h); }

    bool hasBlockDevice() const override { return sched != nullptr; }

    uint64_t blockCapacitySectors() const override { return blk_capacity; }

    void
    submitBlock(block::BlockRequest req, block::BlockCallback done) override
    {
        vrio_assert(sched, "no remote block device attached");
        sched->submit(std::move(req), std::move(done));
    }

  private:
    friend class VrioModel;

    VrioModel &model;
    unsigned host_index;
    unsigned vm_index;
    unsigned vf;
    net::Nic *host_nic;
    net::MacAddress f_mac;
    net::MacAddress t_mac;
    hv::Vm vm_;
    NetHandler handler;

    transport::Reassembler reasm;
    transport::MessageAssembler assembler;
    transport::RetransmitQueue rtq;
    /** Frames taken per VF interrupt (reused: no allocation per IRQ). */
    std::vector<net::FramePtr> rx_batch;

    struct PendingBlock
    {
        block::BlockRequest req;
        block::BlockCallback done;
    };
    std::map<uint64_t, PendingBlock> pending;
    std::unique_ptr<block::DiskScheduler> sched;
    uint64_t blk_capacity = 0;

    uint64_t next_serial = 1;
    uint32_t next_wire_id = 1;
    telemetry::Counter *dev_creates = nullptr;
    /** Requests failed with BlkStatus::Timeout (a disk is attached). */
    telemetry::Counter *blk_failures = nullptr;
    /** Local-hypervisor I/O core for the T_virtio channel (null =
     *  T_sriov, the default). */
    hv::Core *io_core = nullptr;

    // -- failure detection (armed only when recovery is enabled) -------
    /** Beat-to-beat patience; 0 = monitoring off. */
    sim::Tick hb_lapse_window = 0;
    sim::EventHandle hb_timer;
    // Heartbeat series, registered with the lapse window.
    telemetry::Counter *beats_seen = nullptr;
    telemetry::Counter *hb_lapses = nullptr;
    telemetry::Counter *failovers = nullptr;
    telemetry::Counter *path_suspicions = nullptr;
    uint32_t last_incarnation = 0;
    /** Tick of the most recent lapse declaration. */
    sim::Tick lapse_tick = 0;

    // Tracer ids (resolved once at construction).
    uint16_t tg_track = 0;
    uint16_t tg_kick = 0;
    uint16_t tg_complete = 0;
    uint16_t tg_recovery_track = 0;
    uint16_t tg_lapse = 0;
    uint16_t tg_failover = 0;

    // -- placement -----------------------------------------------------
    /**
     * The home table: client-channel MAC of each IOhost this client
     * may be homed on.  One entry per rack IOhost, or, in the classic
     * wiring, the single entry of its VMhost's own IOhost port.
     */
    std::vector<net::MacAddress> rack_macs;
    /** Index of the IOhost this client is currently homed on. */
    unsigned rack_home = 0;
    /** Per-IOhost load table fed by the beats this client sees. */
    std::vector<iohost::IoHostLoad> rack_loads;
    iohost::PlacementConfig place_cfg;
    /** Minimum dwell between voluntary moves (0 = re-steering off). */
    sim::Tick resteer_dwell = 0;
    sim::Tick last_move = 0;
    /** Placement moves; a rack series (the classic wiring has none). */
    telemetry::Counter *resteers = nullptr;
    /** Boot-time home, the fail-back target (rack.failback). */
    unsigned boot_home = 0;
    /** Fail-back moves; registered only with rack.failback. */
    telemetry::Counter *failbacks = nullptr;
    uint16_t tg_resteer = 0;

    // -- warm-state replication (cfg.rack.replication) -----------------
    /** The rack runs the DESIGN.md §16 mirror ring. */
    bool rack_repl_ = false;
    /** Rehome commands accepted; registered only with replication. */
    telemetry::Counter *rehomes = nullptr;
    /** Flip-to-first-accepted-response of the latest move. */
    sim::Tick last_blackout_ = 0;
    sim::Tick blackout_start = 0;
    bool blackout_pending = false;
    uint16_t tg_rehome = 0;
    uint16_t tg_path_suspect = 0;

    /** Client-channel MAC of the IOhost this client is homed on. */
    net::MacAddress homeMac() const { return rack_macs[rack_home]; }

    /** This client's {vm} series @p name (resolved at setup only). */
    telemetry::Counter &
    counter(const char *name)
    {
        return vm_.sim().telemetry().metrics.counter(
            name, telemetry::Labels{{"vm", vm_.name()}});
    }

    bool tvirtio() const { return io_core != nullptr; }

    /** Packet-lifecycle instant on this guest's tracer track. */
    void
    traceGuest(uint16_t event_name)
    {
        auto &tr = vm_.sim().telemetry().tracer;
        if (tr.enabled()) {
            tr.instant(tg_track, event_name, vm_.sim().events().now(),
                       telemetry::cat::kPacket, vm_index);
        }
    }

    void
    armHeartbeatMonitor()
    {
        hb_timer.cancel();
        hb_timer = vm_.sim().events().schedule(
            hb_lapse_window, [this]() { heartbeatLapse(); });
    }

    /**
     * Home this client's channel on rack IOhost @p k: re-address,
     * replay everything outstanding there, and note the move.  Both
     * voluntary re-steers and lapse failovers land here — in the rack,
     * failover IS a placement decision.
     */
    void
    moveTo(unsigned k, bool failover)
    {
        sim::Tick now = vm_.sim().events().now();
        last_move = now;
        rack_home = k;
        resteers->inc();
        auto &tr = vm_.sim().telemetry().tracer;
        if (tr.enabled()) {
            tr.instant(tg_recovery_track, tg_resteer, now,
                       telemetry::cat::kRecovery, vm_index);
        }
        if (failover) {
            failovers->inc();
            vm_.events().record(hv::IoEvent::Failover);
            if (tr.enabled()) {
                tr.instant(tg_recovery_track, tg_failover, now,
                           telemetry::cat::kRecovery, vm_index);
            }
        }
        if (rack_repl_) {
            // Ask the new home to promote its warm state before any
            // retry can arrive: both frames take the same client->home
            // path, and the switch's per-link FIFO keeps them ordered.
            sendRehomeActivate();
        }
        // Blackout clock: flip tick to the first accepted response at
        // the new home (fig19's recovery metric, warm or cold).
        blackout_pending = true;
        blackout_start = now;
        rtq.kickAll();
        if (hb_lapse_window > 0)
            armHeartbeatMonitor(); // now watching the new home
    }

    /**
     * Tell the new home to seed its duplicate filter and replay the
     * warm in-service entries its upstream mirrored for this device.
     * The floor serial fences off entries whose request already
     * completed (only their cleanup record died with the primary).
     */
    void
    sendRehomeActivate()
    {
        transport::RehomeCmd cmd;
        cmd.phase = transport::RehomeCmd::Phase::Activate;
        cmd.device_id = blkDeviceId();
        cmd.floor_serial =
            pending.empty() ? next_serial : pending.begin()->first;
        Bytes payload;
        ByteWriter w(payload);
        cmd.encode(w);
        TransportHeader hdr;
        hdr.type = MsgType::Rehome;
        hdr.device_id = blkDeviceId();
        hdr.total_len = uint32_t(payload.size());
        auto wire = transport::encapsulate(t_mac, homeMac(),
                                           next_wire_id++, hdr, payload);
        transmitWire(std::move(wire));
    }

    /** A Rehome command from the home: a planned drain-mirror-flip. */
    void
    receiveRehome(const transport::MessageAssembler::Assembled &msg)
    {
        transport::RehomeCmd cmd;
        ByteReader r(msg.payload);
        if (!transport::RehomeCmd::decode(r, cmd))
            return;
        if (cmd.phase != transport::RehomeCmd::Phase::Command)
            return;
        if (cmd.target >= rack_macs.size())
            return;
        // A command from an IOhost this client already left (it lapsed
        // mid-drain and we failed over) is stale: the failover was the
        // placement decision, don't bounce back.
        if (msg.src != rack_macs[rack_home])
            return;
        rehomes->inc();
        auto &tr = vm_.sim().telemetry().tracer;
        if (tr.enabled()) {
            tr.instant(tg_recovery_track, tg_rehome,
                       vm_.sim().events().now(),
                       telemetry::cat::kRecovery, vm_index);
        }
        moveTo(cmd.target, /*failover=*/false);
    }

    /** A fresh beat from the home arrived: is somewhere else better? */
    void
    maybeResteer()
    {
        if (place_cfg.imbalance_ratio <= 0 || rack_macs.size() < 2)
            return;
        sim::Tick now = vm_.sim().events().now();
        if (now - last_move < resteer_dwell)
            return;
        auto target = iohost::PlacementPolicy::pickTarget(
            rack_home, rack_loads, place_cfg, now, hb_lapse_window);
        if (target)
            moveTo(*target, /*failover=*/false);
    }

    /**
     * The heartbeat window closed with no beat from the home IOhost:
     * it is presumed dead.  With peers, fail over to the one the load
     * table picks (the warm peer first under replication) and replay
     * everything outstanding there — unless no IOhost at all still
     * beats, in which case the silence is on this client's own path
     * and the move is suppressed.  With no peer (the classic wiring or
     * a rack of one) there is nothing to do but note the detection: a
     * beat from the recovered IOhost re-arms the monitor.
     */
    void
    heartbeatLapse()
    {
        hb_lapses->inc();
        lapse_tick = vm_.sim().events().now();
        auto &tr = vm_.sim().telemetry().tracer;
        if (tr.enabled()) {
            tr.instant(tg_recovery_track, tg_lapse, lapse_tick,
                       telemetry::cat::kRecovery, vm_index);
        }
        if (rack_macs.size() < 2)
            return;
        // Per-path suspicion: every rack IOhost beats every client, so
        // if no source still beats, the silence is on this client's
        // own path and every failover target is equally unreachable —
        // suppress the move, kick the retries, and keep watching.
        if (iohost::PlacementPolicy::classifyLapse(rack_home, rack_loads,
                                                   lapse_tick,
                                                   hb_lapse_window) ==
            iohost::PlacementPolicy::LapseVerdict::PathSuspect) {
            path_suspicions->inc();
            if (tr.enabled()) {
                tr.instant(tg_recovery_track, tg_path_suspect, lapse_tick,
                           telemetry::cat::kRecovery, vm_index);
            }
            rtq.kickAll();
            armHeartbeatMonitor();
            return;
        }
        int warm_peer =
            rack_repl_ ? int((rack_home + 1) % rack_macs.size()) : -1;
        moveTo(iohost::PlacementPolicy::pickFailover(
                   rack_home, rack_loads, lapse_tick, hb_lapse_window,
                   warm_peer),
               /*failover=*/true);
    }

    void
    receiveHeartbeat(const transport::MessageAssembler::Assembled &msg)
    {
        transport::HeartbeatMsg beat;
        ByteReader r(msg.payload);
        if (!transport::HeartbeatMsg::decode(r, beat))
            return;
        // Every IOhost's beat updates the load table this client
        // places by; only the home's beat counts for liveness (a live
        // peer proves nothing about the home).
        for (unsigned k = 0; k < rack_macs.size(); ++k) {
            if (msg.src != rack_macs[k])
                continue;
            rack_loads[k].seen = true;
            rack_loads[k].last_beat = vm_.sim().events().now();
            if (beat.has_load)
                rack_loads[k].load_ns = beat.load_ns;
            if (k == rack_home) {
                beats_seen->inc();
                last_incarnation = beat.incarnation;
                if (hb_lapse_window > 0)
                    armHeartbeatMonitor();
                maybeResteer();
            } else if (failbacks && k == boot_home &&
                       vm_.sim().events().now() - last_move >=
                           resteer_dwell) {
                // The boot home is beating again after this client
                // left it (lapse failover or voluntary move).
                // Dwell-gated fail-back: once the revived host proves
                // liveness, move back and rebalance the rack instead
                // of stranding every refugee VM on the survivor.
                failbacks->inc();
                moveTo(boot_home, /*failover=*/false);
            }
            return;
        }
    }

    /**
     * Hand one wire message to the channel.  T_sriov: straight to the
     * VF.  T_virtio: kick exit, vhost forwarding on the local I/O
     * core, then the physical send — the traditional-paravirtual
     * overheads the SRIOV channel exists to avoid.
     */
    void
    transmitWire(net::FramePtr frame)
    {
        if (!tvirtio()) {
            host_nic->send(vf, std::move(frame));
            return;
        }
        const CostParams &c = model.config().costs;
        vm_.events().record(hv::IoEvent::SyncExit);
        vm_.vcpu().runPreempt(c.exit, [this, &c, frame = std::move(frame)]() mutable {
            io_core->run(c.vhost_net,
                         [this, frame = std::move(frame)]() mutable {
                             host_nic->send(vf, std::move(frame));
                         });
        });
    }

    void
    dispatchBlock(block::BlockRequest req, block::BlockCallback done)
    {
        traceGuest(tg_kick);
        const CostParams &c = model.config().costs;
        uint64_t serial = next_serial++;
        double cycles = c.guest_blk_submit +
                        c.vrio_client_per_byte * double(req.data.size());
        pending.emplace(serial,
                        PendingBlock{std::move(req), std::move(done)});
        vm_.vcpu().runPreempt(cycles, [this, serial]() {
            // track() performs the generation-0 send and arms the
            // 10 ms doubling timer (Section 4.5).
            rtq.track(serial);
        });
    }

    /** (Re)send all software segments of a block request. */
    void
    sendBlockParts(uint64_t serial, uint16_t generation)
    {
        auto it = pending.find(serial);
        if (it == pending.end())
            return;
        const block::BlockRequest &req = it->second.req;
        const CostParams &c = model.config().costs;

        TransportHeader proto;
        proto.type = MsgType::BlkReq;
        proto.device_id = blkDeviceId();
        proto.request_serial = serial;
        proto.generation = generation;
        proto.flags = generation > 0 ? transport::kFlagRetransmit : 0;
        proto.sector = req.sector;
        proto.io_len = uint32_t(req.byteLength());
        proto.blk_type = uint8_t(req.kind);

        auto parts = transport::segmentRequest(proto, req.data);
        double cycles = c.vrio_encap * double(parts.size());
        vm_.vcpu().runPreempt(cycles, [this, parts = std::move(parts)]() {
            for (const auto &part : parts) {
                auto wire = transport::encapsulate(
                    t_mac, homeMac(), next_wire_id++, part.hdr,
                    part.payload);
                transmitWire(std::move(wire));
            }
        });
    }

    /**
     * Retry cap exceeded: raise a device timeout (Section 4.5,
     * extended) — the guest sees the request fail instead of hanging.
     */
    void
    failBlock(uint64_t serial)
    {
        auto it = pending.find(serial);
        if (it == pending.end())
            return;
        auto done = std::move(it->second.done);
        pending.erase(it);
        blk_failures->inc();
        vm_.events().record(hv::IoEvent::RequestTimeout);
        done(virtio::BlkStatus::Timeout, {});
    }

    /**
     * Interrupt on this client's VF: delivered directly via ELI on
     * T_sriov, or taken by the local host and injected on T_virtio.
     */
    void
    vfInterrupt(unsigned q)
    {
        const CostParams &c = model.config().costs;
        host_nic->rxTake(q, 64, rx_batch);
        if (tvirtio()) {
            vm_.events().record(hv::IoEvent::HostInterrupt);
            vm_.events().record(hv::IoEvent::Injection);
            io_core->run(c.host_irq + c.vhost_net + c.injection, []() {});
            vm_.events().record(hv::IoEvent::GuestInterrupt);
            vm_.events().record(hv::IoEvent::SyncExit); // EOI trap
            vm_.vcpu().run(c.guest_irq + c.eoi_exit, []() {});
        } else {
            vm_.events().record(hv::IoEvent::GuestInterrupt);
            vm_.vcpu().run(c.guest_irq, []() {});
        }
        for (const auto &frame : rx_batch) {
            auto msg = reasm.feed(*frame);
            if (!msg)
                continue;
            auto assembled = assembler.feed(std::move(*msg));
            if (!assembled)
                continue;
            handleMessage(std::move(*assembled));
        }
        rx_batch.clear();
    }

    void
    handleMessage(transport::MessageAssembler::Assembled msg)
    {
        switch (msg.hdr.type) {
          case MsgType::NetIn:
            receiveNet(std::move(msg));
            break;
          case MsgType::BlkResp:
            receiveBlockResp(std::move(msg));
            break;
          case MsgType::DevCreate:
            receiveDevCreate(std::move(msg));
            break;
          case MsgType::Heartbeat:
            receiveHeartbeat(msg);
            break;
          case MsgType::Rehome:
            receiveRehome(msg);
            break;
          default:
            vrio_warn("client ignoring message type ",
                      transport::msgTypeName(msg.hdr.type));
        }
    }

    void
    receiveNet(transport::MessageAssembler::Assembled msg)
    {
        const CostParams &c = model.config().costs;
        if (msg.payload.size() < net::kEtherHeaderSize)
            return;
        traceGuest(tg_complete);
        net::EtherHeader eh;
        {
            ByteReader r(msg.payload);
            eh = net::EtherHeader::decode(r);
        }
        Bytes payload(msg.payload.begin() + net::kEtherHeaderSize,
                      msg.payload.end());
        auto &rng = vm_.sim().random();
        double cycles = c.guest_net_rx + c.vrio_decap +
                        c.vrio_client_per_byte * double(payload.size()) +
                        stallCycles(rng, c.guest_jitter, c.guest_ghz) +
                        stallCycles(rng, c.guest_stall, c.guest_ghz);
        vm_.vcpu().run(cycles, [this, payload = std::move(payload),
                                src = eh.src]() mutable {
            if (handler)
                handler(std::move(payload), src, 0);
        });
    }

    void
    receiveBlockResp(transport::MessageAssembler::Assembled msg)
    {
        const CostParams &c = model.config().costs;
        auto verdict =
            rtq.accept(msg.hdr.request_serial, msg.hdr.generation);
        if (verdict != transport::RetransmitQueue::Accept::Ok)
            return; // stale or unknown: ignored (Section 4.5)
        traceGuest(tg_complete);

        auto it = pending.find(msg.hdr.request_serial);
        vrio_assert(it != pending.end(),
                    "accepted response without a pending request");
        auto done = std::move(it->second.done);
        pending.erase(it);

        if (blackout_pending) {
            // First accepted response since the placement flip: the
            // service gap the move cost this client ends here.
            blackout_pending = false;
            last_blackout_ =
                vm_.sim().events().now() - blackout_start;
        }

        auto status = virtio::BlkStatus(msg.hdr.status);
        double cycles = c.guest_blk_complete + c.vrio_decap +
                        c.vrio_client_per_byte * double(msg.payload.size());
        if (vm_.vcpu().resource().busyServers() > 0) {
            vm_.noteContextSwitch();
            cycles += c.guest_ctx_switch;
        }
        vm_.vcpu().run(cycles, [status, data = std::move(msg.payload),
                                done = std::move(done)]() mutable {
            done(status, std::move(data));
        });
    }

    void
    receiveDevCreate(transport::MessageAssembler::Assembled msg)
    {
        transport::DeviceCreateCmd cmd;
        ByteReader r(msg.payload);
        if (!transport::DeviceCreateCmd::decode(r, cmd))
            return;
        dev_creates->inc();

        transport::DeviceAck ack;
        ack.device_id = cmd.device_id;
        ack.accepted = 1;
        Bytes payload;
        ByteWriter w(payload);
        ack.encode(w);
        TransportHeader hdr;
        hdr.type = MsgType::DevAck;
        hdr.device_id = cmd.device_id;
        hdr.total_len = uint32_t(payload.size());
        auto wire = transport::encapsulate(t_mac, homeMac(),
                                           next_wire_id++, hdr, payload);
        transmitWire(std::move(wire));
    }
};

VrioModel::VrioModel(Rack &rack, ModelConfig cfg) : IoModel(rack, cfg)
{
    vrio_assert(cfg.kind == ModelKind::Vrio ||
                    cfg.kind == ModelKind::VrioNoPoll,
                "VrioModel requires a vRIO kind");
    auto &sim = rack.sim();

    // Shard cut (DESIGN.md §13/§15): the rack fabric stays on shard 0,
    // each VMhost gets its own shard, and each IOhost takes one after
    // them.  ShardScope binds object construction to a partition so
    // every captured EventQueue&/RNG is shard-local; with an unsharded
    // simulation every scope clamps to shard 0.
    vrio_assert(sim.shardCount() == 1 ||
                    sim.shardCount() == vrioShardCount(cfg.num_vmhosts,
                                                       cfg.rack.iohosts),
                "vRIO topology with ", cfg.num_vmhosts,
                " VMhosts needs ",
                vrioShardCount(cfg.num_vmhosts, cfg.rack.iohosts),
                " shards, simulation has ", sim.shardCount());

    // The classic wiring (rack.iohosts == 0) is a rack of one IOhost
    // cabled per VMhost.  Only the cabling and the backing differ from
    // the rack wiring; options that need a rack are rejected here
    // instead of being silently ignored.
    const bool classic = cfg.rack.iohosts == 0;
    const std::pair<const char *, bool> rack_only[] = {
        {"rack.coalesce", cfg.rack.coalesce},
        {"rack.shared_volume", cfg.rack.shared_volume},
        {"rack.replication", cfg.rack.replication},
        {"rack.resteer_ratio", cfg.rack.resteer_ratio != 0},
        {"rack.failback", cfg.rack.failback},
        {"rack.qos", cfg.rack.qos.enabled},
    };
    for (const auto &[option, set] : rack_only)
        vrio_assert(!classic || !set, "the classic wiring rejects ",
                    option, ": it requires the rack layer "
                    "(rack.iohosts >= 1)");
    vrio_assert(classic || cfg.vrio_via_switch,
                "the rack layer requires vrio_via_switch wiring: "
                "placement is a re-addressing, not a re-cabling");
    vrio_assert(classic ||
                    cfg.block_backend == ModelConfig::BlockBackend::Direct,
                "rack mode supports the Direct block backend only");

    const unsigned R = classic ? 1 : cfg.rack.iohosts;
    auto vm_shard = [](unsigned h) { return uint32_t(1 + h); };
    auto io_shard = [&cfg](unsigned k) {
        return uint32_t(1 + cfg.num_vmhosts + k);
    };

    iohost::IoHypervisorConfig ihc;
    ihc.num_workers = cfg.sidecores;
    ihc.polling = cfg.kind == ModelKind::Vrio;
    ihc.mtu = cfg.vrio_mtu;
    ihc.batch_max = cfg.iohost_batch_max;
    ihc.poll_pickup = cfg.iohost_poll_pickup;
    ihc.worker_ghz = cfg.costs.iohost_ghz;
    ihc.jitter_p = cfg.costs.worker_jitter.p;
    ihc.jitter_mean_us = cfg.costs.worker_jitter.mean_us;
    ihc.stall_p = cfg.costs.worker_stall.p;
    ihc.stall_mean_us = cfg.costs.worker_stall.mean_us;
    ihc.jitter_cap_us = cfg.costs.worker_jitter.cap_us;
    ihc.stall_cap_us = cfg.costs.worker_stall.cap_us;
    if (cfg.recovery.enabled) {
        ihc.heartbeat_period = cfg.recovery.heartbeat_period;
        ihc.watchdog_period = cfg.recovery.watchdog_period;
        ihc.watchdog_threshold = cfg.recovery.watchdog_threshold;
        // Rack beats double as the placement policy's load feed; the
        // classic wiring has nothing to place and keeps the plain beat.
        ihc.advertise_load = !classic;
    }
    ihc.coalesce = cfg.rack.coalesce;
    ihc.coalesce_window = cfg.rack.coalesce_window;
    ihc.coalesce_max = cfg.rack.coalesce_max;
    ihc.qos = cfg.rack.qos.enabled;
    if (cfg.rack.qos.enabled) {
        ihc.qos_cfg.high_water = cfg.rack.qos.high_water;
        ihc.qos_cfg.tenant_floor = cfg.rack.qos.tenant_floor;
        ihc.qos_cfg.shed_factor = cfg.rack.qos.shed_factor;
        ihc.qos_cfg.promote_slack = cfg.rack.qos.promote_slack;
        ihc.qos_window = cfg.rack.qos.window;
    }

    uint64_t per_vm_bytes = cfg.block_use_ssd
                                ? cfg.ssd_cfg.capacity_bytes
                                : cfg.ramdisk_cfg.capacity_bytes;
    uint64_t per_vm_sectors = per_vm_bytes / virtio::kSectorSize;

    // -- the IOhosts, one shard each -------------------------------------
    for (unsigned k = 0; k < R; ++k) {
        sim::ShardScope scope(sim, io_shard(k));
        // The classic IOhost keeps its unnumbered object names.
        auto named = [classic, k](const char *base, const char *leaf) {
            return classic ? strFormat("%s%s", base, leaf)
                           : strFormat("%s%u%s", base, k, leaf);
        };
        RackIoHost io;
        hv::MachineConfig iomc;
        iomc.cores = cfg.sidecores;
        iomc.ghz = cfg.costs.iohost_ghz;
        io.machine = std::make_unique<hv::Machine>(
            sim, named("vrio.iohost", ""), iomc);
        io.iohv = std::make_unique<iohost::IoHypervisor>(
            sim, named("vrio.iohv", ""), *io.machine, ihc);

        if (!classic) {
            // Rack cabling: one client port per IOhost on the switch.
            net::NicConfig cnc;
            cnc.gbps = cfg.direct_link_gbps;
            cnc.num_queues = 1;
            cnc.mtu = cfg.vrio_mtu;
            cnc.rx_ring_size = cfg.iohost_rx_ring;
            io.cnic = std::make_unique<net::Nic>(
                sim, strFormat("vrio.iohost%u.cnic", k), cnc);
            io.cnic->setQueueMac(0, net::MacAddress::local(0x7f0000 + k));
            channel_links.push_back(&rack_.connectToSwitch(
                strFormat("vrio.iohost%u.swport", k), io.cnic->port(),
                cfg.direct_link_gbps));
            io.iohv->attachClientNic(*io.cnic);
        }

        net::NicConfig enc;
        enc.gbps = cfg.iohost_external_gbps;
        enc.num_queues = 1;
        enc.mtu = 64 * 1024;
        enc.rx_ring_size = 4096;
        io.extnic = std::make_unique<net::Nic>(
            sim, named("vrio.iohost", ".extnic"), enc);
        io.extnic->setQueueMac(0, net::MacAddress::local(0x7e0000 + k));
        rack_.connectToSwitch(named("vrio.iohost", ".extlink"),
                              io.extnic->port(),
                              cfg.iohost_external_gbps);
        io.iohv->attachExternalNic(*io.extnic);

        if (cfg.rack.replication) {
            // Dedicated replication NIC through the switch: mirror
            // traffic must keep flowing when client intake is gated,
            // and its switch port is a fault-injection target of its
            // own (a killed replication link starves catch-up without
            // touching the data path).
            net::NicConfig rnc;
            rnc.gbps = cfg.direct_link_gbps;
            rnc.num_queues = 1;
            rnc.mtu = cfg.vrio_mtu;
            rnc.rx_ring_size = cfg.iohost_rx_ring;
            io.rnic = std::make_unique<net::Nic>(
                sim, strFormat("vrio.iohost%u.rnic", k), rnc);
            io.rnic->setQueueMac(0,
                                 net::MacAddress::local(0x7d0000 + k));
            channel_links.push_back(&rack_.connectToSwitch(
                strFormat("vrio.iohost%u.rlink", k), io.rnic->port(),
                cfg.direct_link_gbps));
            io.iohv->attachReplicationNic(*io.rnic);
        }

        if (cfg.with_block && !classic) {
            // Rack backing: each IOhost serves its own replica of the
            // rack volume (replicated-at-rest), so every VM's device
            // works on every IOhost and a placement move needs no data
            // motion.
            uint64_t cap = cfg.rack.shared_volume
                               ? per_vm_bytes
                               : per_vm_bytes * cfg.num_vms;
            if (cfg.block_use_ssd) {
                block::SsdConfig sc = cfg.ssd_cfg;
                sc.capacity_bytes = cap;
                io.store = std::make_unique<block::SsdModel>(
                    sim, strFormat("vrio.iohost%u.store", k), sc);
            } else {
                block::RamDiskConfig rc = cfg.ramdisk_cfg;
                rc.capacity_bytes = cap;
                io.store = std::make_unique<block::RamDisk>(
                    sim, strFormat("vrio.iohost%u.store", k), rc);
            }
        }
        rio.push_back(std::move(io));
    }

    // -- replication ring: k mirrors to (k+1) % R ------------------------
    // Enabled after every IOhost exists because each needs its peer's
    // (and upstream's) replication-NIC MAC.
    if (cfg.rack.replication) {
        vrio_assert(R >= 2,
                    "rack.replication needs at least two IOhosts "
                    "(a lone host has no peer to mirror to)");
        iohost::ReplicationConfig rc;
        rc.window = cfg.rack.repl_window;
        rc.batch_max = cfg.rack.repl_batch;
        rc.flush_delay = cfg.rack.repl_flush_delay;
        rc.retx_timeout = cfg.rack.repl_retx_timeout;
        for (unsigned k = 0; k < R; ++k) {
            sim::ShardScope scope(sim, io_shard(k));
            rio[k].iohv->enableReplication(
                rc, rio[(k + 1) % R].rnic->queueMac(0),
                rio[(k + R - 1) % R].rnic->queueMac(0));
        }
    }

    // -- VMhosts and their channel cabling -------------------------------
    for (unsigned h = 0; h < cfg.num_vmhosts; ++h) {
        unsigned vms_here =
            (cfg.num_vms + cfg.num_vmhosts - 1 - h) / cfg.num_vmhosts;
        if (vms_here == 0)
            vms_here = 1;
        Host host;
        unsigned slots = vms_here + cfg.spare_client_slots;
        host.slot_used.assign(slots, false);
        for (unsigned i = 0; i < vms_here; ++i)
            host.slot_used[i] = true;
        bool tvirtio =
            cfg.vrio_channel == ModelConfig::VrioChannel::Tvirtio;
        {
            // Guest machine and host NIC live on the VMhost's shard.
            sim::ShardScope host_scope(sim, vm_shard(h));
            hv::MachineConfig mc;
            // All local sidecores moved to the IOhost; the T_virtio
            // fallback brings back a local I/O core for vhost.
            mc.cores = slots + (tvirtio ? 1 : 0);
            mc.ghz = cfg.costs.guest_ghz;
            host.machine = std::make_unique<hv::Machine>(
                sim, strFormat("vrio.host%u", h), mc);

            net::NicConfig nc;
            nc.gbps = cfg.direct_link_gbps;
            nc.num_queues = slots;
            nc.mtu = cfg.vrio_mtu;
            nc.intr_coalesce_delay = sim::Tick(600) * sim::kNanosecond;
            nc.intr_coalesce_frames = 8;
            host.nic = std::make_unique<net::Nic>(
                sim, strFormat("vrio.host%u.nic", h), nc);
        }

        if (classic) {
            // Classic cabling: the IOhost has one client port per
            // VMhost.  The port is IOhost hardware, so it lives on the
            // IOhost's shard.
            sim::ShardScope iohost_scope(sim, io_shard(0));
            net::NicConfig ioc;
            ioc.gbps = cfg.direct_link_gbps;
            ioc.num_queues = 1;
            ioc.mtu = cfg.vrio_mtu;
            ioc.rx_ring_size = cfg.iohost_rx_ring;
            host.iohost_port = std::make_unique<net::Nic>(
                sim, strFormat("vrio.iohost.cnic%u", h), ioc);
            host.iohost_port->setQueueMac(
                0, net::MacAddress::local(0x7f0000 + h));
            rio[0].iohv->attachClientNic(*host.iohost_port);
            if (cfg.vrio_via_switch) {
                // Section 4.6 alternative: both ends plug into the
                // rack switch; the T-channel shares the fabric with
                // external traffic and pays the forwarding latency,
                // but VMhosts stay reachable if the IOhost is replaced.
                channel_links.push_back(&rack_.connectToSwitch(
                    strFormat("vrio.swlink%u", h), host.nic->port(),
                    cfg.direct_link_gbps));
                channel_links.push_back(&rack_.connectToSwitch(
                    strFormat("vrio.swport%u", h),
                    host.iohost_port->port(), cfg.direct_link_gbps));
            } else {
                channel_links.push_back(&rack_.directLink(
                    strFormat("vrio.dlink%u", h), host.nic->port(),
                    host.iohost_port->port(), cfg.direct_link_gbps,
                    cfg.vrio_channel_loss, cfg.direct_link_latency));
            }
        } else {
            // Rack cabling: the VMhost plugs into the switch; the
            // IOhost ports were cabled with their IOhosts above.
            channel_links.push_back(&rack_.connectToSwitch(
                strFormat("vrio.swlink%u", h), host.nic->port(),
                cfg.direct_link_gbps));
        }
        hosts.push_back(std::move(host));
    }

    // -- clients, homed round-robin, consolidated on every IOhost --------
    std::vector<net::MacAddress> rack_macs;
    for (auto &io : rio)
        if (io.cnic)
            rack_macs.push_back(io.cnic->queueMac(0));

    for (unsigned v = 0; v < cfg.num_vms; ++v) {
        unsigned h = v % cfg.num_vmhosts;
        unsigned slot = v / cfg.num_vmhosts;
        unsigned home = iohost::PlacementPolicy::bootAssign(v, R);
        auto f_mac = net::MacAddress::local(0x500000 + v);
        auto t_mac = net::MacAddress::local(0x400000 + v);
        hv::ClientKind kind = v < cfg.client_kinds.size()
                                  ? cfg.client_kinds[v]
                                  : hv::ClientKind::KvmGuest;
        hv::Core *io_core = nullptr;
        if (cfg.vrio_channel == ModelConfig::VrioChannel::Tvirtio) {
            hv::Machine &mach = *hosts[h].machine;
            io_core = &mach.core(mach.coreCount() - 1);
        }
        // A classic client's home table is its VMhost's own port.
        auto homes = classic
                         ? std::vector{hosts[h].iohost_port->queueMac(0)}
                         : rack_macs;
        std::unique_ptr<Client> client;
        {
            // The IOclient runs inside the guest: its VM, timers and
            // per-client telemetry belong to its VMhost's shard.
            sim::ShardScope client_scope(sim, vm_shard(h));
            client = std::make_unique<Client>(
                *this, h, v, slot, hosts[h].nic.get(), f_mac, t_mac,
                std::move(homes), home, kind, io_core,
                strFormat("vrio.vm%u", v));
        }
        client->rack_repl_ = cfg.rack.replication;
        client->place_cfg.imbalance_ratio = cfg.rack.resteer_ratio;
        client->resteer_dwell = cfg.rack.resteer_dwell;
        // Each series exists only where its feature can bump it: moves
        // between IOhosts are a rack metric, so the classic registry
        // carries no series for them.
        if (!classic)
            client->resteers = &client->counter("rack.resteers");
        if (cfg.rack.failback)
            client->failbacks = &client->counter("rack.failbacks");
        if (cfg.rack.replication)
            client->rehomes = &client->counter("rack.rehomes");

        interpose::Chain *net_chain = nullptr;
        interpose::Chain *blk_chain = nullptr;
        if (cfg.chain_factory) {
            net_chain = cfg.chain_factory(client->netDeviceId(), false);
            blk_chain = cfg.chain_factory(client->blkDeviceId(), true);
        }

        iohost::NetDeviceEntry nd;
        nd.device_id = client->netDeviceId();
        nd.f_mac = f_mac;
        nd.t_mac = t_mac;
        nd.chain = net_chain;
        for (auto &io : rio) {
            io.iohv->mapClientPort(t_mac, classic ? h : 0);
            io.iohv->addNetDevice(nd);
        }

        if (cfg.with_block) {
            std::unique_ptr<block::BlockDevice> disk;
            if (classic) {
                // Classic backing: one disk per VM.  The disk (and with
                // NVMe the shared controller, its rings and backing
                // device) lives on the IOhost's shard with the workers
                // that poke it.
                sim::ShardScope iohost_scope(sim, io_shard(0));
                if (cfg.block_backend == ModelConfig::BlockBackend::Nvme) {
                    if (!nvme_shared)
                        setupNvmeShared();
                    uint32_t nsid =
                        nvme_shared->ctrl->addNamespace(per_vm_sectors);
                    disk = std::make_unique<nvme::NvmeBackedDevice>(
                        sim, strFormat("vrio.iohost.nvme.ns%u", v),
                        *nvme_shared->qp, nsid);
                } else if (cfg.block_use_ssd) {
                    disk = std::make_unique<block::SsdModel>(
                        sim, strFormat("vrio.iohost.ssd%u", v),
                        cfg.ssd_cfg);
                } else {
                    disk = std::make_unique<block::RamDisk>(
                        sim, strFormat("vrio.iohost.rd%u", v),
                        cfg.ramdisk_cfg);
                }
            }
            for (auto &io : rio) {
                iohost::BlockDeviceEntry bd;
                bd.device_id = client->blkDeviceId();
                bd.t_mac = t_mac;
                bd.device = disk ? disk.get() : io.store.get();
                bd.chain = blk_chain;
                bd.ns_id = v;
                // Rack stores hold every VM at its own offset unless
                // the volume is shared.
                bd.sector_offset = classic || cfg.rack.shared_volume
                                       ? 0
                                       : uint64_t(v) * per_vm_sectors;
                io.iohv->addBlockDevice(bd);
                if (cfg.rack.qos.enabled) {
                    qos::TenantConfig tc;
                    tc.weight = v < cfg.rack.qos.weights.size()
                                    ? cfg.rack.qos.weights[v]
                                    : cfg.rack.qos.default_weight;
                    tc.slo = v < cfg.rack.qos.slos.size()
                                 ? cfg.rack.qos.slos[v]
                                 : cfg.rack.qos.default_slo;
                    io.iohv->setTenant(bd.device_id, tc);
                }
            }
            client->attachRemoteDisk(per_vm_sectors);
            if (disk)
                remote_disks.push_back(std::move(disk));
        }
        clients.push_back(std::move(client));
    }

    // -- client-side heartbeat monitoring --------------------------------
    if (cfg.recovery.enabled && cfg.recovery.heartbeat_period > 0) {
        sim::Tick window = sim::Tick(cfg.recovery.heartbeat_miss) *
                           cfg.recovery.heartbeat_period;
        for (auto &client : clients) {
            client->hb_lapse_window = window;
            client->beats_seen = &client->counter("client.heartbeats_seen");
            client->hb_lapses = &client->counter("client.heartbeat_lapses");
            client->failovers = &client->counter("client.failovers");
            client->path_suspicions =
                &client->counter("rack.path_suspicions");
            // The lapse timer must fire on the client's own shard.
            sim::ShardScope client_scope(sim,
                                         vm_shard(client->host_index));
            client->armHeartbeatMonitor();
        }
    }

    // -- device-creation handshake: the HOME IOhost announces ------------
    // The I/O hypervisor announces each consolidated device to its
    // IOclient (Section 4.1); clients ack over the same channel.
    // Announcing from every IOhost would multiply the handshake R-fold
    // for no information; peers serve the same device ids regardless.
    for (unsigned k = 0; k < R; ++k) {
        sim::ShardScope scope(sim, io_shard(k));
        sim.events().schedule(0, [this, k]() {
            for (auto &client : clients) {
                if (client->rack_home != k)
                    continue;
                transport::DeviceCreateCmd cmd;
                cmd.kind = transport::DeviceKind::Net;
                cmd.device_id = client->netDeviceId();
                cmd.mac = client->mac();
                rio[k].iohv->sendDeviceCreate(cmd, client->tMac());
                if (client->hasBlockDevice()) {
                    transport::DeviceCreateCmd bcmd;
                    bcmd.kind = transport::DeviceKind::Block;
                    bcmd.device_id = client->blkDeviceId();
                    bcmd.capacity_sectors = client->blk_capacity;
                    rio[k].iohv->sendDeviceCreate(bcmd, client->tMac());
                }
            }
        });
    }
}

void
VrioModel::setupNvmeShared()
{
    auto &sim = rack_.sim();
    uint64_t per_vm_bytes = cfg_.block_use_ssd
                                ? cfg_.ssd_cfg.capacity_bytes
                                : cfg_.ramdisk_cfg.capacity_bytes;
    auto shared = std::make_unique<NvmeShared>();
    if (cfg_.block_use_ssd) {
        block::SsdConfig sc = cfg_.ssd_cfg;
        sc.capacity_bytes = per_vm_bytes * cfg_.num_vms;
        shared->backing = std::make_unique<block::SsdModel>(
            sim, "vrio.iohost.nvme.ssd", sc);
    } else {
        block::RamDiskConfig rc = cfg_.ramdisk_cfg;
        rc.capacity_bytes = per_vm_bytes * cfg_.num_vms;
        shared->backing = std::make_unique<block::RamDisk>(
            sim, "vrio.iohost.nvme.rd", rc);
    }
    shared->ctrl = std::make_unique<nvme::Controller>(
        sim, "vrio.iohost.nvme", *shared->backing, cfg_.nvme_cfg);
    // Hypervisor-memory arena for the shared queue pair: rings plus
    // up to queue-depth in-flight PRP buffers.
    shared->arena = std::make_unique<virtio::GuestMemory>(32u << 20);
    // No interrupt hook: the IOhost's worker context polls, so the
    // driver reaps inline when the completion lands.
    shared->qp = std::make_unique<nvme::QueuePairDriver>(
        *shared->ctrl, *shared->arena, cfg_.nvme_queue_depth);
    nvme_shared = std::move(shared);
}

VrioModel::~VrioModel() = default;

GuestEndpoint &
VrioModel::guest(unsigned vm_index)
{
    vrio_assert(vm_index < clients.size(), "bad VM ", vm_index);
    return *clients[vm_index];
}

const hv::Vm &
VrioModel::vmAt(unsigned vm_index) const
{
    vrio_assert(vm_index < clients.size(), "bad VM ", vm_index);
    return const_cast<Client &>(*clients[vm_index]).vm();
}

std::vector<const sim::Resource *>
VrioModel::ioResources() const
{
    std::vector<const sim::Resource *> out;
    for (const auto &io : rio)
        for (unsigned w = 0; w < cfg_.sidecores; ++w)
            out.push_back(&io.machine->core(w).resource());
    return out;
}

void
VrioModel::migrateClient(unsigned vm_index, unsigned to_host)
{
    vrio_assert(vm_index < clients.size(), "bad VM ", vm_index);
    vrio_assert(to_host < hosts.size(), "bad host ", to_host);
    vrio_assert(cfg_.rack.iohosts == 0,
                "migrateClient is not supported in rack mode (a rack "
                "client moves between IOhosts, not VMhosts)");
    Client &client = *clients[vm_index];
    vrio_assert(client.host_index != to_host,
                "client already on host ", to_host);
    Host &dst = hosts[to_host];
    unsigned new_vf = unsigned(dst.slot_used.size());
    for (unsigned i = 0; i < dst.slot_used.size(); ++i) {
        if (!dst.slot_used[i]) {
            new_vf = i;
            break;
        }
    }
    vrio_assert(new_vf < dst.slot_used.size(),
                "destination host ", to_host,
                " has no spare client slot (set spare_client_slots)");
    dst.slot_used[new_vf] = true;
    hosts[client.host_index].slot_used[client.vf] = false;
    client.rebind(to_host, new_vf, dst.nic.get(),
                  dst.machine->core(new_vf),
                  dst.iohost_port->queueMac(0));
    // Redirect the IOhost's egress for this client to the new port.
    rio[0].iohv->mapClientPort(client.tMac(), to_host);
}

unsigned
VrioModel::clientHost(unsigned vm_index) const
{
    return clients.at(vm_index)->host_index;
}

std::vector<const net::Nic *>
VrioModel::allNics() const
{
    std::vector<const net::Nic *> out;
    for (const auto &host : hosts) {
        out.push_back(host.nic.get());
        if (host.iohost_port)
            out.push_back(host.iohost_port.get());
    }
    for (const auto &io : rio) {
        if (io.cnic)
            out.push_back(io.cnic.get());
        out.push_back(io.extnic.get());
        if (io.rnic)
            out.push_back(io.rnic.get());
    }
    return out;
}

std::vector<net::Nic *>
VrioModel::iohostClientNics()
{
    // One client port per VMhost (classic) or per IOhost (rack).
    std::vector<net::Nic *> out;
    for (auto &host : hosts)
        if (host.iohost_port)
            out.push_back(host.iohost_port.get());
    for (auto &io : rio)
        if (io.cnic)
            out.push_back(io.cnic.get());
    return out;
}

net::MacAddress
VrioModel::rackIoHostMac(unsigned k) const
{
    vrio_assert(rio.at(k).cnic, "the classic wiring has one IOhost "
                                "client port per VMhost, not per IOhost");
    return rio[k].cnic->queueMac(0);
}

unsigned
VrioModel::clientHomeIoHost(unsigned vm_index) const
{
    return clients.at(vm_index)->rack_home;
}

uint64_t
VrioModel::iohostInterrupts() const
{
    uint64_t total = 0;
    for (const auto &io : rio)
        total += io.iohv->interruptsTaken();
    return total;
}

sim::Tick
VrioModel::clientLapseTick(unsigned vm_index) const
{
    return clients.at(vm_index)->lapse_tick;
}

uint64_t
VrioModel::clientPendingBlocks(unsigned vm_index) const
{
    return clients.at(vm_index)->pending.size();
}

void
VrioModel::scheduleRehome(unsigned vm_index, unsigned target,
                          sim::Tick at)
{
    vrio_assert(cfg_.rack.replication,
                "scheduleRehome requires rack.replication (a cold "
                "target has no warm state to activate)");
    vrio_assert(target < rio.size(), "bad re-home target ", target);
    vrio_assert(vm_index < clients.size(), "bad VM ", vm_index);
    // The home is captured now (call time, normally during setup) so
    // the drain event never peeks at client state across shards.  If
    // the client moved before @p at, the stale home still drains, but
    // the client ignores a Rehome command from a host it already left.
    Client &c = *clients[vm_index];
    const unsigned home = c.rack_home;
    const uint32_t device_id = c.blkDeviceId();
    if (home == target)
        return;
    auto &sim = rack_.sim();
    sim::ShardScope scope(sim, 1 + cfg_.num_vmhosts + home);
    sim.events().scheduleAt(at, [this, home, device_id, target]() {
        rio[home].iohv->beginRehome(device_id, uint16_t(target));
    });
}

sim::Tick
VrioModel::clientLastBlackout(unsigned vm_index) const
{
    return clients.at(vm_index)->last_blackout_;
}

} // namespace vrio::models
