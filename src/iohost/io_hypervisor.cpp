#include "iohost/io_hypervisor.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "block/alignment.hpp"
#include "sim/ticks.hpp"
#include "util/logging.hpp"

namespace vrio::iohost {

using transport::MessageAssembler;
using transport::MsgType;
using transport::TransportHeader;

IoHypervisor::IoHypervisor(sim::Simulation &sim, std::string name,
                           hv::Machine &machine, IoHypervisorConfig cfg)
    : SimObject(sim, std::move(name)), cfg(cfg), machine(machine),
      steer(cfg.num_workers),
      reasm(std::make_unique<transport::Reassembler>(sim.events(),
                                                     cfg.mtu)),
      worker_inflight(cfg.num_workers, 0),
      worker_epoch(cfg.num_workers, 0),
      watchdog_last_completed(cfg.num_workers, 0),
      watchdog_stuck(cfg.num_workers, 0),
      probe_outstanding(cfg.num_workers, false)
{
    vrio_assert(cfg.first_worker_core + cfg.num_workers <=
                    machine.coreCount(),
                "IOhost machine has too few cores for ",
                cfg.num_workers, " workers");
    // Telemetry handles: resolved once here, bumped raw on the
    // datapath.  One series per instance, labeled {iohv=<name>}.
    auto &m = sim.telemetry().metrics;
    telemetry::Labels l{{"iohv", this->name()}};
    messages = &m.counter("iohost.messages", l);
    net_forwarded = &m.counter("iohost.net_forwarded", l);
    blk_ops = &m.counter("iohost.blk_ops", l);
    copied_bytes = &m.counter("iohost.copied_bytes", l);
    irqs_taken = &m.counter("iohost.irqs_taken", l);
    acks = &m.counter("iohost.acks", l);
    offline_rx_drops = &m.counter("iohost.offline_rx_drops", l);
    offline_tx_drops = &m.counter("iohost.offline_tx_drops", l);
    polls = &m.counter("iohost.polls", l);
    foreign_rx = &m.counter("iohost.foreign_rx_messages", l);
    heartbeats_sent = &m.counter("iohost.heartbeats_sent", l);
    coalesce_staged = &m.counter("rack.coalesce.staged", l);
    coalesce_runs = &m.counter("rack.coalesce.runs", l);
    coalesce_merged = &m.counter("rack.coalesce.merged_parts", l);
    if (cfg.qos) {
        qsched_ = std::make_unique<qos::FairScheduler>(cfg.qos_cfg);
        qos_shed_ctr = &m.counter("qos.admission.shed", l);
        qos_defer_ctr = &m.counter("qos.sched.deferrals", l);
        qos_promote_ctr = &m.counter("qos.sched.promotions", l);
    }
    inflight_at_dispatch = &m.histogram("iohost.inflight_at_dispatch", l);
    worker_stats.reserve(cfg.num_workers);
    auto &tr = sim.telemetry().tracer;
    for (unsigned w = 0; w < cfg.num_workers; ++w) {
        telemetry::Labels wl{{"iohv", this->name()},
                             {"worker", std::to_string(w)}};
        worker_stats.push_back(
            {&m.counter("iohost.worker.dispatches", wl),
             &m.histogram("iohost.worker.service_ns", wl),
             &m.histogram("iohost.worker.residency_ns", wl),
             tr.intern(this->name() + ".worker" + std::to_string(w))});
    }
    tr_track = tr.intern(this->name());
    tr_recovery_track = tr.intern("recovery");
    tr_dispatch = tr.intern("iohost.dispatch");
    tr_service = tr.intern("iohost.service");
    tr_tx = tr.intern("iohost.tx");
    tr_heartbeat = tr.intern("recovery.heartbeat");
    tr_wedge = tr.intern("recovery.wedge");
    tr_revive = tr.intern("recovery.revive");
    tr_starved = tr.intern("recovery.starved");
    tr_rehome = tr.intern("recovery.rehome");
    tr_replay = tr.intern("recovery.replay");
    // Pull-style probes: deep transport state sampled only at export.
    m.probe("iohost.reasm.partials_expired", l,
            [this]() { return double(reasm->partialsExpired()); });
    m.probe("iohost.reasm.checksum_drops", l,
            [this]() { return double(reasm->checksumDrops()); });
    m.probe("iohost.dedup.suppressed", l,
            [this]() { return double(dedup.suppressed()); });
    // Recovery machinery is strictly opt-in: with both periods zero
    // (the default) no events are ever scheduled here and a zero-fault
    // run's schedule is byte-identical to one predating this code.
    if (cfg.heartbeat_period > 0) {
        sim.events().schedule(cfg.heartbeat_period,
                              [this]() { heartbeatTick(); });
    }
    if (cfg.watchdog_period > 0) {
        wedges_detected = &m.counter("iohost.wedges_detected", l);
        workers_revived = &m.counter("iohost.workers_revived", l);
        requests_abandoned = &m.counter("iohost.requests_abandoned", l);
        devices_starved = &m.counter("iohost.devices_starved", l);
        sim.events().schedule(cfg.watchdog_period,
                              [this]() { watchdogTick(); });
    }
}

hv::Core &
IoHypervisor::workerCore(unsigned w)
{
    vrio_assert(w < cfg.num_workers, "bad worker ", w);
    return machine.core(cfg.first_worker_core + w);
}

void
IoHypervisor::attachClientNic(net::Nic &nic)
{
    client_nics.push_back(&nic);
    nic.setPromiscuous(true);
    if (cfg.polling) {
        nic.setRxMode(0, net::Nic::RxMode::Poll);
        nic.setRxNotify(0, [this](unsigned) { clientRxNotify(); });
    } else {
        nic.setRxMode(0, net::Nic::RxMode::Interrupt);
        nic.setRxHandler(0, [this](unsigned) {
            // vRIO w/o poll: the IOhost takes a physical interrupt
            // per (coalesced) arrival; charge the IRQ path, then
            // drain the ring from the handler.
            irqs_taken->inc();
            workerCore(0).run(cfg.interrupt_cycles,
                              [this]() { pumpClientRings(); });
        });
    }
}

void
IoHypervisor::mapClientPort(net::MacAddress t_mac, size_t port_index)
{
    vrio_assert(port_index < client_nics.size(), "bad client port ",
                port_index);
    client_port_of[t_mac] = port_index;
}

void
IoHypervisor::attachExternalNic(net::Nic &nic)
{
    vrio_assert(!external_nic, "external NIC already attached");
    external_nic = &nic;
    nic.setPromiscuous(true);
    if (cfg.polling) {
        nic.setRxMode(0, net::Nic::RxMode::Poll);
        nic.setRxNotify(0, [this](unsigned) { externalRxNotify(); });
    } else {
        nic.setRxMode(0, net::Nic::RxMode::Interrupt);
        nic.setRxHandler(0, [this](unsigned) {
            irqs_taken->inc();
            workerCore(0).run(cfg.interrupt_cycles,
                              [this]() { pumpExternalRings(); });
        });
    }
}

void
IoHypervisor::addNetDevice(NetDeviceEntry entry)
{
    vrio_assert(net_devices.emplace(entry.device_id, entry).second,
                "duplicate net device ", entry.device_id);
    f_mac_index[entry.f_mac] = entry.device_id;
}

void
IoHypervisor::addBlockDevice(BlockDeviceEntry entry)
{
    vrio_assert(entry.device != nullptr, "block device must be backed");
    vrio_assert(blk_devices.emplace(entry.device_id, entry).second,
                "duplicate block device ", entry.device_id);
}

void
IoHypervisor::sendDeviceCreate(const transport::DeviceCreateCmd &cmd,
                               net::MacAddress t_mac)
{
    Bytes payload;
    ByteWriter w(payload);
    cmd.encode(w);
    TransportHeader hdr;
    hdr.type = MsgType::DevCreate;
    hdr.device_id = cmd.device_id;
    hdr.total_len = uint32_t(payload.size());
    sendToClient(t_mac, hdr, payload);
}

// -- crash / restart ------------------------------------------------------

template <typename More, typename Handle>
uint64_t
IoHypervisor::drainRing(net::Nic &nic, More more, Handle handle)
{
    std::vector<net::FramePtr> batch = std::exchange(rx_batch, {});
    uint64_t taken = 0;
    while (nic.rxPending(0) > 0 && more()) {
        taken += nic.rxTake(0, cfg.batch_max, batch);
        handle(batch);
    }
    batch.clear();
    rx_batch = std::move(batch);
    return taken;
}

namespace {

bool always() { return true; }
void discard(std::vector<net::FramePtr> &) {}

} // namespace

void
IoHypervisor::discardRings()
{
    for (net::Nic *nic : client_nics)
        offline_rx_drops->add(drainRing(*nic, always, discard));
    if (external_nic)
        offline_rx_drops->add(drainRing(*external_nic, always, discard));
}

void
IoHypervisor::setOffline(bool off)
{
    if (offline_ == off)
        return;
    offline_ = off;
    if (off) {
        // Frames sitting in the rings at crash time are lost, as is
        // any partially reassembled message state (partials also age
        // out of the reassembler on their own timeout).
        discardRings();
        // Requests staged in the coalescer die with the crash too.
        staged.clear();
        staged_total = 0;
        if (coalesce_timer_armed) {
            coalesce_timer.cancel();
            coalesce_timer_armed = false;
        }
        // In-service duplicate-suppression state dies with the crash;
        // the clients replay, and replaying is safe (Section 4.5).
        dedup.clear();
        device_progress.clear();
        // Requests queued in the QoS scheduler die with the crash the
        // same way — clients replay them at whatever home they land
        // on, and virtual time restarts from zero.
        if (qsched_) {
            qsched_->clear();
            qos_pending.clear();
            qos_live.clear();
            qos_inflight = 0;
        }
        // Held responses die unsent: their clients retry, and the
        // retry either hits the peer's committed table (the Commit
        // record made it) or re-executes at the new home (it did
        // not).  Exactly once at the surviving store, either way.
        held_responses.clear();
        pending_rehomes.clear();
        if (repl_)
            repl_->reset(incarnation_);
        return;
    }
    // Restart: new incarnation (stamped into heartbeats so clients can
    // tell a restarted IOhost from a slow one), then resume servicing
    // whatever arrived since the last drain.
    ++incarnation_;
    if (repl_)
        repl_->reset(incarnation_);
    pumpClientRings();
    if (external_nic)
        pumpExternalRings();
    if (repl_nic)
        pumpReplicationRing();
}

// -- failure detection / recovery -----------------------------------------

void
IoHypervisor::heartbeatTick()
{
    // Self-rescheduling beacon.  A crashed IOhost stays silent — that
    // silence is exactly what clients detect — but the timer keeps
    // running so beats resume the instant it restarts.
    sim().events().schedule(cfg.heartbeat_period,
                            [this]() { heartbeatTick(); });
    if (offline_)
        return;
    ++hb_seq;
    transport::HeartbeatMsg beat;
    beat.seq = hb_seq;
    beat.incarnation = incarnation_;
    if (cfg.advertise_load) {
        beat.has_load = true;
        beat.load_ns = takeLoadDigest();
    }
    Bytes payload;
    ByteWriter w(payload);
    beat.encode(w);
    TransportHeader hdr;
    hdr.type = MsgType::Heartbeat;
    hdr.total_len = uint32_t(payload.size());
    // One beat per distinct client T-MAC across every consolidated
    // device — a client with net and block devices gets one beat.
    std::set<net::MacAddress> targets;
    for (const auto &[id, dev] : net_devices)
        targets.insert(dev.t_mac);
    for (const auto &[id, dev] : blk_devices)
        targets.insert(dev.t_mac);
    for (const net::MacAddress &mac : targets) {
        sendToClient(mac, hdr, payload);
        heartbeats_sent->inc();
    }
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.instant(tr_recovery_track, tr_heartbeat,
                   sim().events().now(), telemetry::cat::kRecovery,
                   hb_seq);
    }
}

void
IoHypervisor::watchdogTick()
{
    sim().events().schedule(cfg.watchdog_period,
                            [this]() { watchdogTick(); });
    if (offline_)
        return;
    for (unsigned w = 0; w < cfg.num_workers; ++w) {
        // Progress signal: the core's completion counter.  Compare
        // with != (resetStats may rewind it), and only count a pass
        // against a worker that actually has steered work.
        uint64_t done = workerCore(w).resource().completed();
        bool busy = steer.workerLoad(w) > 0;
        if (steer.isDown(w) || !busy ||
            done != watchdog_last_completed[w]) {
            watchdog_stuck[w] = 0;
        } else if (++watchdog_stuck[w] >= cfg.watchdog_threshold) {
            declareWorkerWedged(w);
        }
        watchdog_last_completed[w] = done;
    }
    // Per-queue starvation pass (the worker check's blind spot): a
    // device with in-service duplicate-filter entries but no
    // completions is starved even when its worker keeps completing
    // other devices' work — or when the backend swallowed the request
    // outright, after the first stage already balanced the steering
    // accounting, which no worker-level signal can ever see.
    for (const auto &[id, dev] : blk_devices) {
        DeviceProgress &p = device_progress[id];
        if (dedup.inServiceOf(id) == 0 ||
            p.completions != p.last_completions) {
            p.stuck = 0;
        } else if (++p.stuck >= cfg.watchdog_threshold) {
            declareDeviceStarved(id);
        }
        p.last_completions = p.completions;
    }
}

void
IoHypervisor::declareDeviceStarved(uint32_t device_id)
{
    devices_starved->inc();
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.instant(tr_recovery_track, tr_starved, sim().events().now(),
                   telemetry::cat::kRecovery, device_id);
    }
    // Quarantine the queue: drop its in-service entries so the
    // clients' retries re-admit and re-execute, instead of being
    // suppressed forever by state whose execution is lost.
    dedup.dropDevice(device_id);
    device_progress[device_id].stuck = 0;
}

void
IoHypervisor::noteDeviceProgress(uint32_t device_id)
{
    ++device_progress[device_id].completions;
}

void
IoHypervisor::declareWorkerWedged(unsigned worker)
{
    wedges_detected->inc();
    last_wedge_tick = sim().events().now();
    // Declared after exactly `threshold` consecutive no-progress
    // passes, so this is the time since the worker was last seen
    // making progress.
    last_wedge_latency =
        sim::Tick(cfg.watchdog_threshold) * cfg.watchdog_period;
    watchdog_stuck[worker] = 0;
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.instant(tr_recovery_track, tr_wedge, last_wedge_tick,
                   telemetry::cat::kRecovery, worker);
    }

    // Re-steer: devices pinned to the wedged worker forget their
    // in-flight requests (the clients replay them) and pick a healthy
    // worker on their next request.
    requests_abandoned->add(steer.quarantine(worker));
    // Without this, the abandoned requests' in-service entries would
    // suppress the very retries that are supposed to recover them.
    dedup.dropWorker(worker);
    // Jobs stranded behind the wedge self-suppress via the epoch.
    ++worker_epoch[worker];
    vrio_assert(inflight >= worker_inflight[worker],
                "inflight accounting out of sync");
    inflight -= worker_inflight[worker];
    worker_inflight[worker] = 0;

    // Queue a probe behind the wedge: the moment the core serves it
    // again (the wedge cleared), the worker is readmitted.
    if (!probe_outstanding[worker]) {
        probe_outstanding[worker] = true;
        workerCore(worker).run(1.0,
                               [this, worker]() { reviveWorker(worker); });
    }

    // The reclaimed intake budget lets the healthy workers take over.
    pumpClientRings();
    if (external_nic)
        pumpExternalRings();
}

void
IoHypervisor::reviveWorker(unsigned worker)
{
    probe_outstanding[worker] = false;
    workers_revived->inc();
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.instant(tr_recovery_track, tr_revive, sim().events().now(),
                   telemetry::cat::kRecovery, worker);
    }
    steer.markUp(worker);
}

// -- client-channel ingress ---------------------------------------------

void
IoHypervisor::clientRxNotify()
{
    if (offline_) {
        discardRings();
        return;
    }
    if (pump_scheduled)
        return;
    pump_scheduled = true;
    sim().events().schedule(cfg.poll_pickup, [this]() {
        pump_scheduled = false;
        pumpClientRings();
    });
}

bool
IoHypervisor::intakeAllowed() const
{
    // Replication backpressure: when the peer lags a whole window of
    // unacked mirror records, stop admitting.  Frames queue in the RX
    // rings (and overflow to client retransmission) instead of piling
    // up responses this host is not allowed to release yet.
    if (repl_ && repl_->windowFull())
        return false;
    // With QoS on, the rings drain into the scheduler where policy
    // (fair ordering, admission shed) applies — queueing in a dumb RX
    // ring is exactly the head-of-line blocking the subsystem exists
    // to remove.  Occupancy is bounded by admission control, not by
    // worker backlog.
    if (qsched_)
        return true;
    return inflight < size_t(cfg.num_workers) * cfg.batch_max;
}

void
IoHypervisor::stageDone(unsigned worker)
{
    vrio_assert(inflight > 0, "stageDone underflow");
    --inflight;
    vrio_assert(worker_inflight[worker] > 0,
                "worker inflight underflow");
    --worker_inflight[worker];
    // A freed first-stage slot serves the scheduler before the rings:
    // queued-and-ordered work outranks fresh intake.
    if (qsched_)
        qosPump();
    // A worker went idle: it takes the next batch off the rings.
    pumpClientRings();
    if (external_nic)
        pumpExternalRings();
}

unsigned
IoHypervisor::handOff(uint32_t device_id, bool count_dispatch)
{
    ++inflight;
    unsigned w = steer.steer(device_id);
    ++worker_inflight[w];
    if (count_dispatch)
        worker_stats[w].dispatches->inc();
    return w;
}

bool
IoHypervisor::closeFirstStage(unsigned worker, uint64_t epoch, sim::Tick t0,
                              uint32_t device_id)
{
    // Quarantined while queued: steering and intake accounting were
    // reconciled by the watchdog, and the client replays.
    if (epoch != worker_epoch[worker])
        return false;
    worker_stats[worker].residency_ns->record(
        (sim().events().now() - t0) / 1000);
    steer.complete(device_id, worker);
    stageDone(worker);
    return true;
}

void
IoHypervisor::pumpClientRings()
{
    vrio_assert(!client_nics.empty(), "no client NIC");
    if (offline_) {
        discardRings();
        return;
    }
    for (size_t i = 0; i < client_nics.size(); ++i) {
        drainRing(
            *client_nics[i], [this]() { return intakeAllowed(); },
            [this, i](std::vector<net::FramePtr> &batch) {
                polls->inc();
                pending_batch_cycles += cfg.batch_fixed_cycles;
                for (const auto &frame : batch) {
                    // Learn which port this client is behind.
                    client_port_of[frame->ether().src] = i;
                    handleWireFrame(frame);
                }
            });
    }
}

void
IoHypervisor::handleWireFrame(const net::FramePtr &frame)
{
    auto msg = reasm->feed(*frame);
    if (!msg)
        return;
    auto req = assembler.feed(std::move(*msg));
    if (!req)
        return;
    dispatch(std::move(*req));
}

void
IoHypervisor::dispatch(MessageAssembler::Assembled req)
{
    messages->inc();
    inflight_at_dispatch->record(inflight);
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.instant(tr_track, tr_dispatch, sim().events().now(),
                   telemetry::cat::kIo, req.hdr.request_serial);
    }
    // A request for a device this IOhost does not serve is foreign:
    // turned away here, before dedup and steering, it leaves no
    // intake, in-service or mirrored state behind.
    if ((req.hdr.type == MsgType::NetOut &&
         !net_devices.contains(req.hdr.device_id)) ||
        (req.hdr.type == MsgType::BlkReq &&
         !blk_devices.contains(req.hdr.device_id))) {
        foreign_rx->inc();
        return;
    }
    switch (req.hdr.type) {
      case MsgType::NetOut: {
        unsigned w = handOff(req.hdr.device_id);
        execNet(w, std::move(req));
        break;
      }
      case MsgType::BlkReq: {
        // Retry of a write the dead primary committed before its
        // crash: the mirrored committed table answers it — executing
        // again would double-apply a write the client already saw
        // acknowledged.
        if (repl_) {
            uint16_t cgen = 0;
            if (repl_->committedLookup(req.hdr.device_id,
                                       req.hdr.request_serial, cgen)) {
                commit_hits->inc();
                TransportHeader resp = req.hdr;
                resp.type = MsgType::BlkResp;
                resp.status = uint8_t(virtio::BlkStatus::Ok);
                resp.total_len = 0;
                resp.generation = std::max(req.hdr.generation, cgen);
                sendToClient(blk_devices.at(req.hdr.device_id).t_mac,
                             resp, {});
                break;
            }
        }
        // Server side of the Section 4.5 unique-id rule: a
        // retransmission of a request still in service must not
        // execute twice.
        if (!dedup.admit(req.hdr.device_id, req.hdr.request_serial,
                         req.hdr.generation))
            break;
        // QoS fan-out: the request queues under the fair/deadline
        // discipline and is forwarded when the scheduler pops it, so
        // shed requests never enter the replication stream.
        if (qsched_)
            qosEnqueue(std::move(req));
        else
            forwardBlock(std::move(req));
        break;
      }
      case MsgType::DevAck:
        execAck(std::move(req));
        break;
      case MsgType::ReplicaSync: {
        transport::ReplicaSyncMsg msg;
        ByteReader r(req.payload);
        if (repl_ && transport::ReplicaSyncMsg::decode(r, msg))
            repl_->onSyncMessage(msg, req.src);
        else
            foreign_rx->inc();
        break;
      }
      case MsgType::ReplicaAck: {
        transport::ReplicaAckMsg ack;
        ByteReader r(req.payload);
        if (repl_ && transport::ReplicaAckMsg::decode(r, ack))
            repl_->onAckMessage(ack, req.src);
        else
            foreign_rx->inc();
        break;
      }
      case MsgType::Rehome: {
        // The activation half of a placement flip: a client newly
        // homed here asks for its warm state to be promoted.  The
        // Command half is IOhost -> client; one flooded our way is
        // foreign, same as any other client-bound type below.
        transport::RehomeCmd cmd;
        ByteReader r(req.payload);
        if (repl_ && transport::RehomeCmd::decode(r, cmd) &&
            cmd.phase == transport::RehomeCmd::Phase::Activate) {
            activateWarmState(cmd.device_id, cmd.floor_serial);
        } else {
            foreign_rx->inc();
        }
        break;
      }
      case MsgType::NetIn:
      case MsgType::BlkResp:
      case MsgType::DevCreate:
      case MsgType::DevDestroy:
      case MsgType::Heartbeat:
        // Client-bound traffic that the switch flooded our way before
        // learning the client's port (e.g. another IOhost's device
        // announcements reaching a peer IOhost): not ours to process.
        foreign_rx->inc();
        break;
      default:
        vrio_warn("IOhost ignoring unexpected message type ",
                  transport::msgTypeName(req.hdr.type));
    }
}

double
IoHypervisor::interposeCycles(interpose::Chain *chain, size_t bytes) const
{
    return chain ? chain->cycleCost(bytes) : 0.0;
}

double
IoHypervisor::takeBatchCycles()
{
    double cycles = pending_batch_cycles;
    pending_batch_cycles = 0;
    return cycles;
}

double
IoHypervisor::disturbanceCycles()
{
    auto &rng = sim().random();
    double cycles = 0;
    auto draw = [&rng](double mean, double cap) {
        double us = rng.exponential(mean);
        return cap > 0 && us > cap ? cap : us;
    };
    if (cfg.jitter_p > 0 && rng.bernoulli(cfg.jitter_p)) {
        cycles += draw(cfg.jitter_mean_us, cfg.jitter_cap_us) *
                  cfg.worker_ghz * 1e3;
    }
    if (cfg.stall_p > 0 && rng.bernoulli(cfg.stall_p)) {
        cycles += draw(cfg.stall_mean_us, cfg.stall_cap_us) *
                  cfg.worker_ghz * 1e3;
    }
    return cycles;
}

void
IoHypervisor::recordService(unsigned worker, double cycles)
{
    // cycles / GHz = nanoseconds.
    worker_stats[worker].service_ns->record(
        uint64_t(cycles / cfg.worker_ghz));
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.span(worker_stats[worker].trace_track, tr_service,
                sim().events().now(),
                sim::cyclesToTicks(cycles, cfg.worker_ghz),
                telemetry::cat::kIo, worker);
    }
}

void
IoHypervisor::execNet(unsigned worker, MessageAssembler::Assembled req)
{
    const NetDeviceEntry &dev = net_devices.at(req.hdr.device_id);
    double cycles = cfg.net_fixed_cycles +
                    cfg.net_per_byte_cycles * double(req.payload.size()) +
                    interposeCycles(dev.chain, req.payload.size()) +
                    takeBatchCycles() + disturbanceCycles();
    if (!req.zero_copy) {
        cycles += cfg.copy_per_byte_cycles * double(req.payload.size());
        copied_bytes->add(req.payload.size());
    }

    recordService(worker, cycles);
    uint32_t device_id = req.hdr.device_id;
    uint64_t epoch = worker_epoch[worker];
    sim::Tick t0 = sim().events().now();
    workerCore(worker).runPreempt(cycles, [this, worker, epoch, device_id, t0,
                                    req = std::move(req)]() mutable {
        if (!closeFirstStage(worker, epoch, t0, device_id))
            return;
        // The payload is the guest's L2 frame; run interposition and
        // forward it out the external port.
        const NetDeviceEntry &dev = net_devices.at(device_id);
        if (dev.chain) {
            interpose::IoContext ctx;
            ctx.dir = interpose::Direction::FromClient;
            ctx.device_id = device_id;
            ctx.is_block = false;
            net::EtherHeader eh;
            if (req.payload.size() >= net::kEtherHeaderSize) {
                ByteReader r(req.payload);
                eh = net::EtherHeader::decode(r);
                ctx.src = eh.src;
                ctx.dst = eh.dst;
                ctx.ether_type = eh.ether_type;
            }
            double chain_cycles = 0; // pre-charged above
            if (!dev.chain->run(ctx, req.payload, chain_cycles))
                return; // dropped by a service (e.g. firewall)
            // Services may rewrite L2 addresses (SDN); apply them.
            if ((ctx.dst != eh.dst || ctx.src != eh.src) &&
                req.payload.size() >= net::kEtherHeaderSize) {
                eh.dst = ctx.dst;
                eh.src = ctx.src;
                Bytes hdr;
                ByteWriter w(hdr);
                eh.encode(w);
                std::copy(hdr.begin(), hdr.end(), req.payload.begin());
            }
        }

        vrio_assert(external_nic, "no external NIC");
        auto out = std::make_shared<net::Frame>();
        out->bytes = std::move(req.payload);
        net_forwarded->inc();
        external_nic->send(0, std::move(out));
        if (!cfg.polling) {
            // TX-done interrupt on the external port (no-poll mode).
            irqs_taken->inc();
            workerCore(0).runPreempt(cfg.interrupt_cycles, []() {});
        }
    });
}

// -- multi-tenant QoS scheduling (DESIGN.md §17) --------------------------

void
IoHypervisor::setTenant(uint32_t device_id, qos::TenantConfig tc)
{
    vrio_assert(qsched_ != nullptr,
                "setTenant requires cfg.qos");
    qsched_->setTenant(device_id, tc);
    auto &m = sim().telemetry().metrics;
    telemetry::Labels l{{"iohv", name()},
                        {"tenant", std::to_string(device_id)}};
    TenantTelemetry tt;
    tt.latency_us = &m.histogram("qos.tenant.latency_us", l);
    tt.slo_violations = &m.counter("qos.slo.violations", l);
    tt.slo = tc.slo;
    qos_tenants[device_id] = tt;
}

uint64_t
IoHypervisor::qosSloViolations() const
{
    uint64_t total = 0;
    for (const auto &[id, tt] : qos_tenants)
        total += tt.slo_violations->value();
    return total;
}

void
IoHypervisor::qosEnqueue(MessageAssembler::Assembled req)
{
    const uint32_t device_id = req.hdr.device_id;
    // Abstract cost: one fixed unit plus the data the workers and the
    // backend actually touch — io_len covers reads (no payload on the
    // request), the payload covers writes.
    double bytes = double(std::max<uint64_t>(req.payload.size(),
                                             req.hdr.io_len));
    double cost = 1.0 + bytes / 4096.0;
    sim::Tick now = sim().events().now();
    uint64_t token = qos_next_token++;
    switch (qsched_->push(device_id, token, cost, now)) {
      case qos::Verdict::Shed:
        // Unwind the admission: release the in-service entry so the
        // client's retransmit timer retries this serial once pressure
        // clears — the same loss-recovery loop a dropped frame uses.
        dedup.take(device_id, req.hdr.request_serial,
                   req.hdr.generation);
        qos_shed_ctr->inc();
        return;
      case qos::Verdict::Deferred:
        qos_defer_ctr->inc();
        break;
      case qos::Verdict::Admitted:
        break;
    }
    qos_live.emplace(std::make_pair(device_id, req.hdr.request_serial),
                     now);
    qos_pending.emplace(token, std::move(req));
    qosPump();
}

void
IoHypervisor::qosPump()
{
    if (offline_)
        return;
    // A slot spans admission to response (see qos_inflight): the
    // default window keeps the worker stage and the store's channel
    // pipelined without letting a FIFO backlog re-form downstream.
    const size_t window =
        cfg.qos_window ? cfg.qos_window : cfg.num_workers * 4;
    while (qos_inflight < window && !(repl_ && repl_->windowFull())) {
        auto p = qsched_->pop(sim().events().now());
        if (!p)
            return;
        if (p->promoted)
            qos_promote_ctr->inc();
        auto it = qos_pending.find(p->token);
        vrio_assert(it != qos_pending.end(), "QoS token ", p->token,
                    " has no pending request");
        MessageAssembler::Assembled req = std::move(it->second);
        qos_pending.erase(it);
        ++qos_inflight;
        forwardBlock(std::move(req));
    }
}

void
IoHypervisor::qosFinish(uint32_t device_id, uint64_t serial)
{
    // Every block response releases its own slot here, staged or not.
    // Misses are warm replays, which never pass through the scheduler.
    auto it = qos_live.find({device_id, serial});
    if (it == qos_live.end())
        return;
    sim::Tick waited = sim().events().now() - it->second;
    qos_live.erase(it);
    if (qos_inflight > 0)
        --qos_inflight;
    auto tt = qos_tenants.find(device_id);
    if (tt != qos_tenants.end()) {
        tt->second.latency_us->record(
            uint64_t(sim::ticksToMicros(waited)));
        if (tt->second.slo && waited > tt->second.slo)
            tt->second.slo_violations->inc();
    }
    // The freed slot is the pump's wake-up signal.
    qosPump();
}

// -- the block datapath: every request runs as a MergedRun (DESIGN §15) --

namespace {

/** @p req as a coalescer entry addressed at backend LBA @p lba. */
transport::CoalesceEntry
toEntry(MessageAssembler::Assembled &req, const BlockDeviceEntry &dev,
        uint64_t lba)
{
    transport::CoalesceEntry e;
    e.device_id = req.hdr.device_id;
    e.serial = req.hdr.request_serial;
    e.generation = req.hdr.generation;
    e.blk_type = req.hdr.blk_type;
    e.ns_id = dev.ns_id;
    e.sector = req.hdr.sector;
    e.lba = lba;
    e.zero_copy = req.zero_copy;
    auto kind = virtio::BlkType(req.hdr.blk_type);
    if (kind == virtio::BlkType::Out) {
        vrio_assert(req.payload.size() % virtio::kSectorSize == 0,
                    "unaligned write payload");
        e.nsectors = uint32_t(req.payload.size() / virtio::kSectorSize);
        e.payload = std::move(req.payload);
    } else if (kind == virtio::BlkType::In ||
               kind == virtio::BlkType::Discard) {
        // Reads and discards carry no payload; the sector count rides
        // in the header's io_len.
        e.nsectors = req.hdr.io_len / virtio::kSectorSize;
    }
    return e;
}

} // namespace

void
IoHypervisor::forwardBlock(MessageAssembler::Assembled req)
{
    mirrorAdmitted(req.hdr, req.payload);
    const BlockDeviceEntry &dev = blk_devices.at(req.hdr.device_id);
    // Interposed devices never stage: a chain transforms exactly one
    // request's payload, which a merged run cannot express.
    if (cfg.coalesce && !dev.chain)
        stageBlock(std::move(req), dev);
    else
        runOne(std::move(req), dev);
}

void
IoHypervisor::runOne(MessageAssembler::Assembled req,
                     const BlockDeviceEntry &dev)
{
    // Known defect, kept on purpose (DESIGN.md §15): a run of one
    // addresses the store at the client sector and ignores
    // dev.sector_offset, which staged requests and the replica's
    // applyMirroredCommit both add.  `dev.sector_offset + req.hdr.sector`
    // here is the whole fix; it raises the rack stores' resident memory.
    uint64_t lba = req.hdr.sector;
    execRun(transport::MergedRun::of(toEntry(req, dev, lba)));
}

void
IoHypervisor::stageBlock(MessageAssembler::Assembled req,
                         const BlockDeviceEntry &dev)
{
    coalesce_staged->inc();
    transport::CoalesceEntry e =
        toEntry(req, dev, dev.sector_offset + req.hdr.sector);
    e.arrival = stage_arrival++;

    // One staging bucket per backing device, in first-seen order (the
    // rack wiring points many device_ids at one shared store — that
    // cross-VM adjacency is what the planner merges).
    StagedBucket *bucket = nullptr;
    for (auto &b : staged)
        if (b.device == dev.device)
            bucket = &b;
    if (!bucket) {
        staged.push_back(StagedBucket{dev.device, {}});
        bucket = &staged.back();
    }
    bucket->entries.push_back(std::move(e));
    if (++staged_total >= cfg.coalesce_max) {
        // Eager flush: a full window's worth arrived before the timer;
        // waiting longer could only add latency, never merge mates.
        flushCoalescer();
        return;
    }
    if (!coalesce_timer_armed) {
        coalesce_timer_armed = true;
        coalesce_timer = sim().events().schedule(
            cfg.coalesce_window, [this]() { flushCoalescer(); });
    }
}

void
IoHypervisor::flushCoalescer()
{
    if (coalesce_timer_armed) {
        coalesce_timer.cancel();
        coalesce_timer_armed = false;
    }
    auto buckets = std::move(staged);
    staged.clear();
    staged_total = 0;
    for (auto &b : buckets) {
        for (auto &run :
             transport::planMergedRuns(std::move(b.entries),
                                       cfg.coalesce_max)) {
            coalesce_runs->inc();
            if (run.merged())
                coalesce_merged->add(run.parts.size());
            execRun(std::move(run));
        }
    }
}

void
IoHypervisor::execRun(transport::MergedRun run)
{
    // The run steers as one unit keyed by its lead (lowest-LBA)
    // member's device; every member's in-service dedup entry binds to
    // that worker so a quarantine releases the whole run for replay.
    uint32_t lead_id = run.parts.front().device_id;
    unsigned w = handOff(lead_id);
    for (const auto &p : run.parts)
        dedup.bind(p.device_id, p.serial, w);
    const BlockDeviceEntry &dev = blk_devices.at(lead_id);

    // Worker cost: one fixed charge for the whole submission (the
    // relocation payoff), per-byte over the bytes actually touched,
    // the zero-copy edge accounting per member write (Section 4.4),
    // the interposition chain, plus a small per-extra-member charge
    // for scatter-gather bookkeeping.  Chained devices never stage, so
    // a chain only ever charges for a run of one.
    bool is_write = virtio::BlkType(run.blk_type) == virtio::BlkType::Out;
    uint64_t copy_bytes = 0;
    size_t touched = 0;
    for (const auto &p : run.parts) {
        if (is_write) {
            auto split = block::splitForZeroCopy(
                TransportHeader::kSize % virtio::kSectorSize,
                p.payload.size(), virtio::kSectorSize);
            copy_bytes += split.copied();
            touched += p.payload.size();
        }
        if (!p.zero_copy)
            copy_bytes += p.payload.size();
    }
    copied_bytes->add(copy_bytes);
    double cycles = cfg.blk_fixed_cycles +
                    cfg.blk_per_byte_cycles * double(touched) +
                    cfg.copy_per_byte_cycles * double(copy_bytes) +
                    interposeCycles(dev.chain,
                                    run.parts.front().payload.size()) +
                    cfg.coalesce_part_cycles *
                        double(run.parts.size() - 1) +
                    takeBatchCycles() + disturbanceCycles();

    recordService(w, cycles);
    uint64_t epoch = worker_epoch[w];
    sim::Tick t0 = sim().events().now();
    workerCore(w).runPreempt(cycles, [this, w, epoch, lead_id, t0, is_write,
                                      run = std::move(run)]() mutable {
        if (!closeFirstStage(w, epoch, t0, lead_id))
            return;
        const BlockDeviceEntry &dev = blk_devices.at(lead_id);
        transport::CoalesceEntry &lead = run.parts.front();

        // Interpose on write payloads before they hit the device.
        if (dev.chain && is_write) {
            interpose::IoContext ctx;
            ctx.dir = interpose::Direction::FromClient;
            ctx.device_id = lead_id;
            ctx.is_block = true;
            ctx.sector = lead.sector;
            double chain_cycles = 0; // pre-charged above
            if (!dev.chain->run(ctx, lead.payload, chain_cycles)) {
                respond(lead, virtio::BlkStatus::IoErr, {});
                return;
            }
        }

        block::BlockRequest breq;
        breq.kind = virtio::BlkType(run.blk_type);
        breq.sector = run.lba;
        breq.nsectors = run.nsectors;
        if (is_write)
            breq.data = run.merged() ? transport::buildRunPayload(run)
                                     : std::move(lead.payload);
        dev.device->submit(
            std::move(breq),
            [this, run = std::move(run)](virtio::BlkStatus status,
                                         Bytes data) mutable {
                // One backend op per run — the merged-visibility
                // counter shape (blk_ops < staged when merging works).
                blk_ops->inc();
                fanBackRun(std::move(run), status, std::move(data));
            });
    });
}

void
IoHypervisor::fanBackRun(transport::MergedRun run, virtio::BlkStatus status,
                         Bytes data)
{
    uint32_t lead_id = run.parts.front().device_id;
    const BlockDeviceEntry &dev = blk_devices.at(lead_id);
    // Interpose on read data flowing back to the client (e.g.
    // decryption): reads of encrypted-at-rest data are transformed by
    // the same chain in the ToClient direction.
    if (dev.chain && status == virtio::BlkStatus::Ok && !data.empty()) {
        interpose::IoContext ctx;
        ctx.dir = interpose::Direction::ToClient;
        ctx.device_id = lead_id;
        ctx.is_block = true;
        ctx.sector = run.parts.front().sector;
        double chain_cycles = 0;
        if (!dev.chain->run(ctx, data, chain_cycles)) {
            status = virtio::BlkStatus::IoErr;
            data.clear();
        }
    }

    // One response-stage worker charge for the whole run, then the
    // split completions fan back per-VM.  Re-binding the in-service
    // entries to this worker means a wedge here releases them too, or
    // the clients' retries would be suppressed forever.
    unsigned w = steer.steer(lead_id);
    for (const auto &p : run.parts)
        dedup.bind(p.device_id, p.serial, w);
    uint64_t epoch = worker_epoch[w];
    double cycles = cfg.blk_fixed_cycles / 2 +
                    cfg.blk_per_byte_cycles * double(data.size()) +
                    interposeCycles(dev.chain, data.size()) +
                    cfg.coalesce_part_cycles *
                        double(run.parts.size() - 1);
    workerCore(w).run(cycles, [this, w, epoch, lead_id,
                               run = std::move(run), status,
                               data = std::move(data)]() mutable {
        if (epoch != worker_epoch[w])
            return;
        steer.complete(lead_id, w);
        // Completions fan back in arrival order, independent of the
        // LBA order the run was assembled in — a client that staged
        // first completes first.
        std::sort(run.parts.begin(), run.parts.end(),
                  [](const transport::CoalesceEntry &a,
                     const transport::CoalesceEntry &b) {
                      return a.arrival < b.arrival;
                  });
        for (const transport::CoalesceEntry &p : run.parts)
            respond(p, status, transport::sliceRunData(run, p, data));
    });
}

void
IoHypervisor::respond(const transport::CoalesceEntry &p,
                      virtio::BlkStatus status,
                      std::span<const uint8_t> data)
{
    TransportHeader resp;
    resp.type = MsgType::BlkResp;
    resp.device_id = p.device_id;
    resp.request_serial = p.serial;
    resp.blk_type = p.blk_type;
    resp.sector = p.sector;
    resp.io_len = p.nsectors * virtio::kSectorSize;
    resp.status = uint8_t(status);
    resp.total_len = uint32_t(data.size());
    // Stamp the newest generation seen, so a response computed for
    // generation g still matches a client that has retried to g+1.
    resp.generation = dedup.take(p.device_id, p.serial, p.generation);
    finishBlockResponse(blk_devices.at(p.device_id).t_mac, resp, data);
}

// -- warm-state replication (DESIGN.md §16) -------------------------------

void
IoHypervisor::attachReplicationNic(net::Nic &nic)
{
    vrio_assert(!repl_nic, "replication NIC already attached");
    repl_nic = &nic;
    nic.setPromiscuous(true);
    nic.setRxMode(0, net::Nic::RxMode::Poll);
    nic.setRxNotify(0, [this](unsigned) { replRxNotify(); });
}

void
IoHypervisor::enableReplication(const ReplicationConfig &rcfg,
                                net::MacAddress peer_mac,
                                net::MacAddress upstream_mac)
{
    vrio_assert(!repl_, "replication already enabled");
    vrio_assert(repl_nic, "attach the replication NIC first");
    Replicator::Hooks hooks;
    hooks.send = [this](MsgType type, const Bytes &payload,
                        net::MacAddress dst) {
        sendReplication(type, payload, dst);
    };
    hooks.apply = [this](const transport::ReplicaRecord &rec) {
        applyMirroredCommit(rec);
    };
    hooks.acked = [this](uint64_t cum) { replicationAcked(cum); };
    repl_ = std::make_unique<Replicator>(sim().events(), rcfg, peer_mac,
                                         upstream_mac, std::move(hooks));
    auto &m = sim().telemetry().metrics;
    telemetry::Labels l{{"iohv", name()}};
    m.probe("repl.lag", l, [this]() { return double(repl_->lag()); });
    m.probe("repl.records_sent", l,
            [this]() { return double(repl_->recordsSent()); });
    m.probe("repl.commits_applied", l,
            [this]() { return double(repl_->commitsApplied()); });
    m.probe("repl.held_responses", l,
            [this]() { return double(held_responses.size()); });
    warm_replays = &m.counter("repl.warm_replays", l);
    commit_hits = &m.counter("repl.commit_hits", l);
    rehomes_issued = &m.counter("repl.rehomes_issued", l);
}

void
IoHypervisor::replRxNotify()
{
    if (offline_) {
        offline_rx_drops->add(drainRing(*repl_nic, always, discard));
        return;
    }
    if (repl_pump_scheduled)
        return;
    repl_pump_scheduled = true;
    sim().events().schedule(cfg.poll_pickup, [this]() {
        repl_pump_scheduled = false;
        pumpReplicationRing();
    });
}

void
IoHypervisor::pumpReplicationRing()
{
    vrio_assert(repl_nic, "no replication NIC");
    if (offline_) {
        offline_rx_drops->add(drainRing(*repl_nic, always, discard));
        return;
    }
    // Pumped without the intake gate: mirror traffic and acks must
    // keep flowing even when request admission is backpressured, or
    // two IOhosts mirroring to each other would deadlock the moment
    // both windows filled.
    drainRing(*repl_nic, always, [this](std::vector<net::FramePtr> &batch) {
        for (const auto &frame : batch)
            handleWireFrame(frame);
    });
}

void
IoHypervisor::sendReplication(MsgType type, const Bytes &payload,
                              net::MacAddress dst)
{
    if (offline_ || !repl_nic)
        return;
    TransportHeader hdr;
    hdr.type = type;
    hdr.total_len = uint32_t(payload.size());
    // Distinct serials keep concurrent multi-part control messages
    // from colliding in the peer's message assembler.
    hdr.request_serial = ++repl_msg_serial;
    net::MacAddress src = repl_nic->queueMac(0);
    transport::forEachPart(
        hdr, payload,
        [&](const TransportHeader &part, std::span<const uint8_t> slice) {
            repl_nic->send(0, transport::encapsulate(
                                  src, dst, next_wire_id++, part, slice));
        });
}

void
IoHypervisor::applyMirroredCommit(const transport::ReplicaRecord &rec)
{
    auto it = blk_devices.find(rec.device_id);
    if (it == blk_devices.end() || rec.payload.empty())
        return;
    if (virtio::BlkType(rec.blk_type) != virtio::BlkType::Out)
        return;
    it->second.device->mirrorWrite(
        it->second.sector_offset + rec.sector,
        std::span<const uint8_t>(rec.payload));
}

void
IoHypervisor::replicationAcked(uint64_t cum_seq)
{
    // Output commit: responses whose Commit record the peer now holds
    // are safe to release — from here on, a crash of this host leaves
    // the acknowledged write readable at the peer.
    while (!held_responses.empty() &&
           held_responses.begin()->first <= cum_seq) {
        HeldResponse r = std::move(held_responses.begin()->second);
        held_responses.erase(held_responses.begin());
        sendToClient(r.t_mac, r.hdr, {});
    }
    // A drain barrier was reached: the peer is warm up to everything
    // mirrored before the re-home began, so command the flip.
    for (auto it = pending_rehomes.begin();
         it != pending_rehomes.end();) {
        if (it->barrier <= cum_seq) {
            issueRehomeCommand(*it);
            it = pending_rehomes.erase(it);
        } else {
            ++it;
        }
    }
    // The window may have reopened; resume admitting queued frames.
    pumpClientRings();
    if (external_nic)
        pumpExternalRings();
}

void
IoHypervisor::mirrorAdmitted(const TransportHeader &hdr,
                             const Bytes &payload)
{
    if (!repl_)
        return;
    // Only writes need their payload at the peer (it applies at
    // commit time); reads and fences mirror descriptor-only.
    Bytes data;
    if (virtio::BlkType(hdr.blk_type) == virtio::BlkType::Out)
        data = payload;
    repl_->mirrorInService(hdr.device_id, hdr.request_serial,
                           hdr.generation, hdr.blk_type, hdr.sector,
                           hdr.io_len, std::move(data));
}

void
IoHypervisor::finishBlockResponse(net::MacAddress t_mac,
                                  const TransportHeader &resp,
                                  std::span<const uint8_t> data)
{
    // A backend completion whose submission predates a crash fires
    // into the offline window: its result dies with the host.
    // Mirroring a Commit here would append to the already-reset
    // replication stream and hold a response that no surviving Commit
    // record can ever release — the client replays at the new home
    // instead.
    if (offline_) {
        offline_tx_drops->inc();
        return;
    }
    noteDeviceProgress(resp.device_id);
    if (qsched_)
        qosFinish(resp.device_id, resp.request_serial);
    if (!repl_) {
        sendToClient(t_mac, resp, data);
        return;
    }
    auto kind = virtio::BlkType(resp.blk_type);
    bool state_changing = kind == virtio::BlkType::Out ||
                          kind == virtio::BlkType::Flush ||
                          kind == virtio::BlkType::Discard;
    if (state_changing &&
        virtio::BlkStatus(resp.status) == virtio::BlkStatus::Ok) {
        // No backend returns data for a state-changing completion, so
        // a held response is header-only.
        vrio_assert(data.empty(), "held block response carries data");
        uint64_t seq = repl_->mirrorCommit(resp.device_id,
                                           resp.request_serial,
                                           resp.generation);
        held_responses.emplace(seq, HeldResponse{t_mac, resp});
        return;
    }
    repl_->mirrorForget(resp.device_id, resp.request_serial);
    sendToClient(t_mac, resp, data);
}

void
IoHypervisor::activateWarmState(uint32_t device_id,
                                uint64_t floor_serial)
{
    if (!repl_)
        return;
    auto it = blk_devices.find(device_id);
    if (it == blk_devices.end())
        return;
    auto entries = repl_->takeWarmInService(device_id);
    uint64_t replayed = 0;
    for (auto &e : entries) {
        // Below the client's lowest outstanding serial means the
        // request already completed at the old home and only its
        // cleanup record was lost — replaying would re-apply a stale
        // write over newer data.
        if (e.serial < floor_serial)
            continue;
        // A client retry that beat the activation already owns the
        // in-service entry; its execution covers this one.
        if (!dedup.seed(device_id, e.serial, e.generation))
            continue;
        warm_replays->inc();
        ++replayed;
        MessageAssembler::Assembled req;
        req.hdr.type = MsgType::BlkReq;
        req.hdr.device_id = device_id;
        req.hdr.request_serial = e.serial;
        req.hdr.generation = e.generation;
        req.hdr.blk_type = e.blk_type;
        req.hdr.sector = e.sector;
        req.hdr.io_len = e.io_len;
        req.payload = std::move(e.payload);
        req.zero_copy = false; // replayed from mirror memory: copies
        // The chain continues downstream: a replayed request mirrors
        // to this host's own peer like any freshly admitted one, then
        // runs at once — no QoS, no staging.
        mirrorAdmitted(req.hdr, req.payload);
        runOne(std::move(req), it->second);
    }
    if (replayed) {
        auto &tr = sim().telemetry().tracer;
        if (tr.enabled()) {
            tr.instant(tr_recovery_track, tr_replay,
                       sim().events().now(), telemetry::cat::kRecovery,
                       replayed);
        }
    }
}

bool
IoHypervisor::beginRehome(uint32_t device_id, uint16_t target)
{
    if (!repl_ || offline_)
        return false;
    auto it = blk_devices.find(device_id);
    if (it == blk_devices.end())
        return false;
    repl_->flush();
    PendingRehome r;
    r.device_id = device_id;
    r.target = target;
    r.t_mac = it->second.t_mac;
    // Everything mirrored so far must be acked by the peer before the
    // client flips — the drain barrier of the drain-mirror-flip.
    r.barrier = repl_->nextSeq() - 1;
    if (repl_->lastAcked() >= r.barrier)
        issueRehomeCommand(r);
    else
        pending_rehomes.push_back(r);
    return true;
}

void
IoHypervisor::issueRehomeCommand(const PendingRehome &r)
{
    rehomes_issued->inc();
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.instant(tr_recovery_track, tr_rehome, sim().events().now(),
                   telemetry::cat::kRecovery, r.device_id);
    }
    transport::RehomeCmd cmd;
    cmd.phase = transport::RehomeCmd::Phase::Command;
    cmd.device_id = r.device_id;
    cmd.target = r.target;
    Bytes payload;
    ByteWriter w(payload);
    cmd.encode(w);
    TransportHeader hdr;
    hdr.type = MsgType::Rehome;
    hdr.device_id = r.device_id;
    hdr.total_len = uint32_t(payload.size());
    sendToClient(r.t_mac, hdr, payload);
}

// -- load digest (rack placement input) -----------------------------------

uint32_t
IoHypervisor::loadDigestPreview() const
{
    uint64_t sum = 0, count = 0;
    for (const auto &ws : worker_stats) {
        sum += ws.residency_ns->sum();
        count += ws.residency_ns->count();
    }
    uint64_t dsum = sum - hb_resid_sum;
    uint64_t dcount = count - hb_resid_count;
    if (dcount)
        return uint32_t(std::min<uint64_t>(dsum / dcount, UINT32_MAX));
    // No completions this beat period.  An idle IOhost advertises 0,
    // but one with steered work and no progress (a wedge, a stall) is
    // the worst possible target — advertise saturation so placement
    // repels instead of attracting.
    for (unsigned w = 0; w < cfg.num_workers; ++w)
        if (steer.workerLoad(w) > 0)
            return UINT32_MAX;
    return inflight > 0 ? UINT32_MAX : 0;
}

uint32_t
IoHypervisor::takeLoadDigest()
{
    uint32_t digest = loadDigestPreview();
    uint64_t sum = 0, count = 0;
    for (const auto &ws : worker_stats) {
        sum += ws.residency_ns->sum();
        count += ws.residency_ns->count();
    }
    hb_resid_sum = sum;
    hb_resid_count = count;
    return digest;
}

void
IoHypervisor::execAck(MessageAssembler::Assembled req)
{
    transport::DeviceAck ack;
    ByteReader r(req.payload);
    if (transport::DeviceAck::decode(r, ack))
        acks->inc();
}

void
IoHypervisor::sendToClient(net::MacAddress t_mac,
                           const TransportHeader &hdr,
                           std::span<const uint8_t> payload)
{
    vrio_assert(!client_nics.empty(), "no client NIC");
    if (offline_) {
        // Work that was in flight when the IOhost died produces no
        // response; the client's retransmission timer covers it.
        offline_tx_drops->inc();
        return;
    }
    auto &tr = sim().telemetry().tracer;
    if (tr.enabled()) {
        tr.instant(tr_track, tr_tx, sim().events().now(),
                   telemetry::cat::kIo, hdr.request_serial);
    }
    auto learned = client_port_of.find(t_mac);
    net::Nic *nic = learned != client_port_of.end()
                        ? client_nics[learned->second]
                        : client_nics.front();
    net::MacAddress src = nic->queueMac(0);
    // Software-segment oversized responses, then one TSO send per part,
    // each encapsulated straight from its slice of the payload.
    transport::forEachPart(
        hdr, payload,
        [&](const TransportHeader &part, std::span<const uint8_t> slice) {
            nic->send(0, transport::encapsulate(src, t_mac, next_wire_id++,
                                                part, slice));
            if (!cfg.polling) {
                // Interrupt-driven IOhost: each transmit completion
                // also interrupts (half of the "4 IOhost interrupts"
                // of Table 3's no-poll row).
                irqs_taken->inc();
                workerCore(0).runPreempt(cfg.interrupt_cycles, []() {});
            }
        });
}

// -- external ingress -----------------------------------------------------

void
IoHypervisor::externalRxNotify()
{
    if (offline_) {
        discardRings();
        return;
    }
    // Reuse the client pump gate: a single poll loop services both
    // rings in practice; modelling one shared pickup delay suffices.
    if (pump_scheduled)
        return;
    pump_scheduled = true;
    sim().events().schedule(cfg.poll_pickup, [this]() {
        pump_scheduled = false;
        pumpExternalRings();
        pumpClientRings();
    });
}

void
IoHypervisor::pumpExternalRings()
{
    vrio_assert(external_nic, "no external NIC");
    if (offline_) {
        discardRings();
        return;
    }
    drainRing(
        *external_nic, [this]() { return intakeAllowed(); },
        [this](std::vector<net::FramePtr> &batch) {
            polls->inc();
            pending_batch_cycles += cfg.batch_fixed_cycles;
            for (auto &frame : batch)
                handleExternalFrame(std::move(frame));
        });
}

void
IoHypervisor::handleExternalFrame(net::FramePtr frame)
{
    net::EtherHeader eh = frame->ether();
    auto idx = f_mac_index.find(eh.dst);
    if (idx == f_mac_index.end())
        return; // not for any consolidated device
    uint32_t device_id = idx->second;
    const NetDeviceEntry &dev = net_devices.at(device_id);

    // External ingress is not a client request: it stays out of the
    // worker dispatch count.
    unsigned worker = handOff(device_id, /*count_dispatch=*/false);
    size_t frame_bytes = frame->bytes.size() + frame->pad;
    double cycles = cfg.net_fixed_cycles +
                    cfg.net_per_byte_cycles * double(frame_bytes) +
                    interposeCycles(dev.chain, frame_bytes) +
                    takeBatchCycles() + disturbanceCycles();

    recordService(worker, cycles);
    uint64_t epoch = worker_epoch[worker];
    sim::Tick t0 = sim().events().now();
    workerCore(worker).runPreempt(cycles, [this, worker, epoch, device_id, t0,
                                    frame = std::move(frame)]() mutable {
        if (!closeFirstStage(worker, epoch, t0, device_id))
            return;
        const NetDeviceEntry &dev = net_devices.at(device_id);
        Bytes payload = std::move(frame->bytes);
        if (dev.chain) {
            interpose::IoContext ctx;
            ctx.dir = interpose::Direction::ToClient;
            ctx.device_id = device_id;
            ctx.is_block = false;
            ByteReader r(payload);
            auto eh = net::EtherHeader::decode(r);
            ctx.src = eh.src;
            ctx.dst = eh.dst;
            ctx.ether_type = eh.ether_type;
            double chain_cycles = 0;
            if (!dev.chain->run(ctx, payload, chain_cycles))
                return;
        }

        TransportHeader hdr;
        hdr.type = MsgType::NetIn;
        hdr.device_id = device_id;
        hdr.total_len = uint32_t(payload.size());
        net_forwarded->inc();
        sendToClient(dev.t_mac, hdr, payload);
    });
}

} // namespace vrio::iohost
