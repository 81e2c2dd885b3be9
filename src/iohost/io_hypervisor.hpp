/**
 * @file
 * The vRIO I/O hypervisor — the software that controls the IOhost
 * (Section 4.1).
 *
 * It owns a set of workers (sidecores), polls the client-facing NIC
 * (or takes interrupts, in the no-poll ablation), reassembles
 * transport messages, steers each request to a worker under the
 * order-preserving policy, runs the per-device interposition chain,
 * and executes the back-end action: forwarding guest packets out the
 * external NIC, delivering external packets to guests, or performing
 * block I/O against consolidated devices.
 */
#ifndef VRIO_IOHOST_IO_HYPERVISOR_HPP
#define VRIO_IOHOST_IO_HYPERVISOR_HPP

#include <map>
#include <memory>

#include "block/block_device.hpp"
#include "hv/core.hpp"
#include "interpose/service.hpp"
#include "iohost/replication.hpp"
#include "iohost/steering.hpp"
#include "net/nic.hpp"
#include "qos/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/coalesce.hpp"
#include "transport/control.hpp"
#include "transport/reassembly.hpp"
#include "transport/segmenter.hpp"

namespace vrio::iohost {

struct IoHypervisorConfig
{
    unsigned num_workers = 1;
    /** First machine core used as a worker (cores [first, first+n)). */
    unsigned first_worker_core = 0;

    /** Poll the NICs (vRIO) or take interrupts (vRIO w/o poll). */
    bool polling = true;

    uint32_t mtu = net::kMtuVrioJumbo;

    // -- cycle costs, charged to worker cores ------------------------
    /**
     * Per poll batch (ring scan, wakeup, prefetch).  Charged once per
     * batch taken off a ring, so it amortizes across messages under
     * load but is paid in full by every lone ping-pong packet.
     */
    double batch_fixed_cycles = 1800;
    /** Per net message: decapsulate + backend + re-encapsulate. */
    double net_fixed_cycles = 1600;
    double net_per_byte_cycles = 1.4;
    /** Per block request: decapsulate + backend + response. */
    double blk_fixed_cycles = 3600;
    double blk_per_byte_cycles = 0.5;
    /** Extra per copied byte (unaligned edges, non-zero-copy SKBs). */
    double copy_per_byte_cycles = 0.35;
    /** Per physical interrupt in no-poll mode. */
    double interrupt_cycles = 4400;

    /**
     * Worker service-time disturbances (jitter and rare stalls);
     * probability + exponential mean in microseconds.
     */
    double jitter_p = 0;
    double jitter_mean_us = 0;
    double stall_p = 0;
    double stall_mean_us = 0;
    double jitter_cap_us = 0;
    double stall_cap_us = 0;
    /** Worker clock for converting stall time to cycles. */
    double worker_ghz = 2.7;

    /** Frame-arrival to worker pickup when polling and idle. */
    sim::Tick poll_pickup = sim::Tick(300) * sim::kNanosecond;
    /** Max frames taken from a ring per poll batch. */
    size_t batch_max = 16;

    // -- failure detection (all disabled by default: a zero-config
    // -- IOhost schedules no extra events and perturbs nothing) ------
    /**
     * Liveness beacon period: every period, send one Heartbeat
     * message to each known client T-MAC (0 = no heartbeats).
     */
    sim::Tick heartbeat_period = 0;
    /**
     * Worker watchdog period (0 = no watchdog).  Each pass compares
     * every worker's completion counter against the last pass; a
     * worker with steered work but no progress for
     * `watchdog_threshold` consecutive passes is declared wedged and
     * quarantined: its devices re-steer to healthy workers and its
     * in-flight requests are abandoned for the clients to replay.
     */
    sim::Tick watchdog_period = 0;
    unsigned watchdog_threshold = 2;

    // -- rack layer (DESIGN.md §15; all off by default) ---------------
    /**
     * Cross-VM request coalescing at this fan-out point: block
     * requests of unchained devices stage briefly and flush as merged
     * backend runs (transport/coalesce.hpp).  Off = every request runs
     * at once as a run of one, one backend submission each.  Composes
     * with `qos`: the scheduler's picks are what stages.
     */
    bool coalesce = false;
    /** Merge window; staged requests flush after this long. */
    sim::Tick coalesce_window = sim::Tick(2) * sim::kMicrosecond;
    /** Eager-flush threshold and per-run member cap. */
    size_t coalesce_max = 8;
    /** Worker cycles per extra member merged into a run. */
    double coalesce_part_cycles = 400;
    /**
     * Piggyback a load digest (beat-period mean worker residency, ns)
     * in heartbeats so clients can make rack placement decisions.
     * Adds 4 bytes per beat; off keeps the wire format historical.
     */
    bool advertise_load = false;

    // -- multi-tenant QoS (DESIGN.md §17; off by default) --------------
    /**
     * Weighted-fair / deadline scheduling at the fan-out point: block
     * requests queue in a per-tenant `qos::FairScheduler` instead of
     * being forwarded FIFO, and admission control sheds over-budget
     * tenants under pressure.  Off = requests forward as they arrive.
     * With `coalesce` on, the scheduler orders what the coalescer
     * merges: each pick is forwarded into the staging buffer.
     */
    bool qos = false;
    qos::SchedulerConfig qos_cfg;
    /**
     * End-to-end admitted requests while QoS paces the fan-out
     * (0 = four per worker).  A slot spans admission to response —
     * it covers the worker stage *and* the shared store channel
     * behind it — so queueing lives in the scheduler, where policy
     * applies, not in downstream backlogs the policy can't reach.
     * Four per worker keeps the worker/store pipeline full.
     */
    unsigned qos_window = 0;
};

/** A guest-facing net device consolidated on the IOhost. */
struct NetDeviceEntry
{
    uint32_t device_id = 0;
    /** The front-end (F) MAC the outside world addresses. */
    net::MacAddress f_mac;
    /** The client's transport-channel (T) MAC. */
    net::MacAddress t_mac;
    /** Interposition chain (may be null). */
    interpose::Chain *chain = nullptr;
};

/** A guest-facing block device backed by an IOhost-local device. */
struct BlockDeviceEntry
{
    uint32_t device_id = 0;
    net::MacAddress t_mac;
    block::BlockDevice *device = nullptr;
    interpose::Chain *chain = nullptr;
    /**
     * This device's region on a shared backing store: client sector s
     * maps to backend LBA sector_offset + s.  0 = whole device (the
     * historical per-VM backing).
     */
    uint64_t sector_offset = 0;
    /** Namespace id for the coalescer's FLUSH/TRIM fences. */
    uint32_t ns_id = 0;
};

class IoHypervisor : public sim::SimObject
{
  public:
    IoHypervisor(sim::Simulation &sim, std::string name,
                 hv::Machine &machine, IoHypervisorConfig cfg);

    /**
     * NIC wired (directly or via switch) toward IOclients.  May be
     * called several times — Fig. 2b wires one IOhost port per
     * VMhost; egress learns which port leads to which client T-MAC
     * from ingress traffic.
     */
    void attachClientNic(net::Nic &nic);

    /**
     * Statically map a client T-MAC to a client NIC index (rack
     * wiring is known at configuration time); ingress learning still
     * updates the map if a client moves.
     */
    void mapClientPort(net::MacAddress t_mac, size_t port_index);

    /** NIC wired to the rack switch / outside world. */
    void attachExternalNic(net::Nic &nic);

    void addNetDevice(NetDeviceEntry entry);
    void addBlockDevice(BlockDeviceEntry entry);

    /**
     * Push a DevCreate command to the IOclient behind @p t_mac
     * (Section 4.1: device creation is done via the I/O hypervisor).
     */
    void sendDeviceCreate(const transport::DeviceCreateCmd &cmd,
                          net::MacAddress t_mac);

    hv::Core &workerCore(unsigned w);
    const SteeringPolicy &steering() const { return steer; }

    /**
     * Crash / restart the IOhost (fault injection).  While offline
     * every RX frame is discarded, ring pumps stop, and responses are
     * suppressed — clients see pure loss and must retransmit
     * (Section 4.5).  Coming back online resumes ring service;
     * in-flight state lost to the crash is recovered by client
     * retransmission, which is safe because the consolidated disk
     * scheduler admits one outstanding request per block.
     */
    void setOffline(bool off);
    bool offline() const { return offline_; }

    // -- warm-state replication (DESIGN.md §16) -----------------------
    /**
     * NIC carrying the replication control channel (wired to the rack
     * switch).  Its ring is pumped unconditionally — mirror traffic
     * and acks must keep flowing even when request admission is
     * backpressured, or two IOhosts mirroring to each other would
     * deadlock under overload.
     */
    void attachReplicationNic(net::Nic &nic);

    /**
     * Start mirroring warm state to @p peer_mac (the replication NIC
     * of the next rack IOhost) while accepting the inbound mirror
     * stream only from @p upstream_mac (the previous one).  Off by
     * default: an IOhost without a replicator schedules no extra
     * events and holds no responses.
     */
    void enableReplication(const ReplicationConfig &rcfg,
                           net::MacAddress peer_mac,
                           net::MacAddress upstream_mac);

    /** The replication engine, or null when replication is off. */
    Replicator *replicator() { return repl_.get(); }

    /**
     * Live re-homing (drain-mirror-flip): flush the mirror stream,
     * wait until the peer's cumulative ack covers everything mirrored
     * so far, then command the client behind @p device_id to re-home
     * onto rack IOhost @p target.  In-service requests keep completing
     * here during the drain (late responses still reach the client);
     * new requests arrive at the target, which activates the warm
     * state this host mirrored.  @return false when replication is
     * off, the device is unknown, or this host is offline.
     */
    bool beginRehome(uint32_t device_id, uint16_t target);

    // -- statistics ---------------------------------------------------
    uint64_t messagesProcessed() const { return messages->value(); }
    uint64_t requestsForwarded() const { return net_forwarded->value(); }
    uint64_t blockOps() const { return blk_ops->value(); }
    uint64_t copiedBytes() const { return copied_bytes->value(); }
    uint64_t interruptsTaken() const { return irqs_taken->value(); }
    uint64_t acksReceived() const { return acks->value(); }
    /** Frames discarded while the IOhost was crashed. */
    uint64_t offlineRxDrops() const { return offline_rx_drops->value(); }
    /** Responses suppressed because the IOhost was crashed. */
    uint64_t offlineTxDrops() const { return offline_tx_drops->value(); }
    const transport::Reassembler &reassembler() const { return *reasm; }

    // -- failure detection / recovery --------------------------------
    uint64_t heartbeatsSent() const { return heartbeats_sent->value(); }
    /** Restart count; stamped into heartbeats. */
    uint32_t incarnation() const { return incarnation_; }
    // -- cross-VM coalescing (cfg.coalesce) ---------------------------
    /** Backend submissions issued by the coalescer. */
    uint64_t coalesceRuns() const { return coalesce_runs->value(); }
    /** Members of multi-request runs (cross-VM merges that paid off). */
    uint64_t coalesceMergedParts() const
    {
        return coalesce_merged->value();
    }
    /** Requests that went through the staging buffer. */
    uint64_t coalesceStaged() const { return coalesce_staged->value(); }
    /** The load digest the next heartbeat would advertise (tests). */
    uint32_t loadDigestPreview() const;
    /** Wedged workers the watchdog detected and quarantined. */
    uint64_t wedgesDetected() const { return valueOf(wedges_detected); }
    /** Quarantined workers readmitted after the probe completed. */
    uint64_t workersRevived() const { return valueOf(workers_revived); }
    /** In-flight requests abandoned to client replay by quarantines. */
    uint64_t requestsAbandoned() const
    {
        return valueOf(requests_abandoned);
    }
    /** Duplicate block requests suppressed (Section 4.5 server side). */
    uint64_t duplicatesSuppressed() const { return dedup.suppressed(); }
    sim::Tick lastWedgeDetectTick() const { return last_wedge_tick; }
    /** Stall-onset-to-quarantine time of the last detection. */
    sim::Tick lastWedgeDetectLatency() const { return last_wedge_latency; }
    /**
     * Devices the per-queue watchdog declared starved (in-service
     * entries but no completions while the workers stayed healthy).
     */
    uint64_t devicesStarved() const { return valueOf(devices_starved); }
    /** Warm in-service entries replayed after a failover activation. */
    uint64_t warmReplays() const { return valueOf(warm_replays); }
    /** Retries acknowledged straight from the warm committed table. */
    uint64_t commitHits() const { return valueOf(commit_hits); }
    /** Live re-home handoffs this host has commanded. */
    uint64_t rehomesIssued() const { return valueOf(rehomes_issued); }
    /** Responses currently held awaiting a peer commit ack. */
    size_t heldResponses() const { return held_responses.size(); }

    // -- multi-tenant QoS (cfg.qos) -----------------------------------
    /**
     * Declare the QoS contract (weight, optional latency SLO) for the
     * tenant behind block device @p device_id and register its
     * per-tenant telemetry series.  Requires cfg.qos.
     */
    void setTenant(uint32_t device_id, qos::TenantConfig tc);
    /** The scheduler, or null when QoS is off. */
    const qos::FairScheduler *qosScheduler() const
    {
        return qsched_.get();
    }
    /** Requests shed by admission control. */
    uint64_t qosSheds() const { return qsched_ ? qsched_->sheds() : 0; }
    /** Requests queued past their share with a finish-tag penalty. */
    uint64_t qosDeferrals() const
    {
        return qsched_ ? qsched_->deferrals() : 0;
    }
    /** Requests served early by the deadline lane. */
    uint64_t qosPromotions() const
    {
        return qsched_ ? qsched_->promotions() : 0;
    }
    /** Requests currently queued in the scheduler. */
    size_t qosQueued() const { return qsched_ ? qsched_->queued() : 0; }
    /** SLO violations observed at response time (all tenants). */
    uint64_t qosSloViolations() const;

  private:
    IoHypervisorConfig cfg;
    hv::Machine &machine;
    std::vector<net::Nic *> client_nics;
    /** Learned client T-MAC -> client NIC index. */
    std::map<net::MacAddress, size_t> client_port_of;
    net::Nic *external_nic = nullptr;

    SteeringPolicy steer;
    std::unique_ptr<transport::Reassembler> reasm;
    transport::MessageAssembler assembler;

    std::map<uint32_t, NetDeviceEntry> net_devices;
    /** F-MAC -> device id, for routing external ingress. */
    std::map<net::MacAddress, uint32_t> f_mac_index;
    std::map<uint32_t, BlockDeviceEntry> blk_devices;

    uint32_t next_wire_id = 1;
    bool pump_scheduled = false;
    bool offline_ = false;
    /**
     * Requests dispatched to workers and not yet through their first
     * processing stage.  Ring intake stops when the workers are this
     * far behind — "a worker that becomes *idle* takes a batch of
     * packets off a relevant NIC receive ring" (Section 4.1) — which
     * is what lets a small RX ring overflow under bursts (the
     * Section 4.5 512-vs-4096 observation).
     */
    size_t inflight = 0;

    /** Batch overhead awaiting attribution to the next message. */
    double pending_batch_cycles = 0;

    // Registry-backed counters (labeled {iohv=<name>}), resolved once
    // in the constructor.
    telemetry::Counter *messages;
    telemetry::Counter *net_forwarded;
    telemetry::Counter *blk_ops;
    telemetry::Counter *copied_bytes;
    telemetry::Counter *irqs_taken;
    telemetry::Counter *acks;
    telemetry::Counter *offline_rx_drops;
    telemetry::Counter *offline_tx_drops;
    telemetry::Counter *polls;
    /** Client-bound or unsolicited control traffic flooded our way. */
    telemetry::Counter *foreign_rx;
    /** Worker backlog depth observed at each dispatch. */
    telemetry::LogHistogram *inflight_at_dispatch;
    /** Per-worker dispatch counts and first-stage service time (ns). */
    struct WorkerStats
    {
        telemetry::Counter *dispatches;
        telemetry::LogHistogram *service_ns;
        telemetry::LogHistogram *residency_ns;
        uint16_t trace_track; ///< "iohost.workerN"
    };
    std::vector<WorkerStats> worker_stats;
    uint16_t tr_track;          ///< "<name>" tracer track
    uint16_t tr_recovery_track; ///< "recovery" tracer track
    uint16_t tr_dispatch;
    uint16_t tr_service;
    uint16_t tr_tx;
    uint16_t tr_heartbeat;
    uint16_t tr_wedge;
    uint16_t tr_revive;
    uint16_t tr_starved;
    uint16_t tr_rehome;
    uint16_t tr_replay;

    // -- failure detection / recovery state --------------------------
    transport::DuplicateFilter dedup;
    /** First-stage dispatches outstanding per worker. */
    std::vector<uint64_t> worker_inflight;
    /**
     * Bumped when a worker is quarantined; jobs capture the epoch at
     * dispatch and self-suppress if it moved, so abandoned work never
     * double-completes steering state or double-executes backends.
     */
    std::vector<uint64_t> worker_epoch;
    std::vector<uint64_t> watchdog_last_completed;
    std::vector<unsigned> watchdog_stuck;
    std::vector<bool> probe_outstanding;
    uint64_t hb_seq = 0;
    uint32_t incarnation_ = 0;
    telemetry::Counter *heartbeats_sent;
    // Watchdog series, registered only when cfg.watchdog_period > 0.
    telemetry::Counter *wedges_detected = nullptr;
    telemetry::Counter *workers_revived = nullptr;
    telemetry::Counter *requests_abandoned = nullptr;
    telemetry::Counter *devices_starved = nullptr;
    sim::Tick last_wedge_tick = 0;
    sim::Tick last_wedge_latency = 0;

    /**
     * Per-device starvation watchdog (the PR 4 blind spot): a device
     * with in-service duplicate-filter entries but no completions is
     * starved even when its worker keeps completing other work — or
     * when a backend swallowed the request outright, which the
     * worker-level check can never see.  Progress is counted at the
     * same points the duplicate filter releases entries.
     */
    struct DeviceProgress
    {
        uint64_t completions = 0;
        uint64_t last_completions = 0;
        unsigned stuck = 0;
    };
    std::map<uint32_t, DeviceProgress> device_progress;

    // -- warm-state replication (DESIGN.md §16) -----------------------
    net::Nic *repl_nic = nullptr;
    std::unique_ptr<Replicator> repl_;
    bool repl_pump_scheduled = false;
    /** Distinguishes concurrent multi-part replication messages. */
    uint64_t repl_msg_serial = 0;
    /** A committed response awaiting the peer's cumulative ack. */
    struct HeldResponse
    {
        net::MacAddress t_mac;
        transport::TransportHeader hdr;
    };
    /** Commit-record sequence -> response, released in seq order. */
    std::map<uint64_t, HeldResponse> held_responses;
    /** An in-progress drain-mirror-flip, waiting on its ack barrier. */
    struct PendingRehome
    {
        uint32_t device_id = 0;
        uint16_t target = 0;
        net::MacAddress t_mac;
        uint64_t barrier = 0;
    };
    std::vector<PendingRehome> pending_rehomes;
    // Replication series, registered by enableReplication().
    telemetry::Counter *warm_replays = nullptr;
    telemetry::Counter *commit_hits = nullptr;
    telemetry::Counter *rehomes_issued = nullptr;

    // -- multi-tenant QoS scheduling (cfg.qos) ------------------------
    /** The policy object; null when QoS is off. */
    std::unique_ptr<qos::FairScheduler> qsched_;
    /** Token -> queued request body (the scheduler holds tokens only). */
    std::map<uint64_t, transport::MessageAssembler::Assembled>
        qos_pending;
    uint64_t qos_next_token = 0;
    /** (device, serial) -> admission tick, for end-to-end latency. */
    std::map<std::pair<uint32_t, uint64_t>, sim::Tick> qos_live;
    /**
     * Scheduler picks whose *response* has not left yet.  Unlike
     * `inflight` (first worker stage only), a QoS slot is held until
     * finishBlockResponse: the backend behind the workers (the shared
     * store's channel) is part of the contended pipeline, and
     * releasing slots at stage end would just let the noisy tenant's
     * backlog re-form there, past the scheduler's reach.
     */
    size_t qos_inflight = 0;
    /** Per-tenant telemetry handles, resolved once in setTenant. */
    struct TenantTelemetry
    {
        telemetry::LogHistogram *latency_us = nullptr;
        telemetry::Counter *slo_violations = nullptr;
        sim::Tick slo = 0;
    };
    std::map<uint32_t, TenantTelemetry> qos_tenants;
    telemetry::Counter *qos_shed_ctr = nullptr;
    telemetry::Counter *qos_defer_ctr = nullptr;
    telemetry::Counter *qos_promote_ctr = nullptr;
    /** Admission verdict + queue for one block request. */
    void qosEnqueue(transport::MessageAssembler::Assembled req);
    /** Forward scheduler picks while end-to-end slots are free. */
    void qosPump();
    /**
     * End-of-request accounting: release the (device, serial) slot,
     * record latency and SLO, and pump the freed slot.
     */
    void qosFinish(uint32_t device_id, uint64_t serial);

    // -- cross-VM request coalescing (cfg.coalesce) -------------------
    /** Staged entries, bucketed per backing device in first-seen
     *  order (grouping by equality only — never ordered by address —
     *  keeps flush order run-to-run deterministic). */
    struct StagedBucket
    {
        block::BlockDevice *device = nullptr;
        std::vector<transport::CoalesceEntry> entries;
    };
    std::vector<StagedBucket> staged;
    size_t staged_total = 0;
    /** Arrival stamp deciding per-VM fan-back order. */
    uint64_t stage_arrival = 0;
    bool coalesce_timer_armed = false;
    sim::EventHandle coalesce_timer;
    telemetry::Counter *coalesce_staged;
    telemetry::Counter *coalesce_runs;
    telemetry::Counter *coalesce_merged;
    /** residency_ns sum/count at the last heartbeat (digest deltas). */
    uint64_t hb_resid_sum = 0;
    uint64_t hb_resid_count = 0;

    /**
     * Frames taken off an RX ring, reused so that taking a batch does
     * not allocate.  Pumps nest (an ack read off one ring can reopen
     * intake and pump another), so drainRing() holds the buffer for
     * its whole loop and a nested drain starts a fresh one.
     */
    std::vector<net::FramePtr> rx_batch;
    /**
     * Take batches off @p nic's ring while it has frames and @p more()
     * holds, handing each batch to @p handle.  @return frames taken.
     */
    template <typename More, typename Handle>
    uint64_t drainRing(net::Nic &nic, More more, Handle handle);

    /** Drain and discard every RX ring (crash semantics). */
    void discardRings();

    // Ingress from the client channel.
    void clientRxNotify();
    void pumpClientRings();
    void handleWireFrame(const net::FramePtr &frame);
    void dispatch(transport::MessageAssembler::Assembled req);
    bool intakeAllowed() const;
    void stageDone(unsigned worker);
    /** Intake accounting + steering for a first-stage job. */
    unsigned handOff(uint32_t device_id, bool count_dispatch = true);
    /** First-stage job prologue; false if the worker was quarantined. */
    bool closeFirstStage(unsigned worker, uint64_t epoch, sim::Tick t0,
                         uint32_t device_id);

    // Failure detection / recovery.
    void heartbeatTick();
    void watchdogTick();
    void declareWorkerWedged(unsigned worker);
    void reviveWorker(unsigned worker);
    void declareDeviceStarved(uint32_t device_id);
    /** A response left for (or was held on behalf of) @p device_id. */
    void noteDeviceProgress(uint32_t device_id);
    /** Beat-period mean worker residency (ns), saturating on wedges. */
    uint32_t takeLoadDigest();

    // Warm-state replication.
    void replRxNotify();
    void pumpReplicationRing();
    void sendReplication(transport::MsgType type, const Bytes &payload,
                         net::MacAddress dst);
    void applyMirroredCommit(const transport::ReplicaRecord &rec);
    void replicationAcked(uint64_t cum_seq);
    /** Mirror an admitted block request to the peer. */
    void mirrorAdmitted(const transport::TransportHeader &hdr,
                        const Bytes &payload);
    /**
     * Route a finished block response: state-changing completions
     * mirror a Commit and hold until the peer acks; reads mirror a
     * Forget and leave immediately.  The no-replication path is a
     * plain sendToClient.
     */
    void finishBlockResponse(net::MacAddress t_mac,
                             const transport::TransportHeader &resp,
                             std::span<const uint8_t> data);
    /**
     * Failover activation: seed the filter and replay warm entries of
     * @p device_id whose serial is >= @p floor_serial (entries below
     * it already completed at the dead primary — their cleanup record
     * was simply lost — and must not be re-applied).
     */
    void activateWarmState(uint32_t device_id, uint64_t floor_serial);
    void issueRehomeCommand(const PendingRehome &r);

    // The block datapath: every admitted request runs as a MergedRun.
    /** Mirror, then stage (coalesce on, no chain) or run at once. */
    void forwardBlock(transport::MessageAssembler::Assembled req);
    /** Run @p req at once as a run of one. */
    void runOne(transport::MessageAssembler::Assembled req,
                const BlockDeviceEntry &dev);
    void stageBlock(transport::MessageAssembler::Assembled req,
                    const BlockDeviceEntry &dev);
    void flushCoalescer();
    /** Worker stage: cost, write chain, one backend submission. */
    void execRun(transport::MergedRun run);
    /** Response stage: read chain, then one response per member. */
    void fanBackRun(transport::MergedRun run, virtio::BlkStatus status,
                    Bytes data);
    /** Answer member @p p with @p status and its slice @p data. */
    void respond(const transport::CoalesceEntry &p,
                 virtio::BlkStatus status, std::span<const uint8_t> data);

    // Request execution on worker cores.
    /** Service-time histogram + tracer span for one worker stage. */
    void recordService(unsigned worker, double cycles);
    void execNet(unsigned worker,
                 transport::MessageAssembler::Assembled req);
    void execAck(transport::MessageAssembler::Assembled req);

    // Egress toward clients.
    void sendToClient(net::MacAddress t_mac,
                      const transport::TransportHeader &hdr,
                      std::span<const uint8_t> payload);

    // Ingress from the external network (frames for guest F MACs).
    void externalRxNotify();
    void pumpExternalRings();
    void handleExternalFrame(net::FramePtr frame);

    /** A feature-gated series' value; 0 when the feature is off. */
    static uint64_t
    valueOf(const telemetry::Counter *c)
    {
        return c ? c->value() : 0;
    }

    double interposeCycles(interpose::Chain *chain, size_t bytes) const;
    double disturbanceCycles();
    double takeBatchCycles();
};

} // namespace vrio::iohost

#endif // VRIO_IOHOST_IO_HYPERVISOR_HPP
