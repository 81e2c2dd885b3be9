/**
 * @file
 * Common interface of the five I/O model wirings (Section 2):
 * baseline virtio, Elvis, SRIOV+ELI (the optimum), vRIO, and the
 * no-poll vRIO ablation.
 */
#ifndef VRIO_MODELS_IO_MODEL_HPP
#define VRIO_MODELS_IO_MODEL_HPP

#include <functional>
#include <memory>

#include "block/ram_disk.hpp"
#include "block/ssd_model.hpp"
#include "hv/events.hpp"
#include "nvme/controller.hpp"
#include "interpose/service.hpp"
#include "models/endpoint.hpp"
#include "models/rack.hpp"

namespace vrio::models {

enum class ModelKind {
    Baseline,  ///< KVM virtio (trap and emulate), state of practice
    Elvis,     ///< local sidecores, state of the art
    Optimum,   ///< SRIOV + ELI, non-interposable upper bound
    Vrio,      ///< remote sidecores, polling IOhost
    VrioNoPoll,///< ablation: interrupt-driven IOhost
    /**
     * NVMe I/O-queues passthrough (Chen et al.): each VM owns
     * dedicated SQ/CQ pairs mapped into its memory — doorbells and
     * completion interrupts bypass the hypervisor; only admin
     * commands (queue/namespace setup) are mediated.  Like the
     * optimum, non-interposable.
     */
    NvmePassthrough
};

const char *modelKindName(ModelKind kind);

struct ModelConfig
{
    ModelKind kind = ModelKind::Vrio;
    unsigned num_vms = 1;
    /** Logical VMhosts; VMs are distributed round-robin. */
    unsigned num_vmhosts = 1;
    /**
     * Sidecores: per VMhost for Elvis/baseline I/O cores, total at the
     * IOhost for vRIO.
     */
    unsigned sidecores = 1;
    CostParams costs;

    /** Attach a paravirtual block device (ramdisk-backed) per VM. */
    bool with_block = false;
    /** Use the SSD model instead of a ramdisk as backing store. */
    bool block_use_ssd = false;
    block::RamDiskConfig ramdisk_cfg{.capacity_bytes = 16ull << 20};
    block::SsdConfig ssd_cfg{.capacity_bytes = 16ull << 20};

    /**
     * How block devices reach the backing store.  Direct keeps the
     * historical wiring (the model's own RamDisk/SsdModel per VM).
     * Nvme routes every disk through an NVMe controller: the
     * passthrough model always uses it (one controller per VMhost,
     * one queue pair per VM); for the vRIO kinds it consolidates all
     * VM disks as namespaces behind one shared queue pair at the
     * IOhost — the serialized arrangement fig17 compares against.
     */
    enum class BlockBackend { Direct, Nvme };
    BlockBackend block_backend = BlockBackend::Direct;
    nvme::ControllerConfig nvme_cfg;
    /** SQ/CQ ring depth for model-created NVMe queue pairs. */
    uint16_t nvme_queue_depth = 32;

    // -- vRIO specifics ----------------------------------------------
    /**
     * How the transport interface T reaches the IOhost (Section 4.6):
     * an SRIOV VF with ELI (the latency-minimizing default) or a
     * traditional paravirtual NIC through the local hypervisor
     * (T_virtio — used around live migration to non-vRIO hosts),
     * which reintroduces exits, vhost work and injections on the
     * channel.
     */
    enum class VrioChannel { Tsriov, Tvirtio };
    VrioChannel vrio_channel = VrioChannel::Tsriov;

    uint32_t vrio_mtu = net::kMtuVrioJumbo;
    /** IOhost NIC RX ring (Section 4.5: 512 showed loss, 4096 fixed). */
    size_t iohost_rx_ring = 4096;
    /**
     * Wire VMhosts to the IOhost through the rack switch instead of
     * direct cables (the Section 4.6 fault-tolerance arrangement: a
     * typical rack layout, reachability survives rewiring, but the
     * channel shares the switch and adds its forwarding latency).
     */
    bool vrio_via_switch = false;
    /** VMhost-IOhost direct links (10GbE SRIOV channel in Section 5). */
    double direct_link_gbps = 10.0;
    /** One-way latency of the direct links (NIC pipeline + wire). */
    sim::Tick direct_link_latency = sim::Tick(3200) * sim::kNanosecond;
    /** IOhost external bandwidth (two dual-port NICs in Section 5). */
    double iohost_external_gbps = 40.0;
    /** Frame loss on the vRIO channel (retransmission experiments). */
    double vrio_channel_loss = 0.0;
    /** IOhost worker poll batch size (ablation knob). */
    size_t iohost_batch_max = 16;
    /**
     * IOhost frame-arrival to worker pickup latency.  Raising it
     * models monitor/mwait-style power-aware polling (Section 4.6's
     * energy discussion): the core sleeps until the ring is touched,
     * trading wakeup latency for polling energy.
     */
    sim::Tick iohost_poll_pickup = sim::Tick(300) * sim::kNanosecond;
    /**
     * Spare vCPU cores / SRIOV VFs per VMhost, kept free as live
     * migration targets (the Section 4.6 extension).
     */
    unsigned spare_client_slots = 0;

    /**
     * End-to-end failure detection and recovery (vRIO kinds only).
     * Off by default: enabling it schedules heartbeat, watchdog and
     * lapse-timer events, so zero-config runs stay byte-identical
     * with historical schedules.
     */
    struct Recovery
    {
        bool enabled = false;
        /** IOhost liveness-beacon period (per client T-MAC). */
        sim::Tick heartbeat_period = sim::Tick(2) * sim::kMillisecond;
        /** Missed-beat budget before a client declares the IOhost dead. */
        unsigned heartbeat_miss = 4;
        /** IOhost worker-watchdog sweep period (0 = no watchdog). */
        sim::Tick watchdog_period = sim::Tick(5) * sim::kMillisecond;
        /** Consecutive no-progress sweeps before quarantine. */
        unsigned watchdog_threshold = 2;
    };
    Recovery recovery;

    /**
     * Multi-IOhost rack layer (vRIO kinds only).  `iohosts == 0` (the
     * default) builds the classic wiring: one IOhost with a client
     * port per VMhost, cabled directly or via the switch; every other
     * field of RackOpts that switches a rack feature on is rejected
     * there.  Any value >= 1 builds that many IOhosts behind the rack
     * switch (requires vrio_via_switch), every client device
     * consolidated on all of them, VMs homed round-robin
     * (PlacementPolicy::bootAssign) and re-homed dynamically off the
     * load digests the IOhosts advertise in their heartbeats.  Failover
     * is a placement decision: a client whose home lapses moves to a
     * peer IOhost.
     */
    struct RackOpts
    {
        /** Rack IOhost count; 0 = classic single-IOhost wiring. */
        unsigned iohosts = 0;
        /**
         * Cross-VM request coalescing at each IOhost fan-out point:
         * same-destination adjacent-LBA block requests from different
         * VMs merge into one backend submission (split completions
         * fan back per-VM).  See transport/coalesce.hpp for rules.
         */
        bool coalesce = false;
        /** Merge window: staged requests flush after this long. */
        sim::Tick coalesce_window = sim::Tick(2) * sim::kMicrosecond;
        /** Eager flush threshold and per-run member cap. */
        size_t coalesce_max = 8;
        /**
         * All VMs share one backend volume per IOhost (namespace
         * offsets collapse to 0) — the cross-VM adjacency scenario.
         * Default: each VM gets its own namespace region.
         */
        bool shared_volume = false;
        /**
         * Voluntary re-steer gate: move a client when its home
         * IOhost's advertised load is at least this multiple of the
         * least-loaded peer's (0 = dynamic re-steering off; failover
         * on heartbeat lapse still happens).
         */
        double resteer_ratio = 0.0;
        /** Minimum dwell time between voluntary moves per client. */
        sim::Tick resteer_dwell = sim::Tick(20) * sim::kMillisecond;
        /**
         * Warm-state replication (DESIGN.md §16): each IOhost k
         * mirrors duplicate-filter entries, in-service descriptors
         * and committed writes to IOhost (k+1) mod R over a dedicated
         * replication NIC through the rack switch.  Failover then
         * prefers the warm peer, which replays unacked requests and
         * answers retries of committed writes without re-execution;
         * planned live re-homes (`scheduleRehome`) become possible.
         * Requires iohosts >= 2.  Off (the default) schedules no
         * replication events and keeps every schedule byte-identical.
         */
        bool replication = false;
        /** Unacked-record window before admission backpressure. */
        unsigned repl_window = 256;
        /** Mirror records per ReplicaSync batch. */
        unsigned repl_batch = 16;
        /** Append-to-ship delay (batching latency bound). */
        sim::Tick repl_flush_delay = sim::Tick(5) * sim::kMicrosecond;
        /** Go-back-N resend timeout when the cumulative ack stalls. */
        sim::Tick repl_retx_timeout = sim::Tick(1) * sim::kMillisecond;
        /**
         * Fail-back (DESIGN.md §17): once a client's boot-time home
         * revives and resumes heartbeating, dwell-gated placement
         * re-steers the client back to it, rebalancing the rack after
         * an outage instead of leaving every refugee VM on the
         * survivor.  The move reuses the voluntary re-steer machinery
         * (blackout-bounded re-addressing, replay of outstanding
         * requests) and respects `resteer_dwell` between moves.
         */
        bool failback = false;
        /**
         * Multi-tenant QoS at each IOhost fan-out point (DESIGN.md
         * §17): block requests queue in a weighted-fair scheduler
         * with an EDF deadline lane and admission control instead of
         * being forwarded FIFO.  Requires rack mode (iohosts >= 1).
         * With `coalesce` on, the scheduler's picks are what the
         * coalescer stages and merges.  Off (the default) keeps every
         * schedule byte-identical.
         */
        struct QosOpts
        {
            bool enabled = false;
            /** Aggregate queue depth arming admission control. */
            size_t high_water = 64;
            /** Per-tenant minimum share under pressure (requests). */
            size_t tenant_floor = 4;
            /** Shed past this multiple of the tenant's share. */
            double shed_factor = 2.0;
            /** Deadline-lane promotion slack. */
            sim::Tick promote_slack = sim::Tick(50) * sim::kMicrosecond;
            /** End-to-end admitted requests (admission to response)
             *  while QoS paces (0 = four per worker). */
            unsigned window = 0;
            /** Contract for VMs beyond the explicit vectors below. */
            double default_weight = 1.0;
            sim::Tick default_slo = 0;
            /** Per-VM weights / SLO targets, indexed by VM; shorter
             *  vectors fall back to the defaults above. */
            std::vector<double> weights;
            std::vector<sim::Tick> slos;
        };
        QosOpts qos;
    };
    RackOpts rack;

    /**
     * Client kind per VM index (heterogeneity experiments: KVM/ESXi
     * guests and bare-metal OSes share the IOhost).  Empty = all KVM.
     */
    std::vector<hv::ClientKind> client_kinds;

    /**
     * Per-device interposition chain factory (may return nullptr).
     * Chains are owned by the caller and must outlive the model.
     */
    std::function<interpose::Chain *(uint32_t device_id, bool is_block)>
        chain_factory;
};

class IoModel
{
  public:
    IoModel(Rack &rack, ModelConfig cfg) : rack_(rack), cfg_(cfg) {}
    virtual ~IoModel() = default;

    IoModel(const IoModel &) = delete;
    IoModel &operator=(const IoModel &) = delete;

    ModelKind kind() const { return cfg_.kind; }
    const ModelConfig &config() const { return cfg_; }
    unsigned numVms() const { return cfg_.num_vms; }
    Rack &rack() { return rack_; }

    virtual GuestEndpoint &guest(unsigned vm_index) = 0;

    /**
     * I/O-processing resources (sidecores, vhost cores, or IOhost
     * workers) for utilization reporting; empty for the optimum.
     */
    virtual std::vector<const sim::Resource *> ioResources() const = 0;

    /** Summed Table-3 event counts across all guests. */
    hv::IoEventCounts eventTotals() const;

    /** Interrupts taken at the IOhost (vRIO only; 0 elsewhere). */
    virtual uint64_t iohostInterrupts() const { return 0; }

  protected:
    Rack &rack_;
    ModelConfig cfg_;

    virtual const hv::Vm &vmAt(unsigned vm_index) const = 0;
};

/** Instantiate the wiring for @p cfg.kind. */
std::unique_ptr<IoModel> makeModel(Rack &rack, ModelConfig cfg);

/**
 * Shards a sharded vRIO topology partitions into (DESIGN.md §13/§15):
 * shard 0 is the rack fabric (switch + generators), shard 1+h is
 * VMhost h, and shard 1+H+k is rack IOhost k.  The classic wiring
 * (num_iohosts == 0) is a rack of one, so its count is
 * num_vmhosts + 2 — and with it shard 0's RNG stream is preserved
 * exactly.  Only the vRIO kinds have a shard cut; the other models
 * keep everything on one queue.
 */
inline unsigned
vrioShardCount(unsigned num_vmhosts, unsigned num_iohosts = 0)
{
    return num_vmhosts + 1 + (num_iohosts ? num_iohosts : 1);
}

} // namespace vrio::models

#endif // VRIO_MODELS_IO_MODEL_HPP
