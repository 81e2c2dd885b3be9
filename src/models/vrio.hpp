/**
 * @file
 * The vRIO I/O model (Section 4): local hosts run only VMs; their
 * paravirtual I/O is processed by remote sidecores on an IOhost,
 * reached through per-VM SRIOV channels carrying the real transport
 * protocol of src/transport.  cfg.kind selects the polling IOhost
 * (Vrio) or the interrupt-driven ablation (VrioNoPoll).
 *
 * Table 3 rows: vrio 0/2/0/0/0; vrio w/o poll 0/2/0/0/4.
 */
#ifndef VRIO_MODELS_VRIO_HPP
#define VRIO_MODELS_VRIO_HPP

#include "block/disk_scheduler.hpp"
#include "iohost/io_hypervisor.hpp"
#include "iohost/placement.hpp"
#include "models/io_model.hpp"
#include "nvme/driver.hpp"
#include "transport/retransmit.hpp"

namespace vrio::models {

class VrioModel : public IoModel
{
  public:
    VrioModel(Rack &rack, ModelConfig cfg);
    ~VrioModel() override;

    GuestEndpoint &guest(unsigned vm_index) override;
    std::vector<const sim::Resource *> ioResources() const override;
    uint64_t iohostInterrupts() const override;

    /** The (first) I/O hypervisor: rack IOhost 0. */
    iohost::IoHypervisor &hypervisor() { return rackHypervisor(0); }

    // -- rack IOhosts (the classic wiring is a rack of one) -----------
    /** IOhosts serving this model (1 for the classic wiring). */
    unsigned rackIoHostCount() const { return unsigned(rio.size()); }
    /** Rack IOhost @p k (k = 0 is the classic wiring's IOhost). */
    iohost::IoHypervisor &rackHypervisor(unsigned k)
    {
        return *rio.at(k).iohv;
    }
    /** Client-channel MAC of rack IOhost @p k (rack wiring only). */
    net::MacAddress rackIoHostMac(unsigned k) const;
    /** The rack IOhost a client is currently homed on. */
    unsigned clientHomeIoHost(unsigned vm_index) const;

    /** All NICs in the wiring (diagnostics: drop counters etc.). */
    std::vector<const net::Nic *> allNics() const;

    /**
     * The T-channel links between VMhosts and the IOhosts.  Classic
     * wiring: one per VMhost when wired directly, two when wired via
     * the switch.  Rack wiring: each IOhost's client (and replication)
     * switch port, then each VMhost's switch link.  Fault injection
     * interposes on these to model channel loss, corruption, and delay.
     */
    const std::vector<net::Link *> &channelLinks() const
    {
        return channel_links;
    }

    /** IOhost-side client NICs (RX-ring squeeze targets), per host. */
    std::vector<net::Nic *> iohostClientNics();

    /**
     * Live-migrate an IOclient to another VMhost sharing this IOhost
     * (the dynamic switch of Section 4.6, which the paper describes
     * but did not implement).  The client detaches from its SRIOV VF,
     * rebinds to a spare vCPU/VF on the destination host, and the I/O
     * hypervisor redirects its T-MAC to the new port.  Frames in
     * flight during the switch are lost and recovered by the block
     * retransmission protocol (or the guest's TCP, for networking).
     *
     * Requires cfg.spare_client_slots > 0 on the destination host;
     * panics otherwise (rack capacity planning is the caller's job).
     */
    void migrateClient(unsigned vm_index, unsigned to_host);

    /** The VMhost currently hosting a client. */
    unsigned clientHost(unsigned vm_index) const;

    /*
     * Per-client counts are telemetry series labelled {vm=vrio.vm<i>}
     * (DESIGN.md §12): client.dev_creates, client.block_timeouts,
     * client.heartbeats_seen, client.heartbeat_lapses,
     * client.failovers, rack.resteers, rack.failbacks, rack.rehomes,
     * rack.path_suspicions, and the transport.rtq.* probes.  Read one
     * with MetricsRegistry::count().
     */

    // -- failure detection / recovery (cfg.recovery) ------------------
    /** Tick of the client's most recent heartbeat-lapse declaration. */
    sim::Tick clientLapseTick(unsigned vm_index) const;
    /** Block requests submitted and not yet completed or failed. */
    uint64_t clientPendingBlocks(unsigned vm_index) const;

    // -- warm-state replication / live re-homing (cfg.rack.replication)
    /**
     * Schedule a planned live re-home of @p vm_index onto rack IOhost
     * @p target at tick @p at: the then-current home drains its mirror
     * stream (IoHypervisor::beginRehome) and commands the client to
     * flip.  The home is captured when the drain starts, so a failover
     * racing the schedule simply turns the command into a no-op move.
     * Requires rack mode with replication on.
     */
    void scheduleRehome(unsigned vm_index, unsigned target, sim::Tick at);
    /**
     * Duration of the client's most recent placement-move blackout:
     * flip tick to first accepted response at the new home (0 until a
     * first move completes).
     */
    sim::Tick clientLastBlackout(unsigned vm_index) const;

  protected:
    const hv::Vm &vmAt(unsigned vm_index) const override;

  private:
    class Client;

    struct Host
    {
        std::unique_ptr<hv::Machine> machine;
        std::unique_ptr<net::Nic> nic; ///< T-channel SRIOV NIC
        /** IOhost end of this host's channel (classic wiring only). */
        std::unique_ptr<net::Nic> iohost_port;
        /** Occupancy of each vCPU/VF slot on this host. */
        std::vector<bool> slot_used;
    };

    std::vector<Host> hosts;
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<net::Link *> channel_links;
    /** Per-VM disks of the classic wiring (rack IOhosts own a store). */
    std::vector<std::unique_ptr<block::BlockDevice>> remote_disks;

    /**
     * Shared NVMe backing (ModelConfig::BlockBackend::Nvme): the
     * IOhost consolidates every VM disk as a namespace of one
     * controller and reaches it through a single queue pair in
     * hypervisor memory — the interposed arrangement fig17 compares
     * against per-VM queue passthrough.
     */
    struct NvmeShared
    {
        std::unique_ptr<virtio::GuestMemory> arena;
        std::unique_ptr<block::BlockDevice> backing;
        std::unique_ptr<nvme::Controller> ctrl;
        std::unique_ptr<nvme::QueuePairDriver> qp;
    };
    std::unique_ptr<NvmeShared> nvme_shared;
    void setupNvmeShared();

    /**
     * One IOhost: its own machine, external switch port, and (rack
     * wiring) client switch port and backing store.  The classic
     * wiring (cfg.rack.iohosts == 0) is a rack of one whose client
     * ports are per VMhost (Host::iohost_port) and whose disks are per
     * VM (remote_disks).  Rack stores are replicated-at-rest — every
     * IOhost consolidates every client's devices over its own replica,
     * so any IOhost can serve any client and a placement move needs no
     * data motion.  Without cfg.rack.replication the simulation does
     * not model cross-replica write propagation, so tests must not
     * assert read-your-write across a re-steer; with it on, committed
     * writes propagate to the warm peer's store (DESIGN.md §16) and
     * read-your-write holds across a failover or re-home onto it.
     */
    struct RackIoHost
    {
        std::unique_ptr<hv::Machine> machine;
        /** Client switch port (rack wiring only). */
        std::unique_ptr<net::Nic> cnic;
        std::unique_ptr<net::Nic> extnic;
        /** Replication control channel (cfg.rack.replication only). */
        std::unique_ptr<net::Nic> rnic;
        std::unique_ptr<iohost::IoHypervisor> iohv;
        /** Shared backing store (rack wiring with cfg.with_block). */
        std::unique_ptr<block::BlockDevice> store;
    };
    std::vector<RackIoHost> rio;
};

} // namespace vrio::models

#endif // VRIO_MODELS_VRIO_HPP
