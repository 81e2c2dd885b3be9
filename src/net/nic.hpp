/**
 * @file
 * NIC model with SRIOV virtual functions, RX/TX rings, interrupt
 * coalescing, and a TSO engine.
 *
 * One Nic models one port of a physical adapter.  Queue 0 is the
 * physical function; additional queues are SRIOV VFs, each with its
 * own MAC and RX ring, assignable to a VM (the optimum model and
 * vRIO's transport channel) or polled by sidecore software (the
 * IOhost).  Ring overflow drops frames — the mechanism behind the
 * paper's Section 4.5 observation that growing the IOhost RX ring
 * from 512 to 4096 eliminated in-the-wild loss.
 */
#ifndef VRIO_NET_NIC_HPP
#define VRIO_NET_NIC_HPP

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "net/link.hpp"
#include "net/tso.hpp"

namespace vrio::net {

struct NicConfig
{
    double gbps = 10.0;
    uint32_t mtu = kMtuStandard;
    size_t rx_ring_size = 512;
    bool tso = true;
    /** Number of queues including the PF (>= 1). */
    unsigned num_queues = 1;
    /** Interrupt moderation: wait this long after the first frame. */
    sim::Tick intr_coalesce_delay = sim::Tick(4) * sim::kMicrosecond;
    /** ... but fire immediately once this many frames are pending. */
    size_t intr_coalesce_frames = 8;
};

class Nic : public sim::SimObject, public NetPort
{
  public:
    enum class RxMode {
        Interrupt, ///< invoke the rx handler (moderated)
        Poll,      ///< software polls rxTake(); no interrupts
    };

    Nic(sim::Simulation &sim, std::string name, NicConfig cfg);

    const NicConfig &config() const { return cfg; }

    /** The port to plug into a Link. */
    NetPort &port() { return *this; }

    /** Assign a MAC to a queue (frames to this MAC land in it). */
    void setQueueMac(unsigned queue, MacAddress mac);
    MacAddress queueMac(unsigned queue) const;

    /**
     * Add an additional MAC steered to @p queue (L2 filtering for
     * queues that serve several addresses, e.g. one sidecore queue
     * receiving for all of its VMs).
     */
    void addQueueMac(unsigned queue, MacAddress mac);

    /** Remove a queue's MAC filter (frames to it no longer match). */
    void clearQueueMac(unsigned queue);

    /**
     * Accept frames for unknown destination MACs into queue 0.
     * Used by the IOhost, which terminates many IOclient addresses.
     */
    void setPromiscuous(bool on) { promiscuous = on; }

    void setRxMode(unsigned queue, RxMode mode);

    /**
     * Interrupt handler for a queue; invoked (subject to moderation)
     * when frames arrive in Interrupt mode.  The handler models the
     * host IRQ path and is expected to rxTake() the pending frames.
     */
    void setRxHandler(unsigned queue, std::function<void(unsigned)> fn);

    /**
     * Simulation-level notification fired on *every* RX enqueue,
     * regardless of mode.  Polling consumers (sidecores, workers) use
     * it to schedule their next poll pickup instead of the simulator
     * literally spinning; it does not model an interrupt and fires no
     * interrupt accounting.
     */
    void setRxNotify(unsigned queue, std::function<void(unsigned)> fn);

    /** Frames waiting in a queue's RX ring. */
    size_t rxPending(unsigned queue) const;

    /**
     * Move up to @p max frames from a queue's RX ring into @p batch,
     * which is cleared first but keeps its capacity, so a caller that
     * reuses one buffer takes frames without allocating.
     * @return the number of frames taken.
     */
    size_t rxTake(unsigned queue, size_t max, std::vector<FramePtr> &batch);

    /**
     * Temporarily cap the usable RX ring below its configured size
     * (fault injection models memory pressure this way).  0 restores
     * the full configured ring.
     */
    void setRxRingLimit(size_t limit);

    /** The currently effective RX ring capacity. */
    size_t rxRingLimit() const { return rx_ring_limit; }

    /**
     * Transmit @p frame from @p queue.  Oversized TCP/IPv4 frames are
     * TSO-segmented when enabled; oversized frames that TSO cannot
     * handle panic (software must pre-segment, as the vRIO transport
     * driver does for block traffic).
     */
    void send(unsigned queue, FramePtr frame);

    // -- statistics ------------------------------------------------
    uint64_t rxFrames() const { return rx_frames->value(); }
    uint64_t rxDrops() const { return rx_drops->value(); }
    uint64_t rxCrcDrops() const { return rx_crc_drops->value(); }
    uint64_t txFrames() const { return tx_frames->value(); }
    uint64_t interruptsFired() const { return interrupts->value(); }
    uint64_t tsoSends() const { return tso_sends->value(); }

    // NetPort
    void receive(FramePtr frame) override;

  private:
    struct Queue
    {
        MacAddress mac;
        std::deque<FramePtr> rx;
        RxMode mode = RxMode::Interrupt;
        std::function<void(unsigned)> handler;
        std::function<void(unsigned)> notify;
        bool intr_scheduled = false;
        sim::EventHandle intr_event;
    };

    NicConfig cfg;
    std::vector<Queue> queues;
    std::map<MacAddress, unsigned> extra_macs;
    bool promiscuous = false;
    /** Effective RX ring capacity (cfg.rx_ring_size unless squeezed). */
    size_t rx_ring_limit = 0;

    // Registry-backed (one series per NIC, labeled by instance name);
    // resolved in the constructor, bumped raw on the datapath.
    telemetry::Counter *rx_frames;
    telemetry::Counter *rx_drops;
    telemetry::Counter *rx_crc_drops;
    telemetry::Counter *tx_frames;
    telemetry::Counter *interrupts;
    telemetry::Counter *tso_sends;

    void enqueueRx(unsigned queue, FramePtr frame);
    void maybeInterrupt(unsigned queue);
    void fireInterrupt(unsigned queue);
    int classify(const MacAddress &dst) const;
};

} // namespace vrio::net

#endif // VRIO_NET_NIC_HPP
