/**
 * @file
 * Deterministic fault injector.
 *
 * Realizes a fault::FaultPlan against live simulation objects:
 * interposes on net::Link transmissions (drop / corrupt / delay /
 * reorder), clamps NIC RX rings, stalls sidecores, and crashes the
 * I/O hypervisor for scripted windows.
 *
 * Determinism contract: all randomness comes from a private RNG
 * stream derived as sim::Random(plan.seed).split("fault"), so the
 * workload RNG sees exactly the draws it would see in a fault-free
 * run.  An injector built from an empty plan — or one whose link spec
 * is all-zero — makes no draws and schedules nothing, leaving the
 * event schedule bit-identical to a run with no injector attached.
 *
 * Every injected fault and triggered window is counted once, in the
 * `fault.injected{injector=<name>,kind=...}` telemetry series.
 */
#ifndef VRIO_FAULT_INJECTOR_HPP
#define VRIO_FAULT_INJECTOR_HPP

#include <unordered_map>
#include <vector>

#include "fault/plan.hpp"
#include "iohost/io_hypervisor.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "sim/simulation.hpp"

namespace vrio::models {
class VrioModel;
}

namespace vrio::fault {

class FaultInjector : public sim::SimObject, public net::LinkFaultHook
{
  public:
    FaultInjector(sim::Simulation &sim, std::string name, FaultPlan plan);
    ~FaultInjector() override;

    /** Apply the plan's channel spec to frames crossing @p link. */
    void attachLink(net::Link &link);

    /**
     * Target for outage, stall and wedge windows.  May be called once
     * per rack IOhost; a window's `iohost` field indexes the attach
     * order (out-of-range indexes clamp to the last attached).
     */
    void attachIoHost(iohost::IoHypervisor &iohv);

    /** Target for RX-ring squeeze windows. */
    void attachRxRing(net::Nic &nic);

    /** Target for port-down windows. */
    void attachSwitch(net::Switch &sw);

    /**
     * Convenience wiring for the vRIO model: every T-channel link,
     * the I/O hypervisor, and every IOhost-side client NIC.
     */
    void attach(models::VrioModel &model);

    /**
     * Schedule the plan's timeline (outages, stalls, squeezes) at
     * absolute simulation ticks.  Call once, after attaching targets
     * and before any window opens (a window already in the past is a
     * plan bug and fails fast).  Same-IOhost outage windows that
     * overlap or touch are coalesced into one downtime interval — see
     * outagesCoalesced().
     */
    void arm();

    const FaultPlan &plan() const { return plan_; }

    /**
     * Un-wedge a worker wedged by a WedgeWindow.  Nothing in the plan
     * ever does this — a wedge is permanent by definition; recovery
     * must come from the watchdog re-steering around the dead worker.
     * Tests call it to exercise the revival path.
     */
    void clearWedge(unsigned worker, unsigned iohost = 0);

    // -- injection counts (the fault.injected series) ----------------
    uint64_t framesDropped() const { return injected(kDrop); }
    uint64_t framesCorrupted() const { return injected(kCorrupt); }
    uint64_t framesDelayed() const { return injected(kDelay); }
    uint64_t framesReordered() const { return injected(kReorder); }
    /** Frames lost to the Gilbert-Elliott burst process. */
    uint64_t framesBurstDropped() const { return injected(kBurstDrop); }
    /** Frames delivered with an FCS-passing payload flip. */
    uint64_t framesPayloadCorrupted() const
    {
        return injected(kPayloadCorrupt);
    }
    uint64_t outagesTriggered() const { return injected(kOutage); }
    uint64_t wedgesTriggered() const { return injected(kWedge); }
    uint64_t portDownsTriggered() const { return injected(kPortDown); }
    /** Same-IOhost outage windows merged into an earlier one by arm(). */
    uint64_t outagesCoalesced() const { return outages_coalesced; }

    // net::LinkFaultHook
    net::FaultVerdict onTransmit(net::Link &link, int direction,
                                 const net::Frame &frame) override;

  private:
    FaultPlan plan_;
    /** Private stream; see the determinism contract above. */
    sim::Random rng;
    /**
     * Separate substream for the burst chains so enabling
     * Gilbert-Elliott never shifts the i.i.d. spec's draw sequence
     * (and vice versa).
     */
    sim::Random burst_rng;

    /** Per-direction Markov channel state for one attached link. */
    struct BurstState
    {
        bool bad[2] = {false, false};
    };

    std::vector<net::Link *> links;
    /** Parallel to `links`; located via linkIndex() in the hot hook. */
    std::vector<BurstState> burst_states;
    std::unordered_map<const net::Link *, size_t> link_index;
    std::vector<net::Nic *> rings;
    /** Attached IOhosts in attach order (one in the legacy wiring). */
    std::vector<iohost::IoHypervisor *> iohvs;
    net::Switch *switch_ = nullptr;
    bool armed = false;

    uint64_t outages_coalesced = 0;

    /** Fault kinds as telemetry labels (`fault.injected{kind=...}`). */
    enum FaultKindIdx : unsigned {
        kDrop,
        kCorrupt,
        kDelay,
        kReorder,
        kBurstDrop,
        kPayloadCorrupt,
        kOutage,
        kStall,
        kWedge,
        kPortDown,
        kSqueeze,
        kNumFaultKinds
    };
    telemetry::Counter *tm_injected[kNumFaultKinds];
    uint16_t tr_fault_track;
    uint16_t tr_fault_names[kNumFaultKinds];

    /** Counter bump + (when tracing) a fault instant. */
    void noteFault(unsigned kind, uint64_t arg);
    /** Faults of @p kind injected so far. */
    uint64_t
    injected(unsigned kind) const
    {
        return tm_injected[kind]->value();
    }

    /** True when the burst chain (state advanced) eats this frame. */
    bool burstStep(net::Link &link, int direction);

    /** Resolve a window's `iohost` index (clamped) to its target. */
    iohost::IoHypervisor &targetIoHost(unsigned iohost);

    void beginOutage(const OutageWindow &w);
    void endOutage(const OutageWindow &w);
    void beginStall(const StallWindow &w);
    void beginSqueeze(const RxSqueezeWindow &w);
    void endSqueeze();
    void beginWedge(const WedgeWindow &w);
    /** Resolves the victim port and schedules its own revival. */
    void beginPortDown(const PortDownWindow &w);
};

} // namespace vrio::fault

#endif // VRIO_FAULT_INJECTOR_HPP
