/**
 * @file
 * Virtualization-event accounting (the currency of the paper's
 * Table 3).
 *
 * Every I/O model wiring increments these counters as its
 * request-response path executes; `bench/tab03_interrupt_accounting`
 * replays one transaction per model and prints the table.
 */
#ifndef VRIO_HV_EVENTS_HPP
#define VRIO_HV_EVENTS_HPP

#include <cstdint>
#include <string>

#include "telemetry/metrics.hpp"

namespace vrio::hv {

/** Events charged against a single request-response transaction. */
enum class IoEvent {
    SyncExit,       ///< synchronous guest exit (trap to hypervisor)
    GuestInterrupt, ///< virtual interrupt handled by the guest
    Injection,      ///< hypervisor-mediated interrupt injection
    HostInterrupt,  ///< physical interrupt handled by the (VM)host
    IohostInterrupt,///< physical interrupt handled at the IOhost
    RequestTimeout, ///< request abandoned after retransmit exhaustion
    Failover,       ///< client re-homed its channel to a peer IOhost
    AdminCommand    ///< hypervisor-mediated NVMe admin command
};

struct IoEventCounts
{
    uint64_t sync_exits = 0;
    uint64_t guest_interrupts = 0;
    uint64_t injections = 0;
    uint64_t host_interrupts = 0;
    uint64_t iohost_interrupts = 0;
    // Recovery and setup events (not part of sum(): Table 3 counts
    // only the per-transaction virtualization events of the happy
    // path).
    uint64_t request_timeouts = 0;
    uint64_t failovers = 0;
    uint64_t admin_commands = 0;

    /**
     * Mirror every recorded event into per-VM registry series
     * (`hv.vm.<event>{vm=...}`).  Bound once at Vm construction;
     * unbound counts (bare IoEventCounts in tests) stay local.
     */
    void
    bindTelemetry(telemetry::MetricsRegistry &m,
                  const telemetry::Labels &labels)
    {
        tm_[0] = &m.counter("hv.vm.sync_exits", labels);
        tm_[1] = &m.counter("hv.vm.guest_interrupts", labels);
        tm_[2] = &m.counter("hv.vm.injections", labels);
        tm_[3] = &m.counter("hv.vm.host_interrupts", labels);
        tm_[4] = &m.counter("hv.vm.iohost_interrupts", labels);
        tm_[5] = &m.counter("hv.vm.request_timeouts", labels);
        tm_[6] = &m.counter("hv.vm.failovers", labels);
        tm_[7] = &m.counter("hv.vm.admin_commands", labels);
    }

    void
    record(IoEvent e, uint64_t n = 1)
    {
        if (tm_[0])
            tm_[unsigned(e)]->add(n);
        switch (e) {
          case IoEvent::SyncExit:
            sync_exits += n;
            break;
          case IoEvent::GuestInterrupt:
            guest_interrupts += n;
            break;
          case IoEvent::Injection:
            injections += n;
            break;
          case IoEvent::HostInterrupt:
            host_interrupts += n;
            break;
          case IoEvent::IohostInterrupt:
            iohost_interrupts += n;
            break;
          case IoEvent::RequestTimeout:
            request_timeouts += n;
            break;
          case IoEvent::Failover:
            failovers += n;
            break;
          case IoEvent::AdminCommand:
            admin_commands += n;
            break;
        }
    }

    uint64_t
    sum() const
    {
        return sync_exits + guest_interrupts + injections +
               host_interrupts + iohost_interrupts;
    }

  private:
    telemetry::Counter *tm_[8] = {};
};

} // namespace vrio::hv

#endif // VRIO_HV_EVENTS_HPP
