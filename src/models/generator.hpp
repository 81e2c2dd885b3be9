/**
 * @file
 * Load-generator machines (the IBM x3550 M2 boxes of Section 5).
 *
 * A Generator hosts multiple benchmark sessions, each pinned to a
 * core and owning a MAC address.  Core 0 is reserved for interrupt
 * handling (as in the paper's setup); sessions occupy cores 1..7.
 * Sessions placed on the second socket (cores >= numa_fast_cores)
 * pay the cross-socket penalty responsible for the Fig. 13a bump.
 */
#ifndef VRIO_MODELS_GENERATOR_HPP
#define VRIO_MODELS_GENERATOR_HPP

#include <functional>
#include <vector>

#include "hv/core.hpp"
#include "models/cost_params.hpp"
#include "net/nic.hpp"

namespace vrio::models {

/** Delivered generator-side packet. */
using GenHandler =
    std::function<void(Bytes payload, net::MacAddress src, uint64_t pad)>;

class Generator : public sim::SimObject
{
  public:
    /**
     * @param mac_seed start of the MAC range for this generator's
     *        sessions (each generator needs a disjoint range).
     */
    Generator(sim::Simulation &sim, std::string name,
              const CostParams &costs, uint64_t mac_seed);

    /** The NIC port to wire to the rack switch. */
    net::NetPort &port() { return nic_->port(); }
    net::Nic &nic() { return *nic_; }

    /** Create a session; returns its id. */
    unsigned newSession();

    net::MacAddress sessionMac(unsigned session) const;

    /** Transmit from a session (charges the session core). */
    void send(unsigned session, net::MacAddress dst, Bytes payload,
              uint64_t pad = 0);

    /** Install a session's receive upcall. */
    void setHandler(unsigned session, GenHandler handler);

    unsigned sessionCount() const { return unsigned(sessions.size()); }

  private:
    struct Session
    {
        net::MacAddress mac;
        unsigned core;
        GenHandler handler;
    };

    CostParams costs;
    uint64_t mac_seed;
    std::unique_ptr<hv::Machine> machine;
    std::unique_ptr<net::Nic> nic_;
    std::vector<Session> sessions;
    /** Frames taken per interrupt (reused: no allocation per IRQ). */
    std::vector<net::FramePtr> rx_batch;

    double opCycles(const Session &s) const;
    void rxInterrupt(unsigned queue);
};

} // namespace vrio::models

#endif // VRIO_MODELS_GENERATOR_HPP
