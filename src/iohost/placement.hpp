/**
 * @file
 * Rack placement policy: which IOhost serves which VM.
 *
 * Boot placement stripes VMs across IOhosts round-robin.  At runtime
 * every IOhost advertises a load digest in its heartbeats — the
 * beat-to-beat delta of its workers' residency_ns telemetry
 * histograms, i.e. mean request residency over the last beat period —
 * and each client keeps a per-IOhost load table from the beats it
 * sees.  PlacementPolicy turns that table into placement decisions:
 *
 *  - pickTarget(): voluntary re-steer away from an overloaded home
 *    (ratio-gated, so balanced racks never churn);
 *  - pickFailover(): the home lapsed, choose a replacement among the
 *    peer IOhosts, making failover a placement decision rather than a
 *    special wiring.
 *
 * Pure functions over plain data: no simulation state, unit-testable,
 * and trivially deterministic — decisions depend only on table
 * contents, never on iteration over addresses.
 */
#ifndef VRIO_IOHOST_PLACEMENT_HPP
#define VRIO_IOHOST_PLACEMENT_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/ticks.hpp"

namespace vrio::iohost {

/** One rack IOhost as a client's load table sees it. */
struct IoHostLoad
{
    /** Advertised mean worker residency (ns) over the last beat. */
    uint32_t load_ns = 0;
    /** Tick of the most recent beat seen from this IOhost. */
    sim::Tick last_beat = 0;
    /** Whether any beat has ever been seen. */
    bool seen = false;
};

struct PlacementConfig
{
    /**
     * Voluntary re-steer gate: move only when the home's advertised
     * load is at least this multiple of the best candidate's.
     */
    double imbalance_ratio = 2.0;
    /** Noise floor: an idle-ish home (below this) never re-steers. */
    uint32_t min_home_load_ns = 2000;
};

class PlacementPolicy
{
  public:
    /** Boot placement: VM v is homed on IOhost v mod N. */
    static unsigned
    bootAssign(unsigned vm_index, unsigned iohosts)
    {
        return iohosts ? vm_index % iohosts : 0;
    }

    /**
     * Voluntary re-steer decision.  Candidates are IOhosts other than
     * @p home with a beat no older than @p freshness before @p now;
     * the least-loaded (lowest index on ties) wins if the ratio gate
     * passes.  nullopt = stay.
     */
    static std::optional<unsigned>
    pickTarget(unsigned home, const std::vector<IoHostLoad> &table,
               const PlacementConfig &cfg, sim::Tick now,
               sim::Tick freshness);

    /**
     * Failover target after the home's heartbeat window lapsed: the
     * candidate with the freshest beat, ties broken by lower load
     * then lower index.  With no beats seen at all, falls back to
     * (home + 1) mod N so a client always moves somewhere.
     *
     * When @p warm_peer names the home's replication peer (>= 0) and
     * that peer has been heard from within @p freshness, it wins
     * outright: it holds the home's mirrored duplicate-filter and
     * in-service state, so landing anywhere else would forfeit the
     * warm handoff.  -1 keeps the historical freshest-beat scan.
     */
    static unsigned pickFailover(unsigned home,
                                 const std::vector<IoHostLoad> &table,
                                 sim::Tick now, sim::Tick freshness,
                                 int warm_peer = -1);

    /** What a heartbeat lapse means, judged from the client's seat. */
    enum class LapseVerdict {
        /** Others still beat: the home itself is gone — fail over. */
        HomeDead,
        /**
         * Nobody beats: the silence is on the client's own path (its
         * NIC, its switch port), and every IOhost it could fail over
         * to is equally unreachable — moving would only strand the
         * in-service state at a home that is in fact alive.  Suppress
         * the failover and keep retrying in place.
         */
        PathSuspect,
    };

    /**
     * Classify a lapse of @p home: in a rack every IOhost beats every
     * client, so beats still arriving from *any* other IOhost prove
     * the client's path is fine and the home alone is dead.  A lapse
     * of every source at once indicts the shared segment — the
     * client's own path — instead.
     */
    static LapseVerdict classifyLapse(unsigned home,
                                      const std::vector<IoHostLoad> &table,
                                      sim::Tick now, sim::Tick freshness);
};

} // namespace vrio::iohost

#endif // VRIO_IOHOST_PLACEMENT_HPP
