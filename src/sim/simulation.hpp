/**
 * @file
 * Top-level simulation context: event queue(s) + RNG + statistics.
 *
 * A Simulation is either one event loop — the deterministic golden
 * mode every figure is captured with — or a set of per-partition
 * shard loops run under a conservative-lookahead epoch scheme
 * (DESIGN.md §13).  The single-shard path is byte-identical to the
 * historical simulator; sharding changes the event interleaving only
 * across partitions that never share model state.
 *
 * Determinism contract: results are a pure function of (seed, shard
 * count).  The thread count never affects them — shard s is always
 * driven as slot s % threads, every shard owns a private RNG
 * substream, and cross-shard events are merged at epoch barriers in
 * fixed (destination, source, send-order) order, so the same events
 * fire at the same ticks with the same sequence numbers whether one
 * thread or eight drive the shards.
 */
#ifndef VRIO_SIM_SIMULATION_HPP
#define VRIO_SIM_SIMULATION_HPP

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "telemetry/telemetry.hpp"

namespace vrio::sim {

class Simulation;

namespace detail {

/**
 * Thread-local binding to the shard this thread is currently
 * constructing for or executing (set by ShardScope).  Lets
 * `Simulation::events()` resolve to the right shard queue without the
 * thousands of existing call sites changing.
 */
struct ShardBinding
{
    Simulation *sim = nullptr;
    EventQueue *eq = nullptr;
    Random *rng = nullptr;
    uint32_t index = 0;
};

inline thread_local ShardBinding t_shard{};

} // namespace detail

class Simulation
{
  public:
    struct Config
    {
        uint64_t seed = 1;
        /**
         * Model partitions.  1 (the default) is the single-threaded
         * golden mode running the historical event loop verbatim.
         */
        unsigned shards = 1;
        /**
         * OS threads driving the shard loops, clamped to [1, shards].
         * Never affects results — only wall-clock.
         */
        unsigned threads = 1;
    };

    explicit Simulation(uint64_t seed = 1);
    explicit Simulation(const Config &cfg);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * The event queue of the calling thread's bound shard; shard 0
     * (the historical single queue) when unbound.
     */
    EventQueue &
    events()
    {
        auto &t = detail::t_shard;
        return t.sim == this ? *t.eq : shards_[0]->eq;
    }

    /** The bound shard's RNG substream (see events()). */
    Random &
    random()
    {
        auto &t = detail::t_shard;
        return t.sim == this ? *t.rng : shards_[0]->rng;
    }

    telemetry::Hub &telemetry() { return telem; }
    const telemetry::Hub &telemetry() const { return telem; }

    /** The bound shard's clock (see events()). */
    Tick
    now() const
    {
        const auto &t = detail::t_shard;
        return t.sim == this ? t.eq->now() : shards_[0]->eq.now();
    }

    unsigned shardCount() const { return unsigned(shards_.size()); }
    unsigned threadCount() const { return threads_; }

    /** Direct access to shard @p s's queue (model wiring only). */
    EventQueue &shardEvents(unsigned s);
    /** Shard @p s's RNG substream (ShardScope plumbing). */
    Random &shardRandom(unsigned s);

    /**
     * Shard the calling thread is bound to, 0 when unbound.  Static:
     * safe to call with no Simulation in hand (object constructors).
     */
    static uint32_t
    currentShardIndex()
    {
        return detail::t_shard.sim ? detail::t_shard.index : 0;
    }

    /**
     * Declare a model edge crossing from shard @p a to shard @p b
     * whose events always carry at least @p latency of delay.  The
     * minimum over all declared edges is the conservative lookahead
     * bounding each epoch window.  Must be called during wiring, not
     * mid-run; no-op when single-shard or a == b.
     */
    void noteCrossShardLink(uint32_t a, uint32_t b, Tick latency);

    /** Minimum declared cross-shard latency (0: no cross edges). */
    Tick lookahead() const { return lookahead_; }

    /**
     * Schedule @p fn on shard @p dst at now + @p delay, where "now" is
     * the calling shard's clock.  Same-shard (and single-shard) sends
     * degenerate to a plain schedule; cross-shard sends inside a run
     * are buffered in a per-(dst, src) mailbox and merged at the next
     * epoch barrier.  Cross-shard @p delay must be >= the lookahead —
     * that is what makes the epoch window safe.
     */
    void scheduleCross(uint32_t dst, Tick delay, EventQueue::Callback fn);

    /** Run until @p limit (absolute tick) or until idle. */
    void runUntil(Tick limit);
    /** Run until no events remain. */
    void runToCompletion();

    /** Schedule @p fn after @p delay on the calling shard's queue. */
    EventHandle
    after(Tick delay, EventQueue::Callback fn)
    {
        return events().schedule(delay, std::move(fn));
    }

  private:
    struct CrossEvent
    {
        Tick when;
        EventQueue::Callback fn;
    };

    struct Shard
    {
        EventQueue eq;
        Random rng{1};
        /**
         * inbox[src]: cross-shard arrivals.  Appended only by src's
         * driving thread during an epoch; drained only by the
         * coordinator at the barrier.  No two threads ever touch the
         * same vector concurrently, so no lock is needed.
         */
        std::vector<std::vector<CrossEvent>> inbox;
    };

    void epochLoop(Tick limit, bool to_completion);
    void runEpoch(Tick horizon);
    void runShardSlice(unsigned slot, Tick horizon);
    void drainInboxes();
    void openRegion();
    void closeRegion();
    void workerMain(unsigned slot);

    std::vector<std::unique_ptr<Shard>> shards_;
    unsigned threads_ = 1;
    Tick lookahead_ = 0;
    bool in_region_ = false;

    telemetry::Hub telem;

    // -- worker pool (lazy; only ever populated when threads_ > 1) ----
    std::vector<std::thread> workers_;
    std::mutex pool_mu_;
    std::condition_variable pool_cv_;
    /** Guarded by pool_mu_; workers park on pool_cv_ between runs. */
    bool region_open_ = false;
    /** Lock-free mirror of region_open_ for the workers' spin loop. */
    std::atomic<bool> region_live_{false};
    std::atomic<bool> shutdown_{false};
    /** Monotonic epoch number; bumping it releases the next window. */
    std::atomic<uint64_t> epoch_seq_{0};
    std::atomic<unsigned> epoch_done_{0};
    /** Published before the epoch_seq_ release bump. */
    Tick epoch_limit_ = 0;
};

/**
 * RAII shard binding: while in scope, this thread's
 * `Simulation::events()/random()/now()` resolve to @p shard, objects
 * constructed record it as their home shard, and telemetry bumps land
 * in the shard's counter stripes.  Model factories wrap each
 * partition's construction in one; the epoch engine wraps each
 * shard's execution slice.
 */
class ShardScope
{
  public:
    ShardScope(Simulation &sim, uint32_t shard);
    ~ShardScope();

    ShardScope(const ShardScope &) = delete;
    ShardScope &operator=(const ShardScope &) = delete;

  private:
    detail::ShardBinding prev_;
    unsigned prev_slot_;
};

/**
 * Base for named objects that live inside a simulation (machines,
 * NICs, devices, workers).  Holds the back-reference and a dotted
 * instance name used as the label of its telemetry series.
 */
class SimObject
{
  public:
    SimObject(Simulation &sim, std::string name)
        : sim_(sim), name_(std::move(name))
    {}
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    Simulation &sim() const { return sim_; }
    const std::string &name() const { return name_; }
    Tick now() const { return sim_.now(); }

    /** Shard this object was constructed under (0 when unsharded). */
    uint32_t homeShard() const { return home_shard_; }

  private:
    Simulation &sim_;
    std::string name_;
    uint32_t home_shard_ = Simulation::currentShardIndex();
};

} // namespace vrio::sim

#endif // VRIO_SIM_SIMULATION_HPP
