/**
 * @file
 * Rack-wide metrics registry: hierarchical, label-aware counters,
 * gauges and fixed-bucket log2 histograms.
 *
 * The contract that keeps telemetry off the simulator's hot path:
 * handles are resolved ONCE at setup (`registry.counter(name, labels)`
 * does a map lookup and may allocate) and every subsequent update is a
 * raw `uint64_t` bump through the returned reference — no string
 * hashing, no allocation, no branch beyond the caller's own.  Nothing
 * in this module touches stdout, the RNG, or the event queue, so an
 * instrumented run with no exporters armed is byte-identical to an
 * uninstrumented one by construction.
 */
#ifndef VRIO_TELEMETRY_METRICS_HPP
#define VRIO_TELEMETRY_METRICS_HPP

#include <array>
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vrio::telemetry {

/**
 * Stripe slot of the shard the current thread is executing (0 when
 * the simulation is not sharded).  Set by the parallel simulator
 * (`sim::ShardScope`); read on every bump of a striped series.
 */
inline thread_local unsigned t_shard_slot = 0;

inline void setShardSlot(unsigned slot) { t_shard_slot = slot; }
inline unsigned shardSlot() { return t_shard_slot; }

/**
 * Monotonic event count.  Bumps are single adds on a raw word.
 *
 * In a sharded simulation the counter is striped: each shard bumps a
 * private cache-line-padded slot (indexed by the thread's shard slot)
 * and `value()` merges on read, so concurrent shards never touch the
 * same word.  Unstriped (the default) the hot path is the historical
 * single add behind one null-pointer test.
 */
class Counter
{
  public:
    void inc() { add(1); }
    void
    add(uint64_t n)
    {
        if (stripes_)
            stripes_[t_shard_slot].v += n;
        else
            v_ += n;
    }
    uint64_t
    value() const
    {
        uint64_t v = v_;
        for (unsigned s = 0; s < nstripes_; ++s)
            v += stripes_[s].v;
        return v;
    }
    void
    reset()
    {
        v_ = 0;
        for (unsigned s = 0; s < nstripes_; ++s)
            stripes_[s].v = 0;
    }

    /** Give each of @p shards a private bump slot. */
    void stripe(unsigned shards);

  private:
    struct alignas(64) Slot
    {
        uint64_t v = 0;
    };
    uint64_t v_ = 0;
    unsigned nstripes_ = 0;
    std::unique_ptr<Slot[]> stripes_;
};

/** Last-write-wins instantaneous value (queue depth, cwnd, ...). */
class Gauge
{
  public:
    void set(double v) { v_ = v; }
    double value() const { return v_; }
    void reset() { v_ = 0; }

  private:
    double v_ = 0;
};

/**
 * Fixed-bucket log2 histogram: bucket 0 holds the value 0, bucket k
 * (k >= 1) holds values in [2^(k-1), 2^k).  65 buckets cover the full
 * uint64 range, so `record` is branch-free apart from the zero check:
 * one count-leading-zeros, three adds.  No samples are retained —
 * quantiles come back at bucket resolution (geometric midpoint),
 * which is plenty for latency distributions spanning decades.
 *
 * Like Counter, a histogram can be striped for a sharded simulation:
 * each shard records into a private bucket array and every read-side
 * accessor folds the stripes.  Reads happen at reporting time only,
 * so the merge cost is off the hot path.
 */
class LogHistogram
{
  public:
    static constexpr unsigned kBuckets = 65;

    /** Bucket index for @p v: 0 -> 0, [2^(k-1), 2^k) -> k. */
    static unsigned
    bucketOf(uint64_t v)
    {
        return unsigned(std::bit_width(v)); // one clz; 0 maps to 0
    }

    /** Inclusive lower edge of bucket @p b. */
    static uint64_t
    bucketLow(unsigned b)
    {
        return b == 0 ? 0 : uint64_t(1) << (b - 1);
    }

    /** Exclusive upper edge of bucket @p b (0 -> 1). */
    static uint64_t
    bucketHigh(unsigned b)
    {
        return b == 0 ? 1 : uint64_t(1) << b;
    }

    void
    record(uint64_t v)
    {
        (stripes_ ? stripes_[t_shard_slot] : data_).record(v);
    }

    uint64_t count() const { return merged().count; }
    uint64_t sum() const { return merged().sum; }
    uint64_t
    min() const
    {
        Data d = merged();
        return d.count ? d.min : 0;
    }
    uint64_t max() const { return merged().max; }
    double
    mean() const
    {
        Data d = merged();
        return d.count ? double(d.sum) / double(d.count) : 0;
    }
    uint64_t bucketCount(unsigned b) const { return merged().buckets[b]; }

    /**
     * Bucket-resolution quantile estimate: the geometric midpoint of
     * the bucket containing the q-th sample.
     */
    double
    quantile(double q) const
    {
        Data d = merged();
        if (d.count == 0)
            return 0;
        uint64_t rank = uint64_t(q * double(d.count - 1)) + 1;
        uint64_t seen = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            seen += d.buckets[b];
            if (seen >= rank) {
                if (b == 0)
                    return 0;
                double lo = double(bucketLow(b));
                double hi = double(bucketHigh(b));
                return lo + (hi - lo) / 2.0;
            }
        }
        return double(d.max);
    }

    void reset();

    /** Give each of @p shards a private bucket array. */
    void stripe(unsigned shards);

  private:
    struct Data
    {
        std::array<uint64_t, kBuckets> buckets{};
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t min = 0;
        uint64_t max = 0;

        void
        record(uint64_t v)
        {
            ++buckets[bucketOf(v)];
            ++count;
            sum += v;
            if (v < min || count == 1)
                min = v;
            if (v > max)
                max = v;
        }

        void merge(const Data &o);
        void clear();
    };

    /** Fold all stripes into one view (identity when unstriped). */
    Data merged() const;

    Data data_;
    unsigned nstripes_ = 0;
    std::unique_ptr<Data[]> stripes_;
};

/**
 * A small set of key=value labels.  Order given by the caller is
 * irrelevant: the registry sorts by key before building the series
 * identity, so {a=1,b=2} and {b=2,a=1} name the same series.
 */
struct Labels
{
    std::vector<std::pair<std::string, std::string>> kv;

    Labels() = default;
    Labels(std::initializer_list<std::pair<std::string, std::string>> init)
        : kv(init)
    {}

    bool empty() const { return kv.empty(); }
};

/**
 * Find-or-create registry of metric series.  A series is identified
 * by (name, sorted labels); looking the same identity up twice
 * returns the same handle, so setup code anywhere in the tree can
 * share a series without coordination.  Handles are stable for the
 * registry's lifetime (node-based storage).
 */
class MetricsRegistry
{
  public:
    enum class Kind { CounterK, GaugeK, HistogramK, ProbeK };

    Counter &counter(std::string_view name, Labels labels = {});
    Gauge &gauge(std::string_view name, Labels labels = {});
    LogHistogram &histogram(std::string_view name, Labels labels = {});

    /**
     * Pull-style series: @p fn is sampled only when an exporter walks
     * the registry, so pre-existing component counters can surface in
     * exports with zero hot-path change.  Re-registering the same
     * identity replaces the sampler.
     */
    void probe(std::string_view name, Labels labels,
               std::function<double()> fn);

    struct Series
    {
        std::string name;
        Labels labels;
        Kind kind;
        Counter counter;
        Gauge gauge;
        LogHistogram histogram;
        std::function<double()> sampler;
    };

    /** Number of registered series. */
    size_t size() const { return series_.size(); }

    /**
     * Visit every series in deterministic (key-sorted) order —
     * exporters rely on this so output never depends on registration
     * order.
     */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const auto &[key, s] : series_)
            fn(*s);
    }

    /** Sum of all counter series with @p name (any labels). */
    uint64_t sumCounters(std::string_view name) const;

    /** The single series with exactly this identity, or null. */
    const Series *find(std::string_view name, Labels labels = {}) const;

    /**
     * Value of the one counter or probe series with exactly this
     * identity.  Panics when no such series exists (or it is another
     * kind), so a misspelt name or a series that was never registered
     * fails loudly instead of reading 0.
     */
    uint64_t count(std::string_view name, Labels labels = {}) const;

    /**
     * Stripe every counter/histogram series — existing and future —
     * for @p shards concurrent writers (see Counter::stripe).  Called
     * once by the sharded simulator before any shard thread runs;
     * registration itself must still happen from one thread at a time
     * (model construction and run regions never overlap).  Gauges are
     * left unstriped: last-write-wins has no meaningful parallel
     * merge and no simulator hot path sets one.
     */
    void enableSharding(unsigned shards);

  private:
    Series &fetch(std::string_view name, Labels labels, Kind kind);
    static std::string seriesKey(std::string_view name, const Labels &l);

    std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
    unsigned stripe_shards_ = 0;
};

} // namespace vrio::telemetry

#endif // VRIO_TELEMETRY_METRICS_HPP
