/**
 * @file
 * Measurement plumbing for the benchmark: host-time spans, registry
 * snapshots and the simulated-statistics fingerprint.
 *
 * Everything here observes the simulator from outside: spans wrap the
 * benchmark's own calls into the layers, and counts come only from
 * telemetry::MetricsRegistry.
 */
#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace perfbench {

namespace telemetry = vrio::telemetry;

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One benchmark span: host seconds relative to the log's origin. */
struct Span
{
    std::string name;
    double start_s = 0;
    double end_s = 0;
    /** Index of the enclosing span in the log, -1 for a root. */
    int parent = -1;
};

/**
 * Times the phases of a run.  Every phase is timed; spans are kept
 * (in memory, written out by the caller at the end) only when the
 * log is enabled, which is the traced run.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Run @p fn as span @p name under @p parent; returns host seconds. */
    template <typename Fn>
    double
    timed(std::string name, int parent, Fn &&fn)
    {
        int id = open(std::move(name), parent);
        Clock::time_point t0 = Clock::now();
        fn();
        Clock::time_point t1 = Clock::now();
        close(id, t0, t1);
        return secondsBetween(t0, t1);
    }

    /** Open a span timed by the caller; -1 when disabled. */
    int open(std::string name, int parent);
    void close(int id, Clock::time_point start, Clock::time_point end);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/**
 * Registry values by series name, summed over labels: counters,
 * probes (sampled now) and merged log2 histogram buckets.
 */
struct RegistrySnapshot
{
    struct Hist
    {
        std::array<uint64_t, telemetry::LogHistogram::kBuckets> buckets{};
        uint64_t count = 0;
        uint64_t sum = 0;
    };

    std::map<std::string, uint64_t, std::less<>> counters;
    std::map<std::string, double, std::less<>> probes;
    std::map<std::string, Hist, std::less<>> hists;

    static RegistrySnapshot take(const telemetry::MetricsRegistry &m);

    uint64_t counter(std::string_view name) const;
    double probe(std::string_view name) const;
    Hist hist(std::string_view name) const;
};

/** Counter delta between two snapshots. */
uint64_t counterDelta(const RegistrySnapshot &a, const RegistrySnapshot &b,
                      std::string_view name);
/** Probe delta between two snapshots (cumulative probes). */
double probeDelta(const RegistrySnapshot &a, const RegistrySnapshot &b,
                  std::string_view name);
/** Histogram of the samples recorded between two snapshots. */
RegistrySnapshot::Hist histDelta(const RegistrySnapshot &a,
                                 const RegistrySnapshot &b,
                                 std::string_view name);
/** Bucket-resolution quantile (geometric bucket midpoint), 0 if empty. */
double histQuantile(const RegistrySnapshot::Hist &h, double q);

/** FNV-1a 64-bit accumulator for the simulated-statistics fingerprint. */
class Fingerprint
{
  public:
    void bytes(const void *p, size_t n);
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v);
    void str(std::string_view s);
    /** Every series of @p m: identity, kind and value(s). */
    void registry(const telemetry::MetricsRegistry &m);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Peak resident set size of this process (VmHWM) in MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
