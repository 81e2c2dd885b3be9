/**
 * @file
 * The benchmark's workloads and the repetition that runs one of them:
 * build the testbed, settle, prefill, start the generators, warm up,
 * measure a fixed simulated window, drain and check.
 *
 * Each workload drives the simulator only through core::Testbed,
 * sim::Simulation::runUntil and the public workload classes, and reads
 * counts only through telemetry::MetricsRegistry (plus
 * IoModel::ioResources() for the Fig. 8 contention ratio).
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"
#include "stats/histogram.hpp"

namespace perfbench {

struct RunSpec
{
    std::string workload;
    uint64_t seed = 1;
    /** Event-loop threads (0 = the workload's own choice). */
    unsigned threads = 0;
    /** Explicit shard count (0 = automatic layout). */
    unsigned shards = 0;
    /** Corrupt one expected read pattern (negative test of the gate). */
    bool corrupt_expected = false;
};

struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Everything one repetition measured. */
struct RepResult
{
    // Host seconds per phase.
    double ctor_s = 0, settle_s = 0, prefill_s = 0, start_s = 0;
    double warmup_s = 0, run_s = 0, drain_s = 0, verify_s = 0;
    double setupSeconds() const
    {
        return ctor_s + settle_s + prefill_s + start_s;
    }

    // The simulated measured window.
    double window_s = 0;
    uint64_t attempted = 0;
    uint64_t completed = 0;
    /** Failed ops plus arrivals dropped at the outstanding cap. */
    uint64_t failed = 0;
    /** Per-op latencies [simulated us]. */
    vrio::stats::Histogram lat_us;
    /** Latencies of the victim tenants (every VM when none is an
     *  aggressor). */
    vrio::stats::Histogram victim_lat_us;
    uint64_t victim_attempted = 0;
    /** Victim requests over the SLO, failed or dropped. */
    uint64_t victim_slo_miss = 0;

    /** Registry at the run.measure boundaries. */
    RegistrySnapshot before, after;
    /** Σ contendedJobs / Σ completed over IoModel::ioResources(). */
    double contended_frac = 0;
    /** Cross-shard lookahead [ps] (0 when single-queue). */
    uint64_t lookahead_ps = 0;
    unsigned worker_count = 0;
    /** Payloads the encryption-at-rest service processed (window). */
    uint64_t encrypted_payloads = 0;
    /** Arrivals dropped at the open-loop outstanding cap (window). */
    uint64_t overflows = 0;

    std::vector<Check> checks;
    uint64_t fingerprint = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Simulated warm-up and measured window lengths. */
    virtual uint64_t warmupTicks() const = 0;
    virtual uint64_t measureTicks() const = 0;
    /** Event-loop threads when the spec leaves it open. */
    virtual unsigned defaultThreads() const { return 1; }
    /** Kernel passes (see kernels.hpp) relevant to this workload. */
    virtual std::vector<std::string> kernels() const = 0;

    virtual void construct(const RunSpec &spec) = 0;
    virtual void settle() = 0;
    virtual void prefill() {}
    virtual void start() = 0;
    virtual void advance(uint64_t ticks) = 0;
    virtual const telemetry::MetricsRegistry &registry() const = 0;
    virtual void beginWindow(RepResult &r) = 0;
    virtual void endWindow(RepResult &r) = 0;
    virtual void drain() {}
    /** Add checks and fold workload results into @p fp. */
    virtual void verify(RepResult &r, Fingerprint &fp) = 0;
};

/** The workload named @p name, or null when there is none. */
std::unique_ptr<Workload> makeWorkload(std::string_view name);

/** One full repetition; spans go to @p log when it is enabled. */
RepResult runRep(Workload &wl, const RunSpec &spec, SpanLog &log);

/** Only the set-up phases of a repetition (more set-up_s samples). */
RepResult runSetupOnly(Workload &wl, const RunSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
