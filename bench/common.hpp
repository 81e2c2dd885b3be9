/**
 * @file
 * Shared experiment harness for the table/figure reproduction
 * binaries.  Each bench builds a rack + model + workloads, warms up,
 * measures, and prints the paper's rows via stats::Table.
 */
#ifndef VRIO_BENCH_COMMON_HPP
#define VRIO_BENCH_COMMON_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "fault/plan.hpp"
#include "models/io_model.hpp"
#include "stats/histogram.hpp"
#include "stats/table.hpp"
#include "workloads/filebench.hpp"
#include "workloads/netperf.hpp"
#include "workloads/request_response.hpp"

namespace vrio::fault {
class FaultInjector;
}

namespace vrio::bench {

/**
 * True when VRIO_BENCH_SMOKE=1: every bench shrinks its simulated
 * warmup/measure windows so the whole fig/tab/abl suite runs in
 * seconds.  Outputs stay fully deterministic — the golden-run
 * regression harness (tests/golden_test.cpp) snapshots exactly these
 * reduced runs.
 */
bool smokeMode();

struct SweepOptions
{
    /** Defaults shrink to 10/40 ms under smokeMode(). */
    SweepOptions();

    sim::Tick warmup = sim::Tick(30) * sim::kMillisecond;
    sim::Tick measure = sim::Tick(250) * sim::kMillisecond;
    unsigned vmhosts = 1;
    /** Per-VMhost sidecores (Elvis) / total IOhost workers (vRIO). */
    unsigned sidecores = 1;
    /** Generators in the rack; VM v drives generator v % generators. */
    unsigned generators = 1;
    models::CostParams costs{};
    uint64_t seed = 42;
    /** Extra knobs forwarded to the model config. */
    std::function<void(models::ModelConfig &)> tweak;
};

/** A complete experiment instance (thin wrapper over core::Testbed
 *  exposing pointer-style members the bench code uses). */
struct Experiment
{
    std::unique_ptr<core::Testbed> testbed;
    sim::Simulation *sim = nullptr;
    models::Rack *rack = nullptr;
    models::IoModel *model = nullptr;

    Experiment(models::ModelKind kind, unsigned n_vms,
               const SweepOptions &opt);

    /** Run the vRIO control handshake etc. */
    void settle();
};

struct RrResult
{
    stats::Histogram latency_us; ///< merged across all VMs
    uint64_t transactions = 0;
    /** Fraction of IOhost packets that waited for a worker (Fig. 8). */
    double contended_fraction = 0;
};

/** Netperf UDP RR, one session per VM, closed loop. */
RrResult runNetperfRr(models::ModelKind kind, unsigned n_vms,
                      const SweepOptions &opt);

struct StreamResult
{
    double total_gbps = 0;
    /** Guest+host cycles consumed per 64B message (Fig. 10). */
    double cycles_per_msg = 0;
};

/** Netperf TCP stream (64B messages), guest -> generator. */
StreamResult runNetperfStream(models::ModelKind kind, unsigned n_vms,
                              const SweepOptions &opt);

/**
 * Attach-and-arm a fault injector when the model is a vRIO wiring and
 * the plan does something; returns null (and leaves the run untouched)
 * otherwise.
 */
std::unique_ptr<fault::FaultInjector>
attachInjector(Experiment &exp, const fault::FaultPlan &plan);

struct FaultedStreamResult
{
    double total_gbps = 0;
    /** All retransmissions (legacy RTO / adaptive timeout + fast). */
    uint64_t tcp_retransmits = 0;
    uint64_t tcp_timeouts = 0;
    uint64_t tcp_fast_retransmits = 0;
    /** Peak congestion window over the measure window [chunks]. */
    double cwnd_peak = 0;
    /** SRTT at end of run [us] (adaptive mode only). */
    double srtt_last_us = 0;
    /** Frames the wiring lost, from `net.link.lost` (registry sum). */
    uint64_t link_lost = 0;
    /** Faults the injector realized, from `fault.injected`. */
    uint64_t faults_injected = 0;
};

/**
 * Sum one registry counter across every label set in this
 * experiment's simulation (0 when no such series exists).  Benches
 * read rack-wide telemetry this way instead of enumerating objects.
 */
uint64_t registryCounterSum(Experiment &exp, std::string_view name);

/**
 * Client @p vm_index's count in its {vm} telemetry series @p series
 * (DESIGN.md §12), e.g. "client.failovers".  Panics when the series
 * does not exist: a feature-gated series is only registered where
 * its feature is configured.
 */
uint64_t clientCount(models::IoModel &model, unsigned vm_index,
                     std::string_view series);

/**
 * Netperf TCP stream driven through a fault plan (loss sweeps); the
 * stream config selects the legacy fixed-window or the adaptive
 * congestion-controlled stack.
 */
FaultedStreamResult
runNetperfStreamFaulted(models::ModelKind kind, unsigned n_vms,
                        const SweepOptions &opt,
                        const fault::FaultPlan &plan,
                        workloads::NetperfStream::Config scfg);

struct TpsResult
{
    double total_tps = 0;
    stats::Histogram latency_us;
};

/** Apache / memcached style macrobenchmark. */
TpsResult runRequestResponse(models::ModelKind kind, unsigned n_vms,
                             workloads::RequestResponseServer::Config wcfg,
                             const SweepOptions &opt);

/**
 * Parallel executor for independent sweep cells.
 *
 * Each cell builds its own self-contained Experiment + Simulation, so
 * cells share no mutable state and can run on a thread pool.  Results
 * land in per-cell slots handed out at defer time; consuming them in
 * defer order after run() yields tables byte-identical to a
 * sequential sweep regardless of worker count or scheduling.
 *
 * Worker count: explicit constructor argument, else the
 * VRIO_BENCH_JOBS environment variable, else hardware_concurrency.
 * Set VRIO_BENCH_VERBOSE=1 to log per-cell wall-clock to stderr
 * (stdout stays byte-identical).
 */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0);

    /** VRIO_BENCH_JOBS, else hardware_concurrency, else 1. */
    static unsigned defaultJobs();

    unsigned jobs() const { return njobs; }

    /**
     * Queue a cell computing a value of type T; the returned slot is
     * filled during run().  @p fn must be self-contained (no shared
     * mutable state with other cells).
     */
    template <typename T, typename Fn>
    std::shared_ptr<T>
    defer(std::string label, Fn fn)
    {
        auto slot = std::make_shared<T>();
        add(std::move(label),
            [slot, fn = std::move(fn)]() { *slot = fn(); });
        return slot;
    }

    /** Queue a Netperf UDP RR cell (see runNetperfRr). */
    std::shared_ptr<RrResult> netperfRr(models::ModelKind kind,
                                        unsigned n_vms, SweepOptions opt);

    /** Queue a Netperf stream cell (see runNetperfStream). */
    std::shared_ptr<StreamResult> netperfStream(models::ModelKind kind,
                                                unsigned n_vms,
                                                SweepOptions opt);

    /** Queue a request/response macrobenchmark cell. */
    std::shared_ptr<TpsResult>
    requestResponse(models::ModelKind kind, unsigned n_vms,
                    workloads::RequestResponseServer::Config wcfg,
                    SweepOptions opt);

    /** Execute all queued cells; returns once every slot is filled. */
    void run();

  private:
    struct Cell
    {
        std::string label;
        std::function<void()> task;
    };

    unsigned njobs;
    std::vector<Cell> cells;

    void add(std::string label, std::function<void()> task);
    void runCell(Cell &cell, bool verbose);
};

/** Merge a histogram's samples into another. */
void mergeHistogram(stats::Histogram &into, const stats::Histogram &from);

/** Busy cycles consumed by a set of core resources (at ghz). */
double busyCycles(const std::vector<const sim::Resource *> &resources,
                  double ghz);

} // namespace vrio::bench

#endif // VRIO_BENCH_COMMON_HPP
