/**
 * @file
 * FIFO queueing resources.
 *
 * A Resource models anything that serves one job at a time per server:
 * CPU cores, sidecores/workers, link transmitters, disk channels.
 * Queueing behaviour at shared resources is what produces the paper's
 * contention effects (Fig. 8's latency gap growth, Elvis's sidecore
 * saturation, Fig. 13b's 13 Gbps/sidecore ceiling), so the resource
 * tracks wait-time and utilization statistics natively.
 */
#ifndef VRIO_SIM_RESOURCE_HPP
#define VRIO_SIM_RESOURCE_HPP

#include <deque>
#include <string>

#include "sim/event_queue.hpp"
#include "stats/histogram.hpp"
#include "stats/time_series.hpp"

namespace vrio::sim {

class Resource
{
  public:
    /**
     * @param eq event queue driving this resource.
     * @param name stat-reporting name.
     * @param servers number of identical servers (a dual-socket core
     *        pool is `servers = ncores`; a link transmitter is 1).
     */
    /** Completion/service callbacks; inline up to 64 bytes of capture. */
    using JobFn = SmallFunction<void(), 64>;
    using ServiceFn = SmallFunction<Tick(), 64>;

    Resource(EventQueue &eq, std::string name, unsigned servers = 1);

    /**
     * Enqueue a job of length @p service_time; @p on_done runs at
     * completion time.  Jobs are served strictly FIFO: a submission
     * joins the back of a nonempty queue even when a server is free.
     * The only externally observable free-server/nonempty-queue state
     * is inside a completion callback — the finishing job's server is
     * released before the callback so busyServers() excludes it — so
     * this gate is precisely "a job submitted from a completion
     * callback cannot overtake jobs already waiting".
     */
    void submit(Tick service_time, JobFn on_done);

    /**
     * Like submit() but dispatches ahead of any queued backlog when a
     * server is free.  Models preemptive work — interrupt injection,
     * vCPU exit handling — that a core takes up immediately rather
     * than behind its run queue.
     */
    void submitPreempt(Tick service_time, JobFn on_done);

    /**
     * Like submit() but the job's service time is only determined when
     * service begins (e.g. batched NIC polling whose batch size depends
     * on what has accumulated).  @p make_job returns the service time
     * and is invoked at service start; @p on_done runs at completion.
     * FIFO-gated the same way as submit().
     */
    void submitDeferred(ServiceFn make_job, JobFn on_done);

    const std::string &name() const { return name_; }
    unsigned servers() const { return nservers; }

    /** Jobs completed so far. */
    uint64_t completed() const { return completed_; }
    /** Sum of busy time across all servers. */
    Tick busyTicks() const { return busy_ticks; }
    /** Jobs currently waiting (not in service). */
    size_t queueLength() const { return queue.size(); }
    /** Servers currently serving a job. */
    unsigned busyServers() const { return busy; }
    /** Jobs that found all servers busy and had to wait. */
    uint64_t contendedJobs() const { return contended; }

    /**
     * Pause/resume job admission.  A paused resource finishes jobs
     * already in service but starts nothing new; submissions queue up
     * behind the pause.  Models a wedged worker core: the stall lasts
     * until someone calls setPaused(false), at which point the backlog
     * drains in FIFO order.
     */
    void setPaused(bool paused);
    bool paused() const { return paused_; }

    /** Distribution of per-job queueing delay (microseconds). */
    const stats::Histogram &waitHistogram() const { return wait_hist; }

    /** Mean utilization per server over [start_tick, now]. */
    double utilizationSince(Tick start_tick) const;

    /** Reset statistics (does not affect in-flight jobs). */
    void resetStats();

  private:
    struct Job
    {
        Tick service;
        ServiceFn make_service;
        JobFn on_done;
        Tick enqueued;
    };

    EventQueue &eq;
    std::string name_;
    unsigned nservers;
    unsigned busy = 0;
    bool paused_ = false;
    std::deque<Job> queue;

    uint64_t completed_ = 0;
    uint64_t contended = 0;
    Tick busy_ticks = 0;
    Tick stats_epoch = 0;
    stats::Histogram wait_hist;

    void startNext();
    void beginService(Job job);
};

/**
 * Periodically samples a resource's utilization into a TimeSeries;
 * drives the CPU-usage traces of Fig. 15.
 */
class UtilizationSampler
{
  public:
    /**
     * Sample every @p window ticks starting one window from now.
     * Stops sampling after @p until (0 = forever).
     */
    UtilizationSampler(EventQueue &eq, const Resource &res, Tick window,
                       Tick until = 0);

    const stats::TimeSeries &series() const { return series_; }

  private:
    EventQueue &eq;
    const Resource &res;
    Tick window;
    Tick until;
    Tick last_busy = 0;
    stats::TimeSeries series_;

    void sample();
};

} // namespace vrio::sim

#endif // VRIO_SIM_RESOURCE_HPP
