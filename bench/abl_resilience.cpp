/**
 * @file
 * Resilience ablation (not a paper figure): how the interposable
 * models degrade and recover under injected faults.
 *
 * Four experiments:
 *   1. Block loss sweep — Filebench 4KB random pairs while the vRIO
 *      T-channel drops 0 .. 1% of frames.  The Section 4.5
 *      retransmission protocol must complete every request at small
 *      loss rates with bounded p99 inflation; local models (baseline,
 *      elvis) have no remote channel and anchor the comparison.
 *   2. IOhost outage timeline — ops completed per 20ms bucket across
 *      a scripted crash/restart window.  Throughput must fall to ~0
 *      while the IOhost is dark and return to steady state after it
 *      revives, with no failed requests (retransmission + the disk
 *      scheduler's one-outstanding-request-per-block invariant make
 *      blind replays safe).
 *   3. Fault mix — corruption, delay, reordering, RX-ring squeeze and
 *      sidecore stalls against vRIO, plus a TCP-stream loss sweep
 *      where recovery happens in the guest's adaptive TCP stack
 *      (congestion window + SRTT-tracked RTO + fast retransmit)
 *      instead of the block protocol, under both i.i.d. and
 *      Gilbert-Elliott burst loss.
 *   4. Detection + recovery — the cfg.recovery layer (IOhost
 *      heartbeats, worker watchdog, client retry, rack failover)
 *      against a wedged worker, a dead switch port, and a permanent
 *      IOhost outage; reports detection latency, recovery time,
 *      goodput dip and the stranded-request count after a drain
 *      (which must be zero).  VRIO_RESILIENCE_RECOVERY=1 runs only
 *      this section (the CI recovery lane).
 *
 * VRIO_RESILIENCE_SMOKE=1 (or the suite-wide VRIO_BENCH_SMOKE=1)
 * shrinks every run (CI smoke test / golden harness).
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common.hpp"
#include "fault/injector.hpp"
#include "models/vrio.hpp"

using namespace vrio;
using models::ModelKind;

namespace {

bool
smoke()
{
    const char *env = std::getenv("VRIO_RESILIENCE_SMOKE");
    return (env && env[0] == '1') || bench::smokeMode();
}

bench::SweepOptions
baseOptions()
{
    bench::SweepOptions opt;
    if (smoke()) {
        opt.warmup = sim::Tick(10) * sim::kMillisecond;
        opt.measure = sim::Tick(40) * sim::kMillisecond;
    } else {
        opt.measure = sim::Tick(200) * sim::kMillisecond;
    }
    opt.tweak = [](models::ModelConfig &mc) { mc.with_block = true; };
    return opt;
}

std::vector<std::unique_ptr<workloads::FilebenchRandom>>
startFilebenchPairs(bench::Experiment &exp, unsigned n_vms)
{
    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < n_vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 1;
        cfg.writers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            exp.model->guest(v), exp.sim->random().split(), cfg));
        wls.back()->start();
    }
    return wls;
}

// -- experiment 1: block loss sweep -------------------------------------

struct BlockCell
{
    double ops_per_sec = 0;
    double p99_us = 0;
    uint64_t retransmits = 0;
    uint64_t errors = 0;
};

BlockCell
measureBlockCell(bench::Experiment &exp,
                 std::vector<std::unique_ptr<workloads::FilebenchRandom>>
                     &wls)
{
    BlockCell out;
    stats::Histogram merged;
    for (auto &wl : wls) {
        out.ops_per_sec += wl->opsPerSec(*exp.sim);
        out.errors += wl->ioErrors();
        bench::mergeHistogram(merged, wl->latencyUs());
    }
    out.p99_us = merged.count() ? merged.percentile(99) : 0;
    if (auto *vm = dynamic_cast<models::VrioModel *>(exp.model)) {
        for (unsigned v = 0; v < exp.model->numVms(); ++v)
            out.retransmits += bench::clientCount(
                *vm, v, "transport.rtq.retransmissions");
    }
    return out;
}

BlockCell
runBlockCell(ModelKind kind, const fault::FaultPlan &plan)
{
    const unsigned n_vms = 2;
    bench::SweepOptions opt = baseOptions();
    bench::Experiment exp(kind, n_vms, opt);
    exp.settle();
    auto inj = bench::attachInjector(exp, plan);

    auto wls = startFilebenchPairs(exp, n_vms);
    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    for (auto &wl : wls)
        wl->resetStats();
    exp.sim->runUntil(exp.sim->now() + opt.measure);
    return measureBlockCell(exp, wls);
}

void
blockLossSweep(const std::vector<double> &loss_rates)
{
    const ModelKind kinds[] = {ModelKind::Baseline, ModelKind::Elvis,
                               ModelKind::Vrio, ModelKind::VrioNoPoll};

    bench::SweepRunner runner;
    std::vector<std::shared_ptr<BlockCell>> slots;
    for (double loss : loss_rates) {
        for (ModelKind kind : kinds) {
            char label[64];
            std::snprintf(label, sizeof(label), "block %s loss=%g",
                          models::modelKindName(kind), loss);
            slots.push_back(
                runner.defer<BlockCell>(label, [kind, loss]() {
                    fault::FaultPlan plan;
                    plan.seed = 43;
                    plan.dropRate(loss);
                    return runBlockCell(kind, plan);
                }));
        }
    }
    runner.run();

    stats::Table ops("Resilience 1a: Filebench pairs under channel loss "
                     "[ops/sec]");
    stats::Table p99("Resilience 1b: block p99 latency [us]");
    stats::Table recov("Resilience 1c: vRIO protocol recoveries "
                       "(retransmits / errors)");
    ops.setHeader({"loss", "base", "elvis", "vrio", "vrio-nopoll"});
    p99.setHeader({"loss", "base", "elvis", "vrio", "vrio-nopoll"});
    recov.setHeader({"loss", "vrio-retx", "vrio-err", "nopoll-retx",
                     "nopoll-err"});

    size_t i = 0;
    for (double loss : loss_rates) {
        char lbl[32];
        std::snprintf(lbl, sizeof(lbl), "%.4f", loss);
        std::vector<double> ops_row, p99_row;
        const BlockCell *vrio_cell = nullptr, *nopoll_cell = nullptr;
        for (ModelKind kind : kinds) {
            const BlockCell &c = *slots[i++];
            ops_row.push_back(c.ops_per_sec);
            p99_row.push_back(c.p99_us);
            if (kind == ModelKind::Vrio)
                vrio_cell = &c;
            else if (kind == ModelKind::VrioNoPoll)
                nopoll_cell = &c;
        }
        ops.addRow(lbl, ops_row, 0);
        p99.addRow(lbl, p99_row, 1);
        recov.addRow(lbl,
                     {double(vrio_cell->retransmits),
                      double(vrio_cell->errors),
                      double(nopoll_cell->retransmits),
                      double(nopoll_cell->errors)},
                     0);
    }
    std::printf("%s\n", ops.toString().c_str());
    std::printf("%s\n", p99.toString().c_str());
    std::printf("%s\n", recov.toString().c_str());
}

// -- experiment 2: IOhost outage timeline -------------------------------

struct OutageResult
{
    std::vector<uint64_t> bucket_ops;
    size_t outage_first_bucket = 0;
    size_t outage_last_bucket = 0;
    uint64_t errors = 0;
    uint64_t retransmits = 0;
    uint64_t offline_rx_drops = 0;
    double steady_before = 0;
    double steady_after = 0;
};

OutageResult
runOutageTimeline()
{
    const unsigned n_vms = 2;
    const sim::Tick bucket = sim::Tick(20) * sim::kMillisecond;
    const size_t lead_buckets = smoke() ? 3 : 10;
    const sim::Tick outage = smoke()
                                 ? sim::Tick(100) * sim::kMillisecond
                                 : sim::Tick(300) * sim::kMillisecond;
    const size_t tail_buckets = smoke() ? 10 : 25;

    bench::SweepOptions opt = baseOptions();
    bench::Experiment exp(ModelKind::Vrio, n_vms, opt);
    exp.settle();

    auto wls = startFilebenchPairs(exp, n_vms);
    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    for (auto &wl : wls)
        wl->resetStats();

    // Script the crash at an absolute tick after the lead-in.
    fault::FaultPlan plan;
    plan.seed = 44;
    plan.killIoHost(exp.sim->now() + sim::Tick(lead_buckets) * bucket,
                    outage);
    auto inj = bench::attachInjector(exp, plan);

    const size_t outage_buckets =
        size_t((outage + bucket - 1) / bucket);
    const size_t total_buckets =
        lead_buckets + outage_buckets + tail_buckets;

    OutageResult out;
    out.outage_first_bucket = lead_buckets;
    out.outage_last_bucket = lead_buckets + outage_buckets - 1;
    uint64_t prev_ops = 0;
    for (size_t b = 0; b < total_buckets; ++b) {
        exp.sim->runUntil(exp.sim->now() + bucket);
        uint64_t now_ops = 0;
        for (auto &wl : wls)
            now_ops += wl->opsCompleted();
        out.bucket_ops.push_back(now_ops - prev_ops);
        prev_ops = now_ops;
    }

    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);
    for (unsigned v = 0; v < n_vms; ++v)
        out.retransmits +=
            bench::clientCount(*vm, v, "transport.rtq.retransmissions");
    for (auto &wl : wls)
        out.errors += wl->ioErrors();
    out.offline_rx_drops = vm->hypervisor().offlineRxDrops();

    for (size_t b = 0; b < lead_buckets; ++b)
        out.steady_before += double(out.bucket_ops[b]);
    out.steady_before /= double(lead_buckets);
    const size_t settled = 5; // skip the post-restart catch-up burst
    size_t after_start = out.outage_last_bucket + 1 + settled;
    size_t after_n = 0;
    for (size_t b = after_start; b < total_buckets; ++b, ++after_n)
        out.steady_after += double(out.bucket_ops[b]);
    if (after_n > 0)
        out.steady_after /= double(after_n);
    return out;
}

void
outageTimeline()
{
    OutageResult r = runOutageTimeline();

    stats::Table table("Resilience 2: vRIO IOhost crash/restart "
                       "timeline (Filebench pairs)");
    table.setHeader({"t_ms", "ops", "iohost"});
    for (size_t b = 0; b < r.bucket_ops.size(); ++b) {
        bool dark = b >= r.outage_first_bucket &&
                    b <= r.outage_last_bucket;
        table.addRow({std::to_string(b * 20),
                      std::to_string(r.bucket_ops[b]),
                      dark ? "down" : "up"});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("outage summary: steady_before=%.0f ops/bucket, "
                "steady_after=%.0f ops/bucket, retransmits=%llu, "
                "frames_dropped_at_dead_iohost=%llu, io_errors=%llu\n",
                r.steady_before, r.steady_after,
                (unsigned long long)r.retransmits,
                (unsigned long long)r.offline_rx_drops,
                (unsigned long long)r.errors);
    std::printf("expected shape: ops fall to ~0 while down, then "
                "recover to the pre-outage rate with zero errors.\n\n");
}

// -- experiment 3: fault mix + guest-TCP loss recovery ------------------

struct MixScenario
{
    const char *name;
    fault::FaultPlan plan;
};

std::vector<MixScenario>
mixScenarios(sim::Tick warmup)
{
    // Windows are relative to the start of measurement; cells add the
    // absolute offset at settle time via plan adjustments below.
    sim::Tick win_at = warmup + sim::Tick(20) * sim::kMillisecond;
    sim::Tick win_len = smoke() ? sim::Tick(10) * sim::kMillisecond
                                : sim::Tick(100) * sim::kMillisecond;
    std::vector<MixScenario> out;
    out.push_back({"clean", fault::FaultPlan{}});
    {
        fault::FaultPlan p;
        p.seed = 45;
        p.corruptRate(0.005);
        out.push_back({"corrupt-0.5%", p});
    }
    {
        fault::FaultPlan p;
        p.seed = 46;
        p.delayRate(0.005, sim::Tick(200) * sim::kMicrosecond);
        out.push_back({"delay-0.5%", p});
    }
    {
        fault::FaultPlan p;
        p.seed = 47;
        p.reorderRate(0.01, sim::Tick(50) * sim::kMicrosecond);
        out.push_back({"reorder-1%", p});
    }
    {
        fault::FaultPlan p;
        p.seed = 48;
        p.squeezeRxRing(win_at, win_len, 8);
        out.push_back({"rx-squeeze-8", p});
    }
    {
        fault::FaultPlan p;
        p.seed = 49;
        p.stallSidecore(0, win_at, win_len);
        out.push_back({"sidecore-stall", p});
    }
    return out;
}

void
faultMix()
{
    bench::SweepOptions probe = baseOptions();
    auto scenarios = mixScenarios(probe.warmup);

    bench::SweepRunner runner;
    std::vector<std::shared_ptr<BlockCell>> slots;
    for (const MixScenario &sc : scenarios) {
        fault::FaultPlan plan = sc.plan;
        slots.push_back(runner.defer<BlockCell>(
            std::string("mix ") + sc.name,
            [plan]() { return runBlockCell(ModelKind::Vrio, plan); }));
    }
    runner.run();

    stats::Table table("Resilience 3a: vRIO fault mix (Filebench pairs)");
    table.setHeader({"fault", "ops/sec", "p99_us", "retx", "errors"});
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const BlockCell &c = *slots[i];
        table.addRow(scenarios[i].name,
                     {c.ops_per_sec, c.p99_us, double(c.retransmits),
                      double(c.errors)},
                     0);
    }
    std::printf("%s\n", table.toString().c_str());
}

bench::FaultedStreamResult
runStreamCell(double loss_rate, bool burst)
{
    bench::SweepOptions opt = baseOptions();
    opt.tweak = nullptr; // no block device needed

    fault::FaultPlan plan;
    plan.seed = 50;
    if (loss_rate > 0) {
        if (burst) {
            // Bursts span several TSO chunks (3 jumbo frames each).
            // The short smoke window needs more frequent, shorter
            // bursts to stay statistically busy.
            plan.burstLoss(loss_rate, smoke() ? 8 : 16);
        }
        else
            plan.dropRate(loss_rate);
    }

    // The adaptive guest-TCP stack recovers channel loss: the
    // congestion window collapses and regrows, the SRTT-tracked RTO
    // backs off, and triple duplicate acks trigger fast retransmit —
    // no fixed per-chunk timer needed.
    workloads::NetperfStream::Config cfg;
    cfg.adaptive = true;
    cfg.tcp.max_window = 32;
    cfg.tcp.initial_ssthresh = 16;
    return bench::runNetperfStreamFaulted(ModelKind::Vrio, 1, opt, plan,
                                          cfg);
}

void
streamLossSweep(const std::vector<double> &loss_rates)
{
    bench::SweepRunner runner;
    std::vector<std::shared_ptr<bench::FaultedStreamResult>> slots;
    std::vector<std::string> labels;
    for (double loss : loss_rates) {
        char label[64];
        std::snprintf(label, sizeof(label), "stream loss=%g", loss);
        slots.push_back(runner.defer<bench::FaultedStreamResult>(
            label, [loss]() { return runStreamCell(loss, false); }));
        char lbl[32];
        std::snprintf(lbl, sizeof(lbl), "%.4f", loss);
        labels.push_back(lbl);
    }
    // One burst scenario at the highest rate: equal average loss,
    // correlated into Gilbert-Elliott bursts.
    double top = loss_rates.back();
    slots.push_back(runner.defer<bench::FaultedStreamResult>(
        "stream burst", [top]() { return runStreamCell(top, true); }));
    {
        char lbl[32];
        std::snprintf(lbl, sizeof(lbl), "%.4f-ge", top);
        labels.push_back(lbl);
    }
    runner.run();

    stats::Table table("Resilience 3b: vRIO TCP stream under channel "
                       "loss (adaptive guest-TCP: cwnd + SRTT RTO + "
                       "fast retransmit)");
    table.setHeader({"loss", "gbps", "retx", "timeouts", "fast_retx",
                     "cwnd_peak", "srtt_us"});
    for (size_t i = 0; i < slots.size(); ++i) {
        const auto &c = *slots[i];
        table.addRow(labels[i],
                     {c.total_gbps, double(c.tcp_retransmits),
                      double(c.tcp_timeouts),
                      double(c.tcp_fast_retransmits), c.cwnd_peak,
                      c.srtt_last_us},
                     2);
    }
    std::printf("%s\n", table.toString().c_str());
}

// -- experiment 4: detection + recovery (cfg.recovery) ------------------

/**
 * Each cell runs Filebench pairs plus one adaptive TCP stream while a
 * partial fault lands mid-run with the recovery layer armed
 * (heartbeats + watchdog + retry + rack failover).  The timeline
 * is bucketed so detection latency, recovery time and the goodput dip
 * are measurable; afterwards the workloads are stopped and the run
 * drains so stranded requests can be counted (must be zero).
 */
enum class RecoveryFault
{
    WedgedWorker,  ///< worker 0 wedges; the IOhost watchdog re-steers
    DeadPort,      ///< the client-side switch port blackholes 30 ms
    IohostOutage,  ///< IOhost 0 dies for good; its VM fails over
    LiveRehome,    ///< planned drain-mirror-flip onto the warm peer
};

struct RecoveryCell
{
    std::vector<uint64_t> bucket_ops;
    double steady = 0;
    double detect_ms = -1;
    double recover_ms = -1;
    /** Worst post-fault bucket as a fraction of the steady rate. */
    double dip_frac = 1;
    uint64_t retransmits = 0;
    uint64_t tcp_retransmits = 0;
    uint64_t duplicates = 0;
    uint64_t abandoned = 0;
    uint64_t failovers = 0;
    uint64_t errors = 0;
    uint64_t stranded = 0;
};

RecoveryCell
runRecoveryCell(RecoveryFault f)
{
    const unsigned n_vms = 2;
    const sim::Tick bucket = sim::Tick(10) * sim::kMillisecond;
    const size_t lead = 4;
    const size_t post = smoke() ? 8 : 16;
    const sim::Tick drain =
        sim::Tick(smoke() ? 60 : 150) * sim::kMillisecond;

    bench::SweepOptions opt = baseOptions();
    // Two workers so the watchdog has somewhere to re-steer to.
    opt.sidecores = (f == RecoveryFault::WedgedWorker) ? 2 : 1;
    opt.seed = 51;
    opt.tweak = [f](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.recovery.enabled = true;
        // Port-down and failover are switch-topology faults; the
        // wedge scenario keeps the default direct links so the
        // watchdog path is measured on its own.
        if (f != RecoveryFault::WedgedWorker)
            mc.vrio_via_switch = true;
        // Failover and the planned flip are rack-layer operations:
        // two IOhosts over a shared volume, cold for the outage, and
        // mirroring warm state for the flip (DESIGN.md §16).
        if (f == RecoveryFault::IohostOutage ||
            f == RecoveryFault::LiveRehome) {
            mc.rack.iohosts = 2;
            mc.rack.shared_volume = true;
            mc.rack.replication = f == RecoveryFault::LiveRehome;
        }
    };

    bench::Experiment exp(ModelKind::Vrio, n_vms, opt);
    // The detection-latency read-out below consumes the tracer's
    // recovery instants; arm it for that category even when no
    // exporter is (the ring is memory-only and schedules nothing).
    auto &tracer = exp.sim->telemetry().tracer;
    if (!tracer.enabled())
        tracer.enable(1u << 14, telemetry::cat::kRecovery);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);

    auto wls = startFilebenchPairs(exp, n_vms);
    workloads::NetperfStream::Config scfg;
    scfg.adaptive = true;
    scfg.tcp.max_window = 16;
    auto &gen = exp.rack->generator(0);
    auto stream = std::make_unique<workloads::NetperfStream>(
        gen, gen.newSession(), exp.model->guest(0), opt.costs, scfg);
    stream->start();

    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    for (auto &wl : wls)
        wl->resetStats();
    stream->resetStats();

    const sim::Tick fault_at =
        exp.sim->now() + sim::Tick(lead) * bucket;
    fault::FaultPlan plan;
    plan.seed = 52;
    switch (f) {
    case RecoveryFault::WedgedWorker:
        plan.wedgeWorker(0, fault_at);
        break;
    case RecoveryFault::DeadPort:
        // Both clients sit behind the IOhost's one client NIC; with
        // no alternate path its dead port blackholes the channel.
        plan.killSwitchPort(vm->iohostClientNics()[0]->queueMac(0),
                            fault_at, sim::Tick(30) * sim::kMillisecond);
        break;
    case RecoveryFault::IohostOutage:
        // IOhost 0 never comes back inside the run: recovery must come
        // from failing over to its peer, not from waiting out the
        // outage.
        plan.killIoHost(fault_at, sim::Tick(10) * sim::kSecond);
        break;
    case RecoveryFault::LiveRehome:
        // Not a fault at all: VM 0 is flipped from its home onto the
        // warm peer under load.  The plan stays empty.
        vm->scheduleRehome(0, 1, fault_at);
        break;
    }
    auto inj = bench::attachInjector(exp, plan);
    (void)inj;

    RecoveryCell out;
    uint64_t prev_ops = 0;
    for (size_t b = 0; b < lead + post; ++b) {
        exp.sim->runUntil(exp.sim->now() + bucket);
        uint64_t now_ops = 0;
        for (auto &wl : wls)
            now_ops += wl->opsCompleted();
        out.bucket_ops.push_back(now_ops - prev_ops);
        prev_ops = now_ops;
    }

    // Detection: the recovery layer records a tracer instant at the
    // exact declaration tick — "recovery.wedge" from the watchdog,
    // "recovery.hb_lapse" from a client's heartbeat monitor — so the
    // latency is read from the trace instead of re-derived per fault
    // kind from model accessors.
    if (f == RecoveryFault::LiveRehome) {
        // Nothing is detected — the flip is commanded.  The latency
        // that matters is the client blackout: flip tick to the first
        // response accepted from the new home.
        out.detect_ms =
            sim::ticksToMicros(vm->clientLastBlackout(0)) / 1e3;
    } else {
        const char *detect_event = f == RecoveryFault::WedgedWorker
                                       ? "recovery.wedge"
                                       : "recovery.hb_lapse";
        sim::Tick detect_tick = 0;
        if (tracer.firstInstant(detect_event, fault_at, detect_tick))
            out.detect_ms =
                sim::ticksToMicros(detect_tick - fault_at) / 1e3;
    }

    for (size_t b = 0; b < lead; ++b)
        out.steady += double(out.bucket_ops[b]);
    out.steady /= double(lead);
    double min_ops = out.steady;
    for (size_t b = lead; b < out.bucket_ops.size(); ++b)
        min_ops = std::min(min_ops, double(out.bucket_ops[b]));
    out.dip_frac = out.steady > 0 ? min_ops / out.steady : 0;
    // Recovery: end of the first post-fault bucket back at >= 50% of
    // the steady rate *after* the dip bottomed out (an early bucket
    // can stay healthy while pinned devices are still dark).
    size_t min_b = lead;
    for (size_t b = lead; b < out.bucket_ops.size(); ++b)
        if (double(out.bucket_ops[b]) < double(out.bucket_ops[min_b]))
            min_b = b;
    for (size_t b = min_b; b < out.bucket_ops.size(); ++b) {
        if (double(out.bucket_ops[b]) >= 0.5 * out.steady) {
            out.recover_ms = sim::ticksToMicros(
                                 sim::Tick(b + 1 - lead) * bucket) /
                             1e3;
            break;
        }
    }
    // A dip that never falls below 50% lost no aggregate service (the
    // planned flip; the outage of an IOhost serving half the VMs), so
    // "time back to 50%" would just pick out bucket noise around the
    // minimum.
    if (min_ops >= 0.5 * out.steady)
        out.recover_ms = 0;

    for (unsigned v = 0; v < n_vms; ++v) {
        out.retransmits +=
            bench::clientCount(*vm, v, "transport.rtq.retransmissions");
        out.failovers += bench::clientCount(*vm, v, "client.failovers");
    }
    out.tcp_retransmits = stream->tcpRetransmits();
    out.duplicates = vm->hypervisor().duplicatesSuppressed();
    if (vm->rackIoHostCount() > 1)
        out.duplicates += vm->rackHypervisor(1).duplicatesSuppressed();
    out.abandoned = vm->hypervisor().requestsAbandoned();

    // Stop the closed loops and drain: every in-flight request must
    // complete (possibly as an error) — zero stranded requests.
    for (auto &wl : wls)
        wl->stop();
    stream->stop();
    exp.sim->runUntil(exp.sim->now() + drain);
    for (auto &wl : wls) {
        out.errors += wl->ioErrors();
        out.stranded += wl->outstandingOps();
    }
    out.stranded += stream->outstandingChunks();
    for (unsigned v = 0; v < n_vms; ++v)
        out.stranded += vm->clientPendingBlocks(v);
    return out;
}

void
recoverySection()
{
    const struct
    {
        const char *name;
        RecoveryFault fault;
    } scenarios[] = {
        {"wedged-worker", RecoveryFault::WedgedWorker},
        {"dead-port", RecoveryFault::DeadPort},
        {"iohost-outage", RecoveryFault::IohostOutage},
        {"live-rehome", RecoveryFault::LiveRehome},
    };

    bench::SweepRunner runner;
    std::vector<std::shared_ptr<RecoveryCell>> slots;
    for (const auto &sc : scenarios) {
        RecoveryFault f = sc.fault;
        slots.push_back(runner.defer<RecoveryCell>(
            std::string("recovery ") + sc.name,
            [f]() { return runRecoveryCell(f); }));
    }
    runner.run();

    stats::Table table("Resilience 4: failure detection + recovery "
                       "(heartbeats, watchdog, retry, rack failover)");
    table.setHeader({"fault", "detect_ms", "recover_ms", "dip%",
                     "retx", "tcp_retx", "dup", "abandoned", "failover",
                     "errors", "stranded"});
    for (size_t i = 0; i < slots.size(); ++i) {
        const RecoveryCell &c = *slots[i];
        table.addRow(scenarios[i].name,
                     {c.detect_ms, c.recover_ms, 100.0 * c.dip_frac,
                      double(c.retransmits), double(c.tcp_retransmits),
                      double(c.duplicates), double(c.abandoned),
                      double(c.failovers), double(c.errors),
                      double(c.stranded)},
                     1);
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("expected shape: finite detect/recover per fault "
                "class, failover=1 only for iohost-outage (the dead "
                "IOhost's one VM moves to its peer; the aggregate "
                "never halves, so recover_ms is 0), and zero "
                "stranded requests after the drain.  live-rehome is "
                "the planned drain-mirror-flip: detect_ms carries the "
                "client blackout (flip to first response from the new "
                "home, well under the 8 ms heartbeat-lapse budget), "
                "no failover, near-zero dip.\n\n");
}

} // namespace

int
main()
{
    if (const char *env = std::getenv("VRIO_RESILIENCE_RECOVERY");
        env && env[0] == '1') {
        // CI recovery lane: just the detection/recovery scenarios.
        recoverySection();
        return 0;
    }
    std::vector<double> block_loss =
        smoke() ? std::vector<double>{0.0, 1e-3}
                : std::vector<double>{0.0, 1e-4, 1e-3, 5e-3, 1e-2};
    // Smoke windows are short (40 ms); a 2% rate keeps the stream
    // cells (including the rare-event burst cell) statistically busy
    // enough to exercise recovery.
    std::vector<double> stream_loss =
        smoke() ? std::vector<double>{0.0, 2e-2}
                : std::vector<double>{0.0, 1e-3, 1e-2};

    blockLossSweep(block_loss);
    outageTimeline();
    faultMix();
    streamLossSweep(stream_loss);
    recoverySection();

    std::printf("acceptance: at loss <= 0.001 vRIO completes every "
                "request (errors = 0) with bounded p99 inflation; the "
                "outage timeline recovers to its pre-crash rate; every "
                "recovery scenario detects and recovers in finite time "
                "with zero stranded requests.\n");
    return 0;
}
