/**
 * @file
 * Figure 19 (repo extension, DESIGN.md §16): warm-state replication
 * failover versus cold failover, plus planned live re-homing.
 *
 * Three cells on the same 2-IOhost rack under closed-loop Filebench
 * pairs:
 *
 *   cold   — replication off.  IOhost 0 crashes for a bounded window;
 *            its clients fail over to IOhost 1 with nothing waiting
 *            for them: every in-flight request waits out a client
 *            retransmit timeout and re-executes at the new home.
 *   warm   — replication on.  The same crash, but IOhost 1 holds the
 *            mirrored duplicate filter and in-service table, so
 *            activation replays the dead primary's unfinished work
 *            immediately and answers retries of committed writes from
 *            the committed table.
 *   rehome — replication on, no fault: a planned drain-mirror-flip of
 *            one VM onto the warm peer under load (live re-homing).
 *
 * Reported per cell: a bucketed ops timeline, the recovery dip (total
 * throughput lost versus steady state across the post-fault window),
 * and the blackout (flip tick to first accepted response at the new
 * home).  Expected shape: warm dip strictly below cold dip, duplicate
 * suppressions in the warm cell where the cold cell silently
 * re-executes, and a planned re-home blackout well under the 8 ms
 * detection budget that any failover pays before recovery even
 * starts.  The warm timeline also shows the R=2 availability
 * tradeoff honestly: while the peer is dead the survivor's bounded
 * replication window fills and backpressures admission, so warm
 * throughput dips deeper mid-outage and then snaps back the instant
 * the peer revives and acks — whereas cold keeps serving but loses
 * every in-flight request to retransmit timeouts.  Zero errors and
 * zero stranded requests everywhere.
 *
 * Env knobs: VRIO_FIG19_SMOKE=1 shrinks the run (also implied by
 * VRIO_BENCH_SMOKE=1); VRIO_FIG19_OUTAGE_MS overrides the crash
 * window; VRIO_FIG19_VMS overrides the VM count (multiples of 2).
 * VRIO_FIG19_FAILBACK=1 adds a fourth cell: the warm crash with
 * rack.failback on — after the dead IOhost revives and resumes
 * heartbeating, its refugee VMs re-steer back to their boot home
 * (dwell-gated), so the cell asserts the rack ends rebalanced
 * (clientHomeIoHost(v) == v % 2) with failback moves recorded.  Off
 * by default: the golden snapshot covers the classic three cells.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common.hpp"
#include "fault/injector.hpp"
#include "models/vrio.hpp"

using namespace vrio;
using models::ModelKind;

namespace {

bool
smoke()
{
    const char *env = std::getenv("VRIO_FIG19_SMOKE");
    return (env && env[0] == '1') || bench::smokeMode();
}

unsigned
vmCount()
{
    if (const char *env = std::getenv("VRIO_FIG19_VMS"); env && *env) {
        long n = std::atol(env);
        if (n >= 2)
            return unsigned(n + (n & 1)); // even: half per IOhost
    }
    return 4;
}

sim::Tick
outageLength()
{
    if (const char *env = std::getenv("VRIO_FIG19_OUTAGE_MS");
        env && *env) {
        long ms = std::atol(env);
        if (ms >= 1)
            return sim::Tick(ms) * sim::kMillisecond;
    }
    return sim::Tick(12) * sim::kMillisecond;
}

enum class Scenario
{
    Cold,     ///< crash, replication off
    Warm,     ///< crash, replication on
    Rehome,   ///< planned flip, replication on, no fault
    Failback, ///< warm crash + rack.failback: refugees return home
};

struct Fig19Cell
{
    std::vector<uint64_t> bucket_ops;
    double steady = 0;       ///< ops per bucket before the event
    double dip_pct = 0;      ///< % of steady throughput lost post-event
    double blackout_ms = 0;  ///< mean over the VMs that moved
    uint64_t failovers = 0;
    uint64_t rehomes = 0;
    uint64_t warm_replays = 0;
    uint64_t commit_hits = 0;
    uint64_t duplicates = 0;
    uint64_t errors = 0;
    uint64_t stranded = 0;
    uint64_t held = 0;       ///< held responses left after the drain
    uint64_t failbacks = 0;  ///< dwell-gated returns to the boot home
    bool homes_restored = false; ///< every VM back on IOhost v % 2
};

Fig19Cell
runCell(Scenario sc)
{
    const unsigned n_vms = vmCount();
    const sim::Tick bucket = sim::Tick(5) * sim::kMillisecond;
    const size_t lead = smoke() ? 4 : 6;
    const size_t post = smoke() ? 16 : 20;
    const sim::Tick outage = outageLength();
    const sim::Tick drain =
        sim::Tick(smoke() ? 100 : 150) * sim::kMillisecond;

    bench::SweepOptions opt;
    opt.vmhosts = 2;
    opt.sidecores = 2;
    opt.seed = 53;
    if (smoke()) {
        opt.warmup = sim::Tick(10) * sim::kMillisecond;
    }
    opt.tweak = [sc](models::ModelConfig &mc) {
        mc.with_block = true;
        mc.vrio_via_switch = true;
        mc.recovery.enabled = true;
        mc.rack.iohosts = 2;
        mc.rack.shared_volume = true;
        mc.rack.replication = sc != Scenario::Cold;
        mc.rack.failback = sc == Scenario::Failback;
    };

    bench::Experiment exp(ModelKind::Vrio, n_vms, opt);
    exp.settle();
    auto *vm = dynamic_cast<models::VrioModel *>(exp.model);

    std::vector<std::unique_ptr<workloads::FilebenchRandom>> wls;
    for (unsigned v = 0; v < n_vms; ++v) {
        workloads::FilebenchRandom::Config cfg;
        cfg.readers = 2;
        cfg.writers = 1;
        wls.push_back(std::make_unique<workloads::FilebenchRandom>(
            exp.model->guest(v), exp.sim->random().split(), cfg));
        wls.back()->start();
    }
    exp.sim->runUntil(exp.sim->now() + opt.warmup);
    for (auto &wl : wls)
        wl->resetStats();

    // The event lands at a bucket boundary after the lead-in.
    const sim::Tick event_at =
        exp.sim->now() + sim::Tick(lead) * bucket;
    std::unique_ptr<fault::FaultInjector> inj;
    if (sc == Scenario::Rehome) {
        vm->scheduleRehome(0, 1, event_at);
    } else {
        fault::FaultPlan plan;
        plan.seed = 54;
        plan.killIoHost(event_at, outage, 0);
        inj = bench::attachInjector(exp, plan);
    }

    Fig19Cell out;
    uint64_t prev_ops = 0;
    for (size_t b = 0; b < lead + post; ++b) {
        exp.sim->runUntil(exp.sim->now() + bucket);
        uint64_t now_ops = 0;
        for (auto &wl : wls)
            now_ops += wl->opsCompleted();
        out.bucket_ops.push_back(now_ops - prev_ops);
        prev_ops = now_ops;
    }

    for (size_t b = 0; b < lead; ++b)
        out.steady += double(out.bucket_ops[b]);
    out.steady /= double(lead);
    // Recovery dip: total ops lost versus steady across the whole
    // post-event window.  A min-bucket metric saturates at 100% for
    // any failover (the detection window is dead time whatever the
    // peer holds); the deficit integrates how quickly service really
    // comes back — replay-at-activation versus waiting out client
    // retransmit timers and re-executing.
    double expected = out.steady * double(post), got = 0;
    for (size_t b = lead; b < out.bucket_ops.size(); ++b)
        got += double(out.bucket_ops[b]);
    out.dip_pct = expected > 0
                      ? std::max(0.0, 100.0 * (expected - got) / expected)
                      : 0;

    // Blackout: flip tick to first accepted response at the new home,
    // averaged over the VMs that moved (those homed on IOhost 0 —
    // bootAssign is round-robin — for the crash cells, VM 0 alone for
    // the planned re-home).
    unsigned moved = 0;
    for (unsigned v = 0; v < n_vms; ++v) {
        if (sc == Scenario::Rehome ? v != 0 : v % 2 != 0)
            continue;
        out.blackout_ms +=
            sim::ticksToMicros(vm->clientLastBlackout(v)) / 1e3;
        ++moved;
    }
    if (moved)
        out.blackout_ms /= double(moved);
    for (unsigned v = 0; v < n_vms; ++v) {
        out.failovers += bench::clientCount(*vm, v, "client.failovers");
        // Re-home and fail-back series exist only with their feature.
        if (sc != Scenario::Cold)
            out.rehomes += bench::clientCount(*vm, v, "rack.rehomes");
    }
    for (unsigned k = 0; k < 2; ++k) {
        auto &hv = vm->rackHypervisor(k);
        out.warm_replays += hv.warmReplays();
        out.commit_hits += hv.commitHits();
        out.duplicates += hv.duplicatesSuppressed();
    }

    for (auto &wl : wls)
        wl->stop();
    exp.sim->runUntil(exp.sim->now() + drain);
    for (auto &wl : wls) {
        out.errors += wl->ioErrors();
        out.stranded += wl->outstandingOps();
    }
    for (unsigned v = 0; v < n_vms; ++v)
        out.stranded += vm->clientPendingBlocks(v);
    for (unsigned k = 0; k < 2; ++k)
        out.held += vm->rackHypervisor(k).heldResponses();
    out.homes_restored = true;
    for (unsigned v = 0; v < n_vms; ++v) {
        if (sc == Scenario::Failback)
            out.failbacks += bench::clientCount(*vm, v, "rack.failbacks");
        if (vm->clientHomeIoHost(v) != v % 2)
            out.homes_restored = false;
    }
    return out;
}

} // namespace

int
main()
{
    bench::SweepRunner runner;
    auto cold = runner.defer<Fig19Cell>(
        "fig19 cold", []() { return runCell(Scenario::Cold); });
    auto warm = runner.defer<Fig19Cell>(
        "fig19 warm", []() { return runCell(Scenario::Warm); });
    auto rehome = runner.defer<Fig19Cell>(
        "fig19 rehome", []() { return runCell(Scenario::Rehome); });
    const char *fb_env = std::getenv("VRIO_FIG19_FAILBACK");
    const bool with_failback = fb_env && *fb_env && *fb_env != '0';
    std::shared_ptr<Fig19Cell> failback;
    if (with_failback)
        failback = runner.defer<Fig19Cell>(
            "fig19 failback", []() { return runCell(Scenario::Failback); });
    runner.run();

    stats::Table timeline("Figure 19 (a): failover timeline, IOhost 0 "
                          "crash at t=" +
                          std::to_string(5 * (smoke() ? 4 : 6)) +
                          "ms [ops per 5ms bucket]");
    timeline.setHeader({"t_ms", "cold", "warm", "rehome"});
    for (size_t b = 0; b < cold->bucket_ops.size(); ++b) {
        timeline.addRow(std::to_string(b * 5),
                        {double(cold->bucket_ops[b]),
                         double(warm->bucket_ops[b]),
                         double(rehome->bucket_ops[b])},
                        0);
    }

    stats::Table summary("Figure 19 (b): recovery summary (dip = % of "
                         "steady throughput lost over the post-event "
                         "window; blackout = flip to first response)");
    summary.setHeader({"mode", "dip%", "blackout_ms", "failover",
                       "rehome", "replays", "commit_hits", "dup",
                       "errors", "stranded", "held"});
    const struct
    {
        const char *name;
        const Fig19Cell *c;
    } rows[] = {{"cold", cold.get()},
                {"warm", warm.get()},
                {"rehome", rehome.get()}};
    for (const auto &r : rows) {
        summary.addRow(r.name,
                       {r.c->dip_pct, r.c->blackout_ms,
                        double(r.c->failovers), double(r.c->rehomes),
                        double(r.c->warm_replays),
                        double(r.c->commit_hits),
                        double(r.c->duplicates), double(r.c->errors),
                        double(r.c->stranded), double(r.c->held)},
                       2);
    }

    std::printf("%s\n", timeline.toString().c_str());
    std::printf("%s\n", summary.toString().c_str());

    if (with_failback) {
        stats::Table fb("Figure 19 (c): fail-back after the revive "
                        "(warm crash + rack.failback)");
        fb.setHeader({"mode", "dip%", "blackout_ms", "failover",
                      "failback", "errors", "stranded",
                      "homes_restored"});
        fb.addRow("failback",
                  {failback->dip_pct, failback->blackout_ms,
                   double(failback->failovers),
                   double(failback->failbacks),
                   double(failback->errors),
                   double(failback->stranded),
                   failback->homes_restored ? 1.0 : 0.0},
                  2);
        std::printf("%s\n", fb.toString().c_str());
        std::printf("failback acceptance: refugees returned to their "
                    "boot home after the revive (failbacks > 0): %s; "
                    "rack rebalanced (home == vm %% 2 for every VM): "
                    "%s; warm cell left refugees stranded on the "
                    "survivor: %s\n",
                    failback->failbacks > 0 ? "yes" : "NO",
                    failback->homes_restored ? "yes" : "NO",
                    !warm->homes_restored ? "yes" : "NO");
    }
    std::printf("expected shape: warm dip strictly below cold dip "
                "(activation seeds the duplicate filter and replays "
                "the mirrored in-service table; dup > 0 warm, dup = 0 "
                "cold means cold re-executed what warm suppressed), "
                "warm blackout = the bounded window-backpressure "
                "stall while the peer is down, re-home blackout below "
                "the 8 ms detection budget, and zero errors / "
                "stranded / held everywhere.\n");
    std::printf("acceptance: warm_dip < cold_dip: %s; "
                "rehome_blackout < 8 ms: %s\n",
                warm->dip_pct < cold->dip_pct ? "yes" : "NO",
                rehome->blackout_ms < 8.0 ? "yes" : "NO");
    return 0;
}
