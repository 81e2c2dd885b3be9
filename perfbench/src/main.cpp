/**
 * @file
 * vrio_perfbench: runs one benchmark workload for a host-time budget
 * and prints its raw results as one JSON line on stdout.
 *
 *   vrio_perfbench --workload <name> --seed <n> --seconds <s>
 *                  [--trace 0|1] [--threads <t>] [--shards <k>]
 *                  [--corrupt-expected]
 *
 * The workload is repeated, each time from a fresh testbed, until the
 * budget is spent (at least three times).  Every repetition of one
 * (workload, seed) must produce the same simulated-statistics
 * fingerprint.  With --trace 1 one more repetition records spans and
 * the layer counts, and the workload's kernel passes run.  Exit code
 * 0 means every correctness check passed; perfbench/run.py turns the
 * raw results into the benchmark's metrics.
 */
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "kernels.hpp"
#include "measure.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/** Minimal JSON object writer (flat keys, numbers and strings). */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(k, buf);
    }
    JsonObject &
    str(const std::string &k, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return raw(k, q + "\"");
    }
    JsonObject &
    raw(const std::string &k, const std::string &v)
    {
        out_ << (first_ ? "" : ",") << '"' << k << "\":" << v;
        first_ = false;
        return *this;
    }
    std::string
    done()
    {
        std::string s = out_.str();
        s.insert(s.begin(), '{');
        s.push_back('}');
        return s;
    }

  private:
    std::ostringstream out_;
    bool first_ = true;
};

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
    return buf;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    if (v.empty())
        return 0;
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

/** The simulated end-to-end outcome of one repetition. */
std::string
simJson(const RepResult &r)
{
    // p99.9 is reported only when at least ten samples lie beyond it.
    size_t n = r.lat_us.count();
    size_t beyond_p999 = n - std::min(n, size_t(double(n) * 0.999 + 0.5));
    JsonObject o;
    o.num("window_s", r.window_s)
        .num("attempted", double(r.attempted))
        .num("completed", double(r.completed))
        .num("failed", double(r.failed))
        .num("kops", ratio(double(r.completed), r.window_s) / 1e3)
        .num("n", double(n))
        .num("p50_us", r.lat_us.percentileInterpolated(50))
        .num("p99_us", r.lat_us.percentileInterpolated(99))
        .num("p999_us", r.lat_us.percentileInterpolated(99.9))
        .num("beyond_p999", double(beyond_p999))
        .num("victim_n", double(r.victim_lat_us.count()))
        .num("victim_p99_us", r.victim_lat_us.percentileInterpolated(99))
        .num("victim_attempted", double(r.victim_attempted))
        .num("victim_slo_miss", double(r.victim_slo_miss));
    return o.done();
}

/** Per-layer metrics of the traced repetition (see BENCHMARK.json). */
std::string
layerJson(const RepResult &r, const std::map<std::string, double> &kernel,
          double untraced_run_s)
{
    const RegistrySnapshot &a = r.before, &b = r.after;
    auto d = [&](const char *n) { return double(counterDelta(a, b, n)); };
    auto pd = [&](const char *n) { return probeDelta(a, b, n); };
    auto k = [&](const char *n) {
        auto it = kernel.find(n);
        return it == kernel.end() ? 0.0 : it->second;
    };
    double run_ns = r.run_s * 1e9;
    double window_ns = r.window_s * 1e9;
    double ops = double(r.completed);
    double events = d("sim.events.fired");

    // Seal+verify cost per byte on this workload's message size, and
    // the bytes sealed once end to end: link bytes divided by the links
    // a frame crosses (two through the rack switch, one when cabled).
    double sv_ns = k("transport.kernel.seal_verify_4k_ns");
    double sv_bytes = 4096;
    if (sv_ns == 0) {
        sv_ns = k("transport.kernel.seal_verify_64_ns");
        sv_bytes = 64;
    }
    double sealed_bytes =
        d("net.link.bytes") *
        ratio(d("net.nic.tx_frames"), d("net.link.delivered"));

    auto hsvc = histDelta(a, b, "iohost.worker.service_ns");
    auto hres = histDelta(a, b, "iohost.worker.residency_ns");
    auto hq = histDelta(a, b, "iohost.inflight_at_dispatch");
    double forwarded = d("net.switch.forwarded");
    double flooded = d("net.switch.flooded");
    double staged = d("rack.coalesce.staged");
    double windows = r.lookahead_ps
                         ? window_ns * 1e3 / double(r.lookahead_ps)
                         : 0.0;

    JsonObject o;
    o.num("sim.events", events)
        .num("sim.host_ns_per_event", ratio(run_ns, events))
        .num("sim.kernel.schedule_fire_ns", k("sim.kernel.schedule_fire_ns"))
        .num("sim.events_per_window", ratio(events, windows))
        .num("util.kernel.crc32_4k_ns", k("util.kernel.crc32_4k_ns"))
        .num("transport.kernel.seal_verify_4k_ns",
             k("transport.kernel.seal_verify_4k_ns"))
        .num("transport.kernel.seal_verify_64_ns",
             k("transport.kernel.seal_verify_64_ns"))
        .num("transport.codec_share_est",
             ratio(sealed_bytes * ratio(sv_ns, sv_bytes), run_ns))
        .num("transport.retransmissions", pd("transport.rtq.retransmissions"))
        .num("transport.checksum_drops",
             pd("transport.reasm.checksum_drops") +
                 pd("iohost.reasm.checksum_drops"))
        .num("coalesce.merge_frac",
             ratio(d("rack.coalesce.merged_parts"), staged))
        .num("coalesce.runs", d("rack.coalesce.runs"))
        .num("coalesce.kernel.plan_ns", k("coalesce.kernel.plan_ns"))
        .num("net.link.frames", d("net.link.delivered"))
        .num("net.link.bytes", d("net.link.bytes"))
        .num("net.switch.flood_frac", ratio(flooded, forwarded + flooded))
        .num("net.nic.rx_drops", d("net.nic.rx_drops"))
        .num("net.kernel.make_frame_ns", k("net.kernel.make_frame_ns"))
        .num("hv.sync_exits_per_op", ratio(d("hv.vm.sync_exits"), ops))
        .num("hv.host_interrupts_per_op",
             ratio(d("hv.vm.host_interrupts"), ops))
        .num("hv.guest_interrupts_per_op",
             ratio(d("hv.vm.guest_interrupts"), ops))
        .num("iohost.worker.busy_frac",
             ratio(double(hsvc.sum), double(r.worker_count) * window_ns))
        .num("iohost.worker.residency_p99_us", histQuantile(hres, 0.99) / 1e3)
        .num("iohost.queue_at_dispatch_mean",
             ratio(double(hq.sum), double(hq.count)))
        .num("iohost.contended_frac", r.contended_frac)
        .num("iohost.poll_hit_frac",
             ratio(d("iohost.worker.dispatches"), d("iohost.polls")))
        .num("iohost.dedup_suppressed", pd("iohost.dedup.suppressed"))
        .num("repl.records_sent", pd("repl.records_sent"))
        .num("repl.held_responses", b.probe("repl.held_responses"))
        .num("repl.lag", b.probe("repl.lag"))
        .num("qos.shed", d("qos.admission.shed"))
        .num("qos.deferrals", d("qos.sched.deferrals"))
        .num("qos.promotions", d("qos.sched.promotions"))
        .num("qos.slo_violations", d("qos.slo.violations"))
        .num("qos.kernel.push_pop_ns", k("qos.kernel.push_pop_ns"))
        .num("crypto.kernel.aes_ctr_4k_ns", k("crypto.kernel.aes_ctr_4k_ns"))
        .num("crypto.share_est",
             ratio(double(r.encrypted_payloads) *
                       k("crypto.kernel.aes_ctr_4k_ns"),
                   run_ns))
        .num("workload.overflows", double(r.overflows))
        .num("core.ctor_s", r.ctor_s)
        .num("core.settle_s", r.settle_s)
        .num("trace.overhead_frac", ratio(r.run_s, untraced_run_s) - 1.0);
    return o.done();
}

std::string
spansJson(const std::vector<Span> &spans)
{
    std::string out = "[";
    for (size_t i = 0; i < spans.size(); ++i) {
        JsonObject o;
        o.str("name", spans[i].name)
            .num("start_s", spans[i].start_s)
            .num("end_s", spans[i].end_s)
            .num("parent", spans[i].parent);
        if (i)
            out += ",";
        out += o.done();
    }
    return out + "]";
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "vrio_perfbench: %s\nusage: vrio_perfbench --workload "
                 "<name> --seed <n> --seconds <s> [--trace 0|1] "
                 "[--threads <t>] [--shards <k>] [--corrupt-expected]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec spec;
    double seconds = 0;
    bool trace = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--corrupt-expected") {
            spec.corrupt_expected = true;
            continue;
        }
        if (!(v = value()))
            return usage(("missing value for " + a).c_str());
        char *end = nullptr;
        if (a == "--workload") {
            spec.workload = v;
            continue;
        }
        double num = std::strtod(v, &end);
        if (*end != '\0' || num < 0)
            return usage(("bad value for " + a).c_str());
        if (a == "--seed") {
            spec.seed = std::strtoull(v, &end, 10);
            if (*end != '\0')
                return usage("--seed takes a whole number");
            have_seed = true;
        } else if (a == "--seconds") {
            seconds = num;
        } else if (a == "--trace") {
            trace = num != 0;
        } else if (a == "--threads") {
            spec.threads = unsigned(num);
        } else if (a == "--shards") {
            spec.shards = unsigned(num);
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (!have_seed || !makeWorkload(spec.workload))
        return usage("need --seed and a known --workload");

    std::vector<RepResult> reps;
    Clock::time_point t0 = Clock::now();
    SpanLog untraced(false);
    double peak_rss_mb = 0;
    while (reps.size() < 3 || secondsBetween(t0, Clock::now()) < seconds) {
        auto wl = makeWorkload(spec.workload);
        reps.push_back(runRep(*wl, spec, untraced));
        // Peak memory of one repetition; later ones only add allocator
        // fragmentation that grows with the repetition count.
        if (reps.size() == 1)
            peak_rss_mb = peakRssMiB();
        // Keep the first repetition's samples; later ones only time.
        if (reps.size() > 1) {
            reps.back().lat_us.reset();
            reps.back().victim_lat_us.reset();
        }
    }

    // setup_s is a median over at least seven set-ups.
    std::vector<double> setup_s;
    for (const RepResult &r : reps)
        setup_s.push_back(r.setupSeconds());
    while (setup_s.size() < 7) {
        auto wl = makeWorkload(spec.workload);
        setup_s.push_back(runSetupOnly(*wl, spec).setupSeconds());
    }

    // Every repetition runs the same checks; report the first failure
    // of each.
    std::vector<Check> checks = reps.front().checks;
    bool same = true;
    for (const RepResult &r : reps) {
        same = same && r.fingerprint == reps.front().fingerprint;
        for (size_t i = 0; i < checks.size() && i < r.checks.size(); ++i)
            if (checks[i].ok && !r.checks[i].ok)
                checks[i] = r.checks[i];
    }
    checks.push_back({"every repetition has the same fingerprint", same,
                      std::to_string(reps.size()) + " repetitions"});

    std::vector<double> run_s;
    std::string reps_json = "[";
    for (size_t i = 0; i < reps.size(); ++i) {
        const RepResult &r = reps[i];
        run_s.push_back(r.run_s);
        JsonObject o;
        o.num("ctor_s", r.ctor_s)
            .num("settle_s", r.settle_s)
            .num("prefill_s", r.prefill_s)
            .num("start_s", r.start_s)
            .num("setup_s", r.setupSeconds())
            .num("warmup_s", r.warmup_s)
            .num("run_s", r.run_s)
            .num("drain_s", r.drain_s)
            .num("verify_s", r.verify_s);
        if (i)
            reps_json += ",";
        reps_json += o.done();
    }
    reps_json += "]";
    std::string setups_json = "[";
    for (size_t i = 0; i < setup_s.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", setup_s[i]);
        setups_json += buf;
    }
    setups_json += "]";

    JsonObject out;
    out.str("workload", spec.workload)
        .raw("seed", std::to_string(spec.seed))
        .raw("fingerprint", hex(reps.front().fingerprint))
        .raw("reps", reps_json)
        .raw("setup_s", setups_json)
        .raw("sim", simJson(reps.front()));

    if (trace) {
        SpanLog log(true);
        auto wl = makeWorkload(spec.workload);
        RepResult traced = runRep(*wl, spec, log);
        checks.push_back({"traced repetition has the same fingerprint",
                          traced.fingerprint == reps.front().fingerprint,
                          ""});
        std::map<std::string, double> kernel;
        int root = log.open("kernels", -1);
        Clock::time_point k0 = Clock::now();
        for (const std::string &name : wl->kernels()) {
            double ns = 0;
            log.timed(name, root, [&] { ns = runKernel(name, spec.seed); });
            kernel[name] = ns;
        }
        log.close(root, k0, Clock::now());
        out.raw("layer", layerJson(traced, kernel, median(run_s)))
            .raw("spans", spansJson(log.spans()));
    }

    bool ok = true;
    std::string checks_json = "[";
    for (size_t i = 0; i < checks.size(); ++i) {
        ok = ok && checks[i].ok;
        JsonObject o;
        o.str("name", checks[i].name)
            .raw("ok", checks[i].ok ? "true" : "false")
            .str("detail", checks[i].detail);
        if (i)
            checks_json += ",";
        checks_json += o.done();
    }
    checks_json += "]";
    out.raw("checks", checks_json).num("peak_rss_mb", peak_rss_mb);
    std::printf("%s\n", out.done().c_str());
    return ok ? 0 : 1;
}
