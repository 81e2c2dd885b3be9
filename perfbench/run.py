#!/usr/bin/env python3
"""The repository benchmark: simulator host time and modelled vRIO
latency/throughput on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py                      # every workload, seed 1
    python3 perfbench/run.py --workload rr_small --seed 7 --seconds 10 \\
        --trace 0

It builds perfbench/ (the simulator libraries from src/ plus the
harness in perfbench/src) into $CARGO_TARGET_DIR, default .bench_build,
runs the harness, checks its outputs and prints every metric by name
with its unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
they are the per-layer metrics of one extra traced repetition, whose
spans are written to <build dir>/traces/.  The exit code is 0 only when
every correctness check passed.

Two kinds of numbers come out:
  * the simulator (host time): run_s, setup_s, peak_rss_mb;
  * the modelled vRIO system (simulated time): sim_*, victim_p99_us,
    slo_met_frac, ok_frac.  These are a pure function of (workload,
    seed), as is the printed fingerprint, so a change that only speeds
    up the simulator must leave them identical.

Seeds: the default seed is 1.  Seed 20261017 is held out: it was not
used while the benchmark was tuned, and a later claim of a gain should
be checked on it as well.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

WORKLOADS = [
    "rack_read_coalesce",
    "rr_small",
    "tenant_write_repl",
    "rack_read_sharded",
]

# name -> unit, as in BENCHMARK.json.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_kops": "kops/s",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "victim_p99_us": "us",
    "slo_met_frac": "fraction",
    "ok_frac": "fraction",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.kernel.schedule_fire_ns": "ns",
    "sim.events_per_window": "count",
    "util.kernel.crc32_4k_ns": "ns",
    "transport.kernel.seal_verify_4k_ns": "ns",
    "transport.kernel.seal_verify_64_ns": "ns",
    "transport.codec_share_est": "fraction",
    "transport.retransmissions": "count",
    "transport.checksum_drops": "count",
    "coalesce.merge_frac": "fraction",
    "coalesce.runs": "count",
    "coalesce.kernel.plan_ns": "ns",
    "net.link.frames": "count",
    "net.link.bytes": "bytes",
    "net.switch.flood_frac": "fraction",
    "net.nic.rx_drops": "count",
    "net.kernel.make_frame_ns": "ns",
    "hv.sync_exits_per_op": "count/op",
    "hv.host_interrupts_per_op": "count/op",
    "hv.guest_interrupts_per_op": "count/op",
    "iohost.worker.busy_frac": "fraction",
    "iohost.worker.residency_p99_us": "us",
    "iohost.queue_at_dispatch_mean": "count",
    "iohost.contended_frac": "fraction",
    "iohost.poll_hit_frac": "fraction",
    "iohost.dedup_suppressed": "count",
    "repl.records_sent": "count",
    "repl.held_responses": "count",
    "repl.lag": "count",
    "qos.shed": "count",
    "qos.deferrals": "count",
    "qos.promotions": "count",
    "qos.slo_violations": "count",
    "qos.kernel.push_pop_ns": "ns",
    "crypto.kernel.aes_ctr_4k_ns": "ns",
    "crypto.share_est": "fraction",
    "workload.overflows": "count",
    "core.ctor_s": "s",
    "core.settle_s": "s",
    "trace.overhead_frac": "fraction",
}

# Paper anchors printed beside the modelled numbers.  The cost model was
# calibrated to them, so they are not a held-out validation and no model
# error is claimed.
ANCHORS = {
    ("rr_small", "sim_p50_us"):
        "paper Fig. 7: optimum 30-32 us + ~12 us vRIO hop "
        "(golden fig07 vRIO N=7 mean 44.3 us)",
    ("rack_read_coalesce", "sim_kops"):
        "golden fig13 rack cell (R=2, 4 VMs/IOhost, coalesce on): "
        "537.25 kIOPS",
}
ANCHOR_NOTE = ("anchors: the cost model was calibrated to these figures; "
               "they are not a held-out validation and no model error is "
               "claimed")

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configure (once) and build the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to "
                           "perfbench/; run from a full checkout")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", bdir, "--target",
                        "vrio_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(bdir, "vrio_perfbench")


def run_harness(binary, workload, seed, seconds, trace):
    # The simulator reads VRIO_* variables (thread count, rack
    # overrides); the benchmark fixes its own configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VRIO_")}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"harness printed nothing (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def end_to_end(raw):
    sim = raw["sim"]
    attempted = sim["attempted"]
    victims = sim["victim_attempted"]
    return {
        "run_s": statistics.median(r["run_s"] for r in raw["reps"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_kops": sim["kops"],
        "sim_p50_us": sim["p50_us"],
        "sim_p99_us": sim["p99_us"],
        "victim_p99_us": sim["victim_p99_us"],
        "slo_met_frac":
            1.0 - sim["victim_slo_miss"] / victims if victims else 0.0,
        "ok_frac": 1.0 - sim["failed"] / attempted if attempted else 0.0,
    }


def sample_note(name, raw):
    sim = raw["sim"]
    if name in ("sim_p50_us", "sim_p99_us"):
        return f"n={sim['n']}"
    if name == "sim_p999_us":
        note = f"n={sim['n']}, {sim['beyond_p999']} beyond"
        return note if sim["beyond_p999"] >= 10 else note + " (<10: unreliable)"
    if name == "victim_p99_us":
        return f"n={sim['victim_n']}"
    if name in ("run_s", "setup_s"):
        n = len(raw["reps"]) if name == "run_s" else len(raw["setup_s"])
        return f"median of {n}"
    if name == "slo_met_frac":
        return (f"{sim['victim_slo_miss']} of {sim['victim_attempted']} "
                "victim requests over 500 us, failed or dropped")
    if name == "ok_frac":
        return f"{sim['failed']} of {sim['attempted']} ops failed or dropped"
    return ""


def report(workload, seed, code, raw, trace, bdir):
    """Print the human-readable lines; return (correct, metrics)."""
    checks = raw.get("checks", [])
    correct = code == 0 and bool(checks) and all(c["ok"] for c in checks)
    print(f"== {workload} (seed {seed}) ==")
    print(f"fingerprint {raw['fingerprint']}  "
          f"(simulated window {raw['sim']['window_s'] * 1e3:g} ms)")
    for c in checks:
        detail = f" ({c['detail']})" if c["detail"] else ""
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}{detail}")

    metrics = {}
    if not trace:
        for name, value in end_to_end(raw).items():
            unit = END_TO_END[name]
            metrics[name] = {"value": value, "unit": unit}
            note = sample_note(name, raw)
            line = f"{name} = {value:.6g} {unit}"
            if note:
                line += f"  [{note}]"
            anchor = ANCHORS.get((workload, name))
            if anchor:
                line += f"  <- {anchor}"
            print(line)
        # p99.9 moves by 10-26% (quartile spread over ten seeds) with
        # the few modelled stalls a window happens to contain, more than
        # any regression bound could absorb, so it is printed, not gated.
        print(f"sim_p999_us = {raw['sim']['p999_us']:.6g} us  "
              f"[{sample_note('sim_p999_us', raw)}; not gated]")
        if any(w == workload for w, _ in ANCHORS):
            print(ANCHOR_NOTE)
    else:
        for name, value in raw["layer"].items():
            unit = PER_LAYER_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        path = os.path.join(tdir, f"{workload}-seed{seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": workload, "seed": seed,
                       "spans": raw["spans"]}, f, indent=1)
        print(f"spans: {path}")
    return correct, metrics


def main():
    ap = argparse.ArgumentParser(
        description=" ".join(__doc__.split("\n\n")[0].split()))
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: every workload)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; "
                         f"{HELD_OUT_SEED} is held out for checking claims)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    workloads = [args.workload] if args.workload else WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        try:
            code, raw = run_harness(binary, w, args.seed, args.seconds,
                                    bool(args.trace))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {w}: {e}")
            return 2
        ok, m = report(w, args.seed, code, raw, bool(args.trace), bdir)
        correct = correct and ok
        attempted += int(raw["sim"]["attempted"])
        failed += int(raw["sim"]["failed"])
        # With several workloads each metric name carries its workload
        # as a prefix.
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({f"{w}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
