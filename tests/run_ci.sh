#!/usr/bin/env bash
# Full CI sweep: sanitizer build + optimized build, the whole test
# suite under both, and the simulator hot-path microbenchmark so
# events/sec regressions show up in CI logs.
#
# Usage: tests/run_ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run() {
    echo "+ $*" >&2
    "$@"
}

echo "== Debug + ASan =="
run cmake -B build-ci-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-sanitize-recover=all"
run cmake --build build-ci-asan -j "$JOBS"
# Golden snapshots execute the bench binaries; under ASan they run
# ~10x slower for no extra coverage (the Release lane diffs the same
# deterministic output), so skip that label here.
run ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" -LE golden

# The fault injector's hook/outage paths touch freed rings and
# detached hooks in teardown-heavy patterns; run its suite standalone
# under the sanitizers so a failure names it directly.
run ./build-ci-asan/tests/fault_test

echo "== Debug + UBSan =="
# Separate lane: ASan's shadow memory changes allocation patterns and
# can mask the alignment/overflow class UBSan exists to catch.
run cmake -B build-ci-ubsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all"
run cmake --build build-ci-ubsan -j "$JOBS"
run ctest --test-dir build-ci-ubsan --output-on-failure -j "$JOBS" -LE golden
run ./build-ci-ubsan/tests/fault_test

echo "== Debug + TSan (sharded event loop) =="
# The parallel engine's memory-ordering contract (epoch publication,
# striped telemetry, mailbox hand-off) is only checkable with real
# concurrency: build the concurrency-relevant suites under
# ThreadSanitizer and run them with a multi-threaded event loop.
# TSan excludes the other sanitizers, hence its own tree.
run cmake -B build-ci-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
run cmake --build build-ci-tsan -j "$JOBS" --target \
    sim_test net_test telemetry_test core_test shard_equivalence_test \
    nvme_test rack_test replication_test qos_test
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/sim_test
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/net_test
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/telemetry_test
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/core_test
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/shard_equivalence_test
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/nvme_test
# The rack soak instantiates its own 1/2/8-thread matrix internally,
# as do the replication handoff/soak suites.
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/rack_test
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/replication_test
# The QoS end-to-end rack test drives the fan-out scheduler under a
# sharded loop; its decisions must stay f(seed, shards) with races
# surfaced by TSan, not hidden by the single-queue default.
run env VRIO_SIM_THREADS=4 ./build-ci-tsan/tests/qos_test

echo "== Release =="
run cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
run cmake --build build-ci-release -j "$JOBS"
# Fast lane first: plain unit suites fail within seconds.  Then the
# property suites and the golden-run snapshot comparison, which
# re-executes every deterministic benchmark in smoke mode.
run ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L unit
run ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L nvme
run ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L telemetry
run ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L property
run ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L rack
run ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L qos
run ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L golden
# The repository benchmark's own output checks (read-pattern and drain
# gates, thread-invariant fingerprint): a model-construction regression
# fails here, not only when the benchmark is next compared.
run python3 perfbench/test_perfbench.py

echo "== Benchmark fingerprints (Release) =="
# Each workload's fingerprint folds every modelled series of its run.
# A change that must not alter the model leaves all of them, on the
# default and the held-out seed, as pinned in tests/bench_fingerprints.txt.
# A change that alters a series on purpose updates that file and says
# so in CHANGES.md.
fingerprints() {
    local seed
    for seed in 1 20261017; do
        python3 perfbench/run.py --seconds 0 --seed "$seed" |
            awk -v seed="$seed" '/^== /{w=$2} /^fingerprint /{print w, seed, $2}'
    done
}
FP_NOW="$(fingerprints)"
run diff <(grep -v '^#' tests/bench_fingerprints.txt) <(echo "$FP_NOW")

echo "== Telemetry exporters (Release) =="
# Arm both exporters on a smoke-mode figure run, then assert the
# Chrome trace is well-formed and spans the whole datapath (guest,
# link, IOhost, worker tracks) and the metrics CSV is non-trivial.
TELEM_DIR="$(mktemp -d)"
trap 'rm -rf "$TELEM_DIR"' EXIT
run env VRIO_BENCH_SMOKE=1 \
    VRIO_TRACE="$TELEM_DIR/trace.json" \
    VRIO_METRICS="$TELEM_DIR/metrics.csv" \
    ./build-ci-release/bench/fig07_netperf_rr_latency > /dev/null
run ./build-ci-release/tests/trace_check "$TELEM_DIR/trace.json" 5
run test "$(wc -l < "$TELEM_DIR/metrics.csv")" -gt 100
# Every count is a labelled series: the warm-failover figure must
# export an IOhost count and a client count as counter rows.
run env VRIO_BENCH_SMOKE=1 VRIO_METRICS="$TELEM_DIR/fig19.csv" \
    ./build-ci-release/bench/fig19_warm_failover > /dev/null
run grep -qE ',counter,repl\.warm_replays\{iohv=[^}]+\},' \
    "$TELEM_DIR/fig19.csv"
run grep -qE ',counter,client\.failovers\{vm=[^}]+\},' \
    "$TELEM_DIR/fig19.csv"

echo "== Simulator hot-path microbenchmark (Release) =="
run ./build-ci-release/bench/micro_sim_hotpath

echo "== CRC-32 microbenchmark smoke (Release) =="
# Times every CRC-32 length class (short input, fold threshold,
# unaligned tail) once; no timing gate, it fails only if the binary does.
run ./build-ci-release/bench/micro_protocol --benchmark_filter=BM_Crc32 \
    --benchmark_min_time=0.01

echo "== AES-CTR microbenchmark smoke (Release) =="
# Times every CTR length class (one block, partial tail, packet, 4 KiB,
# 64 KiB; odd offset) once; no timing gate, it fails only if the binary
# does.
run ./build-ci-release/bench/micro_protocol --benchmark_filter=BM_AesCtr \
    --benchmark_min_time=0.01

echo "== Frame codec microbenchmark smoke (Release) =="
# Times encapsulation, TSO segmentation and reassembly at every size
# class once; no timing gate, it fails only if the binary does.
run ./build-ci-release/bench/micro_protocol \
    --benchmark_filter='BM_Encapsulate|BM_TsoSegment64K|BM_ReassembleMessage' \
    --benchmark_min_time=0.01

echo "== Resilience benchmark smoke (Release) =="
run env VRIO_RESILIENCE_SMOKE=1 ./build-ci-release/bench/abl_resilience

echo "== Recovery timeline (Release, full-size) =="
# The recovery section alone at full measurement size: detection and
# recovery latencies must stay finite with zero stranded requests.
run env VRIO_RESILIENCE_RECOVERY=1 ./build-ci-release/bench/abl_resilience

echo "== Multi-tenant QoS smoke (Release) =="
# The noisy-neighbor matrix in smoke mode: its acceptance lines
# (victim p99 >= 2x better with QoS on, aggregate within 10%) print
# yes/NO, and the golden lane above already byte-compares the output.
run env VRIO_BENCH_SMOKE=1 ./build-ci-release/bench/tab04_multitenant_qos

echo "== Fail-back cell (Release, smoke) =="
# The gated fourth fig19 cell: refugees must return to the revived
# home and the rack must end rebalanced.
run env VRIO_BENCH_SMOKE=1 VRIO_FIG19_FAILBACK=1 \
    ./build-ci-release/bench/fig19_warm_failover > /dev/null

echo "CI OK"
