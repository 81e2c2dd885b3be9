#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the harness the way run.py does (into $CARGO_TARGET_DIR, default
.bench_build) and checks that its correctness gate and its fingerprint
mean what they claim.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None


def harness(*args):
    """Run the harness for the shortest budget; (exit code, result)."""
    proc = subprocess.run([BINARY, "--seconds", "0", *args],
                          stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def failed_checks(result):
    return [c["name"] for c in result["checks"] if not c["ok"]]


class GateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        code, result = harness("--workload", "rack_read_coalesce",
                               "--seed", "5")
        self.assertEqual(failed_checks(result), [])
        self.assertEqual(code, 0)

    def test_corrupted_expected_pattern_fails_the_gate(self):
        code, result = harness("--workload", "rack_read_coalesce",
                               "--seed", "5", "--corrupt-expected")
        self.assertIn("every read returns the prefill pattern",
                      failed_checks(result))
        self.assertNotEqual(code, 0)


class FingerprintTest(unittest.TestCase):
    def test_sharded_fingerprint_depends_on_shard_count_not_threads(self):
        # rack_read_sharded runs 2 threads over the automatic layout:
        # fabric + 4 VMhosts + 2 IOhosts = 7 shards.
        _, two = harness("--workload", "rack_read_sharded", "--seed", "9")
        _, one = harness("--workload", "rack_read_sharded", "--seed", "9",
                         "--threads", "1", "--shards", "7")
        self.assertEqual(two["fingerprint"], one["fingerprint"])
        self.assertEqual(two["sim"], one["sim"])

    def test_seed_changes_the_inputs(self):
        _, a = harness("--workload", "rr_small", "--seed", "1")
        _, b = harness("--workload", "rr_small", "--seed", "2")
        self.assertNotEqual(a["fingerprint"], b["fingerprint"])
        self.assertNotEqual(a["sim"]["p50_us"], b["sim"]["p50_us"])


if __name__ == "__main__":
    BINARY = run.build(run.build_dir())
    unittest.main()
