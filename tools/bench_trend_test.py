#!/usr/bin/env python3
"""Unit tests for tools/bench_trend.py, driven through artifact fixtures.

Each case builds baseline/current directories of BENCH_*.json files shaped
exactly like the bench binaries' --json output, runs the gate as a
subprocess (the same way CI does), and asserts on exit code and log
markers. The zero-baseline cases pin the fix for the former silent
`if old == 0: continue`: a tracked metric whose baseline legitimately
rounds to 0 must still gate (absolute epsilon) and must be loudly logged.

Runs under ctest (see tests/CMakeLists.txt) or standalone:
  python3 tools/bench_trend_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_trend.py")


def artifact(rows, table="svc"):
    return {"tables": [{"table": table, "rows": rows}]}


def write_artifacts(directory, documents):
    os.makedirs(directory, exist_ok=True)
    for name, document in documents.items():
        with open(os.path.join(directory, name), "w") as f:
            json.dump(document, f)


def run_gate(current, baseline, *extra):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--current", current, "--baseline",
         baseline, *extra],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_trend_test_")
        self.addCleanup(self.tmp.cleanup)

    def dirs(self, baseline_rows, current_rows):
        baseline = os.path.join(self.tmp.name, "baseline")
        current = os.path.join(self.tmp.name, "current")
        write_artifacts(baseline, {"BENCH_svc.json": artifact(baseline_rows)})
        write_artifacts(current, {"BENCH_svc.json": artifact(current_rows)})
        return current, baseline

    def test_matched_row_within_threshold_passes(self):
        current, baseline = self.dirs(
            [{"mix": "a", "snapshot_delta_ms": 10.0}],
            [{"mix": "a", "snapshot_delta_ms": 11.0}])
        code, out = run_gate(current, baseline)
        self.assertEqual(code, 0, out)
        self.assertIn("[        ok]", out)

    def test_regression_beyond_threshold_fails(self):
        current, baseline = self.dirs(
            [{"mix": "a", "snapshot_delta_ms": 10.0}],
            [{"mix": "a", "snapshot_delta_ms": 20.0}])
        code, out = run_gate(current, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_lost_tracked_metric_is_hard_failure(self):
        current, baseline = self.dirs(
            [{"mix": "a", "snapshot_delta_ms": 10.0, "merged_qps": 5.0}],
            [{"mix": "a", "snapshot_delta_ms": 10.0}])
        code, out = run_gate(current, baseline)
        self.assertEqual(code, 2, out)
        self.assertIn("missing from the current artifact", out)

    def test_zero_baseline_within_epsilon_passes_with_loud_marker(self):
        # The former bug: `if old == 0: continue` — no log line, no gate.
        # The fixed gate must both pass and say so.
        current, baseline = self.dirs(
            [{"mix": "a", "snapshot_delta_ms": 0}],
            [{"mix": "a", "snapshot_delta_ms": 0.5}])
        code, out = run_gate(current, baseline, "--zero-epsilon", "1")
        self.assertEqual(code, 0, out)
        self.assertIn("[   skipped]", out)
        self.assertIn("zero baseline", out)

    def test_zero_baseline_beyond_epsilon_gates(self):
        current, baseline = self.dirs(
            [{"mix": "a", "snapshot_delta_ms": 0}],
            [{"mix": "a", "snapshot_delta_ms": 50}])
        code, out = run_gate(current, baseline, "--zero-epsilon", "1")
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertIn("zero baseline", out)

    def test_zero_baseline_higher_is_better_improvement_passes(self):
        # merged_qps going 0 -> anything positive is an improvement, never a
        # regression, whatever the epsilon.
        current, baseline = self.dirs(
            [{"runs": 4, "merged_qps": 0}],
            [{"runs": 4, "merged_qps": 100000.0}])
        code, out = run_gate(current, baseline, "--zero-epsilon", "1")
        self.assertEqual(code, 0, out)
        self.assertIn("[   skipped]", out)

    def test_mmap_serve_metrics_gate_in_both_directions(self):
        # The on-disk tier's pair: mapped_qps is higher-better, compact_ms
        # lower-better — one row carrying both must fail on a mapped_qps
        # collapse even while compact_ms improves.
        current, baseline = self.dirs(
            [{"runs": 8, "total_items": 8226, "mapped_qps": 1000000.0,
              "compact_ms": 4.0}],
            [{"runs": 8, "total_items": 8226, "mapped_qps": 500000.0,
              "compact_ms": 2.0}])
        code, out = run_gate(current, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertIn("mapped_qps", out)

    def test_mmap_serve_improvements_pass(self):
        current, baseline = self.dirs(
            [{"runs": 8, "total_items": 8226, "mapped_qps": 1000000.0,
              "compact_ms": 4.0}],
            [{"runs": 8, "total_items": 8226, "mapped_qps": 1200000.0,
              "compact_ms": 3.5}])
        code, out = run_gate(current, baseline)
        self.assertEqual(code, 0, out)

    def test_session_memory_growth_fails(self):
        # session_bytes_per_item is lower-better: a session that holds more
        # heap per item fails the gate, one that holds less passes.
        baseline_row = {"run_size": 4000, "sessions": 32,
                        "session_bytes_per_item": 70.0}
        current, baseline = self.dirs(
            [baseline_row],
            [dict(baseline_row, session_bytes_per_item=210.0)])
        code, out = run_gate(current, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertIn("session_bytes_per_item", out)
        current, baseline = self.dirs(
            [baseline_row],
            [dict(baseline_row, session_bytes_per_item=60.0)])
        code, out = run_gate(current, baseline)
        self.assertEqual(code, 0, out)

    def test_new_row_shape_is_not_a_regression(self):
        current, baseline = self.dirs(
            [{"mix": "a", "snapshot_delta_ms": 10.0}],
            [{"mix": "a", "snapshot_delta_ms": 10.0},
             {"mix": "b", "snapshot_delta_ms": 500.0}])
        code, out = run_gate(current, baseline)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
