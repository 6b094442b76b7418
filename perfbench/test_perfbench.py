#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

The runner self-test builds the runner first (as run.py does).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def fake_doc(attempted=10, failed=0, gates_ok=True, samples=None):
    return {
        "samples": samples or {},
        "values": {"peak_rss_mb": 12.5},
        "text": {},
        "gates": [{"name": "g", "ok": gates_ok, "detail": ""}],
        "attempted": attempted,
        "failed": failed,
    }


class PercentileTest(unittest.TestCase):
    def test_refuses_without_ten_samples_beyond(self):
        with self.assertRaises(run.InsufficientSamples):
            run.percentile(list(range(100)), 0.95)  # 5 beyond p95
        with self.assertRaises(run.InsufficientSamples):
            run.percentile([1.0] * 19, 0.5)  # 9 beyond p50
        with self.assertRaises(run.InsufficientSamples):
            run.percentile([], 0.5)

    def test_nearest_rank_with_enough_samples(self):
        self.assertEqual(run.percentile(list(range(1, 201)), 0.95), 190)
        self.assertEqual(run.percentile(list(range(1, 21)), 0.5), 10)

    def test_tail_metric_refuses_short_runs(self):
        doc = fake_doc(samples={"commit_ms": [1.0] * 50})
        with self.assertRaises(run.InsufficientSamples):
            run.summarize(doc, trace=True)


class FailAccountingTest(unittest.TestCase):
    def test_failed_operations_lower_success_and_mark_incorrect(self):
        result = run.summarize(fake_doc(attempted=10, failed=2), trace=False)
        self.assertAlmostEqual(result["metrics"]["success_rate"]["value"], 0.8)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (10, 2))

    def test_failed_gate_marks_incorrect(self):
        result = run.summarize(fake_doc(gates_ok=False), trace=False)
        self.assertFalse(result["correct"])

    def test_clean_run_is_correct(self):
        result = run.summarize(fake_doc(), trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["success_rate"]["value"], 1.0)


class BenchmarkJsonTest(unittest.TestCase):
    """Every metric the command prints is declared, with the same unit."""

    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_end_to_end_metrics_match(self):
        printed = run.summarize(fake_doc(), trace=False)["metrics"]
        self.assertEqual({k: m["unit"] for k, m in printed.items()},
                         self.declared("end_to_end"))

    def test_per_layer_metrics_match(self):
        printed = run.summarize(fake_doc(), trace=True)["metrics"]
        self.assertEqual({k: m["unit"] for k, m in printed.items()},
                         self.declared("per_layer"))

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


class RunnerSelfTest(unittest.TestCase):
    """Gates trip on broken output (a tree edge dropped from P, a one-ulp
    replay difference, a bad residual) and serve `err` replies, refusals
    included, count as failed operations."""

    def test_runner_self_test(self):
        self.assertTrue(run.build(), "runner build failed")
        workdir = run.WORK_DIR / "self-test"
        workdir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([str(run.RUNNER), "--self-test", "--workdir",
                               str(workdir)], stdout=subprocess.PIPE, text=True,
                              timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("dropping one tree edge trips the spanning gate",
                      proc.stdout)


if __name__ == "__main__":
    unittest.main()
