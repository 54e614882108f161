#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds the program like run.py does. The
tests check the benchmark itself, not the simulator: that the
correctness oracle counts a spoiled expectation instead of passing it,
that simulated metrics repeat exactly, and that a traced run reports
every declared per-layer metric.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Units the spoiled round 0 holds: one tenant, or one round's requests /
# page touches (see bench_workloads.cc).
ROUND0_UNITS = {"tenants": 1, "fileserve": 4096, "paging": 1024}


def run(workload, *extra, seed=42, seconds=1, trace=0):
    """One run.py invocation; returns (result JSON, stdout text)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


class OracleTest(unittest.TestCase):
    def test_spoiled_expectation_is_counted(self):
        for workload, units in ROUND0_UNITS.items():
            with self.subTest(workload=workload):
                result, out = run(workload, "--corrupt-expectation")
                epochs = int(re.search(r"(\d+) timed epochs", out).group(1))
                self.assertFalse(result["correct"])
                # Round 0 fails in every cloaked epoch: the timed ones
                # plus the cryptoWorkers = 1 guard epoch.
                self.assertEqual(result["failed"], (epochs + 1) * units)


class DeterminismTest(unittest.TestCase):
    def test_simulated_metrics_repeat_and_runs_are_correct(self):
        for workload in ROUND0_UNITS:
            for seed in (42, 7919):
                with self.subTest(workload=workload, seed=seed):
                    a, _ = run(workload, seed=seed)
                    b, _ = run(workload, seed=seed)
                    for r in (a, b):
                        self.assertTrue(r["correct"])
                        self.assertEqual(r["failed"], 0)
                    for name in ("sim_cycles_per_unit", "cloak_overhead"):
                        self.assertEqual(a["metrics"][name],
                                         b["metrics"][name])


class TracedRunTest(unittest.TestCase):
    def test_traced_run_reports_every_per_layer_metric(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            declared = [m["name"] for m in json.load(f)["per_layer"]]
        for workload in ROUND0_UNITS:
            with self.subTest(workload=workload):
                result, _ = run(workload, trace=1)
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), declared)


if __name__ == "__main__":
    unittest.main()
