#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark.

    python3 perfbench/smoke_test.py

Runs every BENCHMARK.json workload scaled down (run.py --smoke) in both modes
and checks that each run emits exactly its declared metrics with their units
and passes its correctness check; runs the correctness-check test binary
(a tampered estimate or a label shortfall must fail the check); and checks
that the benchmark refuses to run, printing no result, without the library
sources next to it.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_benchmark(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        cls.rows = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
        run.build()

    def test_rows_describe_every_workload(self):
        declared = {w["name"]: w["why"] for w in self.benchmark["workloads"]}
        described = {row["name"]: row["why"] for row in self.rows}
        self.assertEqual(declared, described)

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in self.benchmark["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    result = run_benchmark(ROOT, workload["name"], trace)
                    self.assertEqual(result.returncode, 0, result.stderr[-3000:])
                    line = json.loads(result.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(line),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(line["correct"], True)
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in self.benchmark[section]}
                    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    for name, metric in line["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                        if section == "end_to_end":
                            self.assertGreater(metric["value"], 0, name)

    def test_correctness_check_fails_on_tampering_and_shortfall(self):
        result = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_check_test")],
                                cwd=run.BUILD_DIR, stdout=subprocess.PIPE, text=True,
                                timeout=300)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_refuses_to_run_without_library_sources(self):
        bare = os.path.join(run.BUILD_DIR, "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            result = run_benchmark(bare, "batch-stripe-k30", 0)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
