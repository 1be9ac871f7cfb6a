#!/usr/bin/env python3
"""Self-tests of the benchmark, on tiny inputs:

    python3 perfbench/test_perfbench.py

Every metric BENCHMARK.json names is printed with its unit, a corrupted
graph or a failed request trips the correctness check and raises the
failure count, a non-default seed runs clean, and a checkout without the
system's sources is refused without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gold_batch", "datalake_batch", "serve_mixed")


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    info = json.loads(lines[-2]) if len(lines) >= 2 else None
    return proc.returncode, result, info


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result.keys()),
                         {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in declared}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_metric_printed_with_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, info = run(workload, trace=trace)
                    self.assertEqual(code, 0, info)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(info["failed_share"], 0)
                    self.check_metrics(result, self.bench[key])
                    if trace == 0:
                        for metric in result["metrics"].values():
                            self.assertGreater(metric["value"], 0)

    def test_perturbed_graph_trips_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, info = run(workload, extra=("--perturb", "graph"))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(info["failed_share"], 0)

    def test_failed_request_trips_the_check(self):
        code, result, info = run("serve_mixed", extra=("--perturb", "request"))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(info["failed_share"], 0)

    def test_non_default_seed_runs_clean(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, info = run(workload, seed=7)
                self.assertEqual(code, 0, info)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(info["inputs"]["seed"], 7)

    def test_refuses_a_checkout_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "gold_batch", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
