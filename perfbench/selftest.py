#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at the scaled-down --tiny size for one second
with --trace 0 and --trace 1, and checks that

  * the last stdout line is the result object, with exactly the keys
    correct/attempted/failed/metrics, and every operation passed;
  * every end-to-end (trace 0) or per-layer (trace 1) metric that
    BENCHMARK.json names is printed with the unit it declares, and
    nothing else is;
  * on every workload the traced run's layer self times are not
    negative, the unattributed (profiler) share lies within the run,
    and the parts add up to trace.run_ms;
  * a deliberately wrong pinned value turns every operation into a
    failed one, reported in the result rather than crashing;
  * without the simulator sources next to it, the benchmark exits
    non-zero and prints no result.

Scratch files go under the benchmark's build directory.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(workload, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.scratch = os.path.join(run.build_dir(), "selftest")
        os.makedirs(cls.scratch, exist_ok=True)

    def expect_metrics(self, res, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_prints_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result(proc)
                    self.assertEqual(
                        set(res),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], proc.stderr)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    self.expect_metrics(res, self.spec[key])
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_traced_attribution_is_a_partition_of_run_ms(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = result(bench(workload, 1))["metrics"]
                run_ms = res["trace.run_ms"]["value"]
                layers = [res["trace.%s.self_ms" % l]["value"]
                          for l in run.LAYERS]
                rest = res["trace.unattributed_ms"]["value"]
                for layer, ms in zip(run.LAYERS, layers):
                    self.assertGreaterEqual(ms, 0.0, layer)
                self.assertGreater(run_ms, 0.0)
                self.assertGreater(rest, 0.0)
                self.assertLessEqual(rest, run_ms)
                self.assertLessEqual(sum(layers), run_ms)
                self.assertAlmostEqual(sum(layers) + rest, run_ms,
                                       places=6)
                self.assertGreater(res["trace.sim.self_ms"]["value"], 0)
                self.assertGreater(res["trace.pcie.self_ms"]["value"], 0)

    def test_wrong_pinned_value_is_a_failed_operation(self):
        binary = run.build()
        self.assertIsNotNone(binary)
        pins = copy.deepcopy(run.PINNED["tiny"])
        pins["dd_storage"][0]["gbps"] *= 1.001
        args = argparse.Namespace(workload="dd_storage", seed=7,
                                  tiny=True)
        runner = run.Runner(binary, args, pins)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            run.end_to_end(runner, 1)
        self.assertGreaterEqual(runner.attempted, 1)
        self.assertEqual(runner.failed, runner.attempted)
        self.assertIn("match no pinned case", err.getvalue())

    def test_fails_without_sources(self):
        alone = os.path.join(self.scratch, "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "dd_storage", "--seed", "1", "--seconds", "1", "--trace",
             "0"], capture_output=True, text=True, cwd=alone,
            timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
