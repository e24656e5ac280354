#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Reduced-size runs of every workload (both modes) must emit exactly the
metrics BENCHMARK.json names, in its units, with every correctness check
passing; a corrupted served log must trip the correctness gate; and the
benchmark must fail cleanly where the program's sources are missing.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def all_workloads():
    return [w["name"] for w in load_spec()["workloads"]]


def run(workload, trace, *extra, cwd=ROOT, size="0.04", seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", seconds,
         "--trace", str(trace), "--size", size, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class ReducedRunTest(unittest.TestCase):
    def check_result(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(any(l.startswith("provenance ") for l in lines))
        prov = json.loads(next(l for l in lines
                               if l.startswith("provenance "))[11:])
        for key in ("compiler", "build_type", "cpu_model", "nproc", "seed"):
            self.assertIn(key, prov)
        self.assertTrue("git_sha" in prov or "source_sha256" in prov)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            # Every metric is also printed by name with its unit.
            self.assertTrue(any(l.startswith(f"{m['name']} = ") and
                                l.endswith(f" {m['unit']}") for l in lines),
                            m["name"])
        result["stdout"] = proc.stdout
        return result

    def test_every_workload_emits_every_metric(self):
        spec = load_spec()
        for workload in all_workloads():
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.check_result(run(workload, trace),
                                               spec[key])
                    if trace == 1 and workload == "road_s1":
                        # road_s1 runs every layer (durable ones included).
                        self.assertIn("note not_run: \n", result["stdout"])
                    if trace == 0:
                        for m in spec[key]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])
                        # The ungated end-to-end metrics are printed too.
                        for name in ("sustainable_eps", "latency_p50_ms",
                                     "latency_p99_ms", "recovery_s"):
                            self.assertRegex(result["stdout"],
                                             rf"\n{name} = \S+ \S+ \(not gated\)")

    def test_corrupted_served_log_trips_the_gate(self):
        for workload in all_workloads():
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt", "served_log")
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("FAIL", proc.stdout)


class WithoutSourcesTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        # A tree holding only BENCHMARK.json and the benchmark's files:
        # the build must fail and no result line may be printed.
        bare = os.path.join(ROOT, ".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "road_s1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
