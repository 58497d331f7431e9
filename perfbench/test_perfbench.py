#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark (tiny n, a few seconds per run).

    python3 perfbench/test_perfbench.py

Checks, on every workload of BENCHMARK.json:
  * --trace 0 prints every end-to-end metric and --trace 1 every per-layer
    metric, each with its declared unit, with no failure;
  * a deliberately broken output (--break drops one certificate or ECSS edge
    before its check) shows up in failed / error_rate and a nonzero exit;
and that the benchmark exits nonzero without a result in a directory holding
only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BREAKS = {"serve-churn": "cert", "ecss2-seq": "ecss"}


def run(args, cwd=ROOT, timeout=300):
    cmd = SPEC["command"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def smoke(workload, trace, extra=()):
    p = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
             "--smoke", *extra])
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p, result


class Metrics(unittest.TestCase):
    def check_metrics(self, trace, declared):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p, r = smoke(w, trace)
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(set(r["metrics"]), {m["name"] for m in declared})
                for m in declared:
                    got = r["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float), m["name"])
                    if trace == 0:
                        self.assertGreater(got["value"], 0, m["name"])
                if trace == 1:
                    self.assertEqual(r["metrics"]["error_rate"]["value"], 0)
                    cov = r["metrics"]["trace.coverage"]["value"]
                    self.assertGreater(cov, 0.9, "layer self times must cover the traced pass")
                    self.assertLess(cov, 1.1)
                self.assertIn("# host ", p.stdout)

    def test_end_to_end_metrics_print_with_units(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_print_with_units(self):
        self.check_metrics(1, SPEC["per_layer"])


class BrokenOutput(unittest.TestCase):
    def test_dropped_edge_is_a_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p, r = smoke(w, 1, ("--break", BREAKS[w]))
                self.assertNotEqual(p.returncode, 0)
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertGreater(r["metrics"]["error_rate"]["value"], 0)


class MissingSources(unittest.TestCase):
    def test_fails_without_result(self):
        bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bdir = bdir if os.path.isabs(bdir) else os.path.join(ROOT, bdir)
        bare = os.path.join(bdir, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                     "--seconds", "1", "--trace", "0"]
            p = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170,
                               env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
