#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at its minimal size.

    python3 perfbench/test_smoke.py

Builds the perfbench binary (through run.py), runs each workload of
BENCHMARK.json untraced and traced with --smoke, and asserts that the result
line names every declared metric with its declared unit and that no
operation failed.
Also asserts that a usage error exits non-zero without a result line.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for key in ("cpu", "nproc", "compiler", "flags"):
            self.assertIn(key, report)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:  # End-to-end metrics are never 0.
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_usage_error(self):
        proc = run("--workload", "no-such-workload", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
