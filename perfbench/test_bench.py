#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Builds the benchmark, then checks that a failing output check lowers
ok_share and clears `correct`, that the comparison report flags worse and
unresolved metrics, and that run.py refuses to run without the simulator's
sources. Scratch files go under the checkout's .bench_out directory.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SCRATCH = os.path.join(run.ROOT, ".bench_out")


def bench(*args):
    done = subprocess.run([run.EXE, *args], cwd=run.ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(result, name):
    return result["metrics"][name]["value"]


class OutputChecks(unittest.TestCase):
    base = ["--workload", "dumbbell-mix", "--seed", "3", "--seconds", "0",
            "--trace", "0"]

    def test_clean_run_is_correct(self):
        r = bench(*self.base)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertEqual(metric(r, "ok_share"), 1.0)

    def test_failing_check_lowers_ok_share(self):
        # Pass 2 runs another seed, so its digest differs from pass 1's.
        r = bench(*self.base, "--sabotage-pass", "2")
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertAlmostEqual(metric(r, "ok_share"),
                               (r["attempted"] - 1) / r["attempted"])
        self.assertLess(metric(r, "ok_share"), 1.0)


class Compare(unittest.TestCase):
    def write(self, d, name, values):
        path = os.path.join(d, name)
        with open(path, "w") as f:
            for i, v in enumerate(values):
                f.write(json.dumps({"workload": "w", "seed": i, "trace": 0,
                                    "result": {"metrics": {"wall_cal": {
                                        "value": v, "unit": "ratio"}}}}) + "\n")
        return path

    def report(self, *paths):
        done = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                               *paths], stdout=subprocess.PIPE, text=True)
        return done.returncode, done.stdout

    def test_verdicts(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
            steady = self.write(d, "a", [10.0, 10.1, 9.9, 10.0, 10.05])
            slower = self.write(d, "b", [14.0, 14.1, 13.9, 14.0, 14.05])
            noisy = self.write(d, "c", [5.0, 15.0, 10.0, 20.0, 2.0])
            code, out = self.report(steady, steady)
            self.assertEqual(code, 0)
            self.assertIn("within", out)
            self.assertIn("n=5", out)
            code, out = self.report(steady, slower)
            self.assertEqual(code, 1)
            self.assertIn("worse", out)
            self.assertIn("B/A 1.4000 (base 10)", out)
            code, out = self.report(steady, noisy)
            self.assertEqual(code, 1)
            self.assertIn("unresolved", out)


class Refuses(unittest.TestCase):
    def test_without_sources(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), d)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dumbbell-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    os.makedirs(SCRATCH, exist_ok=True)
    if not run.build():
        sys.exit("perfbench: build failed")
    unittest.main()
