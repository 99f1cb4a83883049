#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds into one result set.

    python3 perfbench/sweep.py --out A.jsonl --seeds 1-10 \
        [--workloads sat-recovery,dumbbell-mix] [--seconds 20] [--trace 0]

Runs run.py once per workload and seed, one at a time, appending each
result to --out; then summarise it with compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", required=True, type=seeds)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--record", args.out],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0]}",
                  flush=True)
            status |= done.returncode
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
