#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one measurement.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload dumbbell-mix --seed 1 --seconds 20 --trace 0

The benchmark executable is built with dune (release profile) into the
checkout's _build directory. A timed run (--trace 0) runs it in one
process after another, each measuring for a sixth of --seconds, until
--seconds have passed (at least three processes), and merges their
passes; a traced run (--trace 1) runs it once. Their standard
output is passed through; the last line is the result object.
With --record FILE, the result is also appended to FILE as one JSON line
{"workload", "seed", "trace", "result"}, the input of compare.py.

Exit codes: 0 on a printed result, 2 when the checkout has no simulator
sources or the build fails, 3 when the benchmark fails or overruns.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sat-recovery", "dumbbell-mix", "clusters-2shard")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
# A timed run starts one process after another, each measuring for this
# share of --seconds, until --seconds have passed and at least
# MIN_PROCESSES have run (see merge).
PROCESS_SHARE = 6
MIN_PROCESSES = 3
# The whole run, after the build, must finish within 180 s of host time.
RUN_TIMEOUT_S = 170


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: no {need} in {ROOT}; run from a checkout of "
                  "the repository", file=sys.stderr)
            return False
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def bench(args, seconds, follower, timeout):
    """Run bench.exe once; return its stdout lines and result, or None."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if follower:
        cmd.append("--follower")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark overran its time limit", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"perfbench: benchmark exited with {done.returncode}",
              file=sys.stderr)
        return None
    return lines[:-1], json.loads(lines[-1])


def merge(runs):
    """One result from the timed processes of a run. wall_cal is the
    median over every pass of every process, so that what shifts all
    passes of one process alike is averaged out; setup_s and peak_heap_mb
    are medians of the processes' own values."""
    passes, digests, heaps, goodputs = [], set(), [], set()
    attempted = failed = 0
    correct = True
    for lines, result in runs:
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= result["correct"]
        heaps.append(result["metrics"]["peak_heap_mb"]["value"])
        goodputs.add(result["metrics"]["goodput_frac"]["value"])
        for line in lines:
            tag, _, rest = line.partition(" ")
            if tag == "pass":
                passes.append(json.loads(rest))
            elif tag == "digest":
                digests.add(rest)
    if len(digests) != 1 or len(goodputs) != 1:
        print(f"perfbench: processes disagree: digests {sorted(digests)}",
              file=sys.stderr)
        failed = attempted
        correct = False
    med = statistics.median
    print("host " + json.dumps({
        "wall_s": med(p["wall_s"] for p in passes),
        "cal_s": med(p["cal_s"] for p in passes),
        "passes": len(passes), "processes": len(runs)}))
    metrics = {
        "wall_cal": (med(p["ratio"] for p in passes), "ratio"),
        "setup_s": (med(r["metrics"]["setup_s"]["value"] for _, r in runs),
                    "s"),
        "peak_heap_mb": (med(heaps), "MB"),
        "goodput_frac": (goodputs.pop() if len(goodputs) == 1 else 0.0,
                         "fraction"),
        "ok_share": ((attempted - failed) / attempted, "fraction"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="append the result to this JSONL file")
    args = ap.parse_args()

    if not build():
        return 2
    runs = []
    start = time.monotonic()
    while not runs or (not args.trace and (
            len(runs) < MIN_PROCESSES
            or time.monotonic() - start < args.seconds)):
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        run = bench(args, args.seconds / PROCESS_SHARE, follower=bool(runs),
                    timeout=max(1.0, left))
        if run is None:
            return 3
        runs.append(run)
        for line in run[0]:
            print(line)
    result = runs[0][1] if args.trace else merge(runs)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
