#!/usr/bin/env python3
"""Summarise or compare benchmark result sets.

    python3 perfbench/compare.py A.jsonl            # one set: spread check
    python3 perfbench/compare.py A.jsonl B.jsonl    # A is the base

Each file holds one JSON line per run, as written by
`run.py --record FILE`. For every workload x metric the report prints each
side's median, first and third quartile (statistics.quantiles, n=4) and
sample count, and with two sets the ratio B/A with its base (A's median).

A metric is *unresolved* when either side's own spread, (q3 - q1) /
median, exceeds its bound from BENCHMARK.json; then the two medians cannot
be told apart. Otherwise it is *worse* when B's median is worse than A's
by more than the bound in the metric's direction, else *within*. Metrics
without a bound (the per-layer ones) report *changed* or *same*.
Exit status: 0, or 1 if any metric is worse or unresolved.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs


def specs():
    try:
        with open(BENCHMARK) as f:
            bench = json.load(f)
    except OSError:
        return {}
    out = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    return out


def stats(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, len(values), spread


def fmt(x):
    return f"{x:.6g}"


def verdict(spec, a, b):
    bound = spec.get("bound")
    if bound is None:
        return "same" if a[0] == b[0] and a[1] == b[1] and a[2] == b[2] else "changed"
    if a[4] > bound or b[4] > bound:
        return "unresolved"
    if a[0] == 0:
        return "within" if b[0] == 0 else "changed"
    change = (b[0] - a[0]) / abs(a[0])
    worse = change > bound if spec["better"] == "lower" else -change > bound
    return "worse" if worse else "within"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv[1:]]
    spec = specs()
    keys = sorted(set().union(*[s.keys() for s in sets]))
    bad = False
    for workload, metric in keys:
        sp = spec.get(metric, {})
        bound = sp.get("bound")
        sides = [stats(s[(workload, metric)]) if (workload, metric) in s else None
                 for s in sets]
        cols = []
        for side in sides:
            if side is None:
                cols.append("(absent)")
            else:
                med, q1, q3, n, spread = side
                cols.append(f"median {fmt(med)} [q1 {fmt(q1)}, q3 {fmt(q3)}] "
                            f"n={n} spread {spread:.3f}")
        line = f"{workload:16} {metric:34} " + " | ".join(cols)
        if len(sets) == 1 and sides[0] is not None and bound is not None:
            ok = sides[0][4] <= bound
            line += f"  bound {bound} {'ok' if ok else 'UNRESOLVED'}"
            bad |= not ok and metric != "setup_s"
        elif len(sets) == 2 and None not in sides:
            a, b = sides
            ratio = b[0] / a[0] if a[0] else float("nan")
            v = verdict(sp, a, b)
            line += f"  B/A {ratio:.4f} (base {fmt(a[0])}) {v}"
            bad |= v in ("worse", "unresolved")
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
