#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and end-to-end metric.

    python3 bench_e2e/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or files) of run records written by
`run.py --out`. Untraced records are grouped by workload; runs are paired
in seed order. For each metric of BENCHMARK.json a cell reads:

  better     CHANGE wins >= 9/10 of the pairs (ties count for neither) and
             the medians differ by more than PARENT's interquartile range
  worse      CHANGE's median is worse than PARENT's by more than the bound
  unresolved a side's interquartile range exceeds the bound, unless every
             CHANGE run beats (or loses to) every PARENT run
  same       otherwise

followed by the change of the median. One row per workload, then each
side's median and quartiles. Exits 1 when any cell reads `worse`.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    runs = {}
    for name in files:
        with open(name) as f:
            rec = json.load(f)
        if "workload" not in rec or rec.get("traced"):
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(metric, a, b):
    """(label, relative change of the median) for one metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    change = (med_b - med_a) / med_a
    gain = sign * change  # > 0: CHANGE is better
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    all_worse = max(sign * y for y in b) < min(sign * x for x in a)
    spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)
    if gain > 0 and wins >= 0.9 * len(pairs) and \
            abs(med_b - med_a) > qa[2] - qa[0]:
        return "better", change
    if spread > bound and not (all_better or all_worse):
        return "unresolved", change
    if -gain > bound:
        return "worse", change
    return "same", change


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    side_a, side_b = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    workloads = [w for w in side_a if w in side_b]
    if not workloads:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2

    names = [m["name"] for m in metrics]
    width = max(len(n) for n in names) + 2
    print(f"{'workload':16s}" + "".join(f"{n:>{width}s}" for n in names))
    worse = False
    details = []
    for w in workloads:
        cells = []
        for m in metrics:
            a = [r["result"]["metrics"][m["name"]]["value"] for r in side_a[w]]
            b = [r["result"]["metrics"][m["name"]]["value"] for r in side_b[w]]
            label, change = verdict(m, a, b)
            worse = worse or label == "worse"
            cells.append(f"{label} {change:+.1%}")
            qa, qb = quartiles(a), quartiles(b)
            details.append(
                f"{w:16s} {m['name']:{width}s} "
                f"A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a)}  "
                f"B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b)}  "
                f"bound {m['bound']:.0%}")
        print(f"{w:16s}" + "".join(f"{c:>{width}s}" for c in cells))
    print()
    print("\n".join(details))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
