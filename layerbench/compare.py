#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark results.

    python3 layerbench/compare.py PARENT_DIR CHANGE_DIR [--per-layer]
        [--benchmark BENCHMARK.json]

Each directory holds one file per run, named WORKLOAD.SEED.out (any
suffix), holding the stdout of `layerbench/run.py`; its last line is
the result object. A run of the parent and a run of the change with
the same workload and seed form a pair.

Per workload and metric it prints each side's median and quartiles,
the pairs the change won and lost, and a verdict: `better` when the
change wins at least nine tenths of all pairs (ties count for neither)
and the medians differ by more than the parent's own spread (its
interquartile distance); `worse` by the same rule in the other
direction; `unresolved` otherwise. For end-to-end metrics a second
column checks the benchmark's bound: `ok` when the change's median is
no worse than the parent's by more than the bound, `REGRESSION` when
it is, and `unresolved` when the parent's spread is wider than the
bound and not every change run beats every parent run.

Exits 1 when a run reads correct=false, a verdict is `worse`, or a
bound check reads `REGRESSION`; otherwise 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: {seed: result}} from WORKLOAD.SEED.* files."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        parts = path.name.split(".")
        if len(parts) < 2 or not parts[1].isdigit():
            continue
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        runs.setdefault(parts[0], {})[int(parts[1])] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(parent, change, higher, bound):
    """Returns the printed row fields and whether the row fails."""
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    sign = 1.0 if higher else -1.0
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_q1, p_q3 = quartiles(p)
    c_q1, c_q3 = quartiles(c)
    spread = p_q3 - p_q1
    apart = abs(c_med - p_med) > spread
    if wins >= WIN_SHARE * len(seeds) and apart and sign * (c_med - p_med) > 0:
        verdict = "better"
    elif losses >= WIN_SHARE * len(seeds) and apart and sign * (c_med - p_med) < 0:
        verdict = "worse"
    else:
        verdict = "unresolved"
    check = "-"
    if bound is not None:
        worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
        all_better = min(sign * v for v in c) > max(sign * v for v in p)
        if p_med and spread / abs(p_med) > bound and not all_better:
            check = "unresolved"
        elif worse_by > bound:
            check = "REGRESSION"
        else:
            check = "ok"
    row = (len(seeds), p_med, p_q1, p_q3, c_med, c_q1, c_q3, wins, losses,
           verdict, check)
    return row, verdict == "worse" or check == "REGRESSION"


def main():
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--per-layer", action="store_true",
                        help="compare the per-layer metrics of traced runs")
    parser.add_argument("--benchmark", default=str(here.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    bench = json.loads(Path(args.benchmark).read_text())
    metrics = bench["per_layer"] if args.per_layer else bench["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)

    failed = False
    for side, runs in (("parent", parent), ("change", change)):
        for workload, by_seed in runs.items():
            for seed, result in by_seed.items():
                if not result.get("correct", False):
                    print(f"{side} {workload} seed {seed}: correct=false")
                    failed = True

    print(f"{'workload':8} {'metric':32} {'pairs':>5} {'parent med [q1, q3]':>34} "
          f"{'change med [q1, q3]':>34} {'won':>4} {'lost':>4} {'verdict':>10} "
          f"{'bound':>10}")
    for workload in sorted(set(parent) & set(change)):
        for metric in metrics:
            name = metric["name"]
            values = [{s: r["metrics"][name]["value"]
                       for s, r in side[workload].items() if name in r["metrics"]}
                      for side in (parent, change)]
            if not set(values[0]) & set(values[1]):
                continue
            row, bad = compare(values[0], values[1], metric["better"] == "higher",
                               metric.get("bound"))
            failed = failed or bad
            n, pm, pq1, pq3, cm, cq1, cq3, won, lost, verdict, check = row
            print(f"{workload:8} {name:32} {n:5d} {pm:12.6g} [{pq1:9.6g}, {pq3:9.6g}] "
                  f"{cm:12.6g} [{cq1:9.6g}, {cq3:9.6g}] {won:4d} {lost:4d} "
                  f"{verdict:>10} {check:>10}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
