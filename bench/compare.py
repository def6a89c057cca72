#!/usr/bin/env python3
"""Compare two result sets of ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

A is the parent, B the change.  One row per (end-to-end metric, workload):
both medians with their quartiles, the delta, the metric's bound and a
verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  not worse, but the run-to-run spread (the wider of the
                  two interquartile ranges, as a share of A's median) is
                  wider than the bound, so "unchanged" cannot be said;
* ``better``      B's median is better by more than A's own spread;
* ``same``        otherwise.

Then the layer metrics that moved by more than their own spread.  The exit
code is non-zero on any ``worse`` and on any rise in the failed ratio.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from statistics import median, quantiles
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: a layer metric measured once per set has no spread of its own; timings
#: then count as moved only beyond this share
SINGLE_RUN_TOLERANCE = 0.05


def load(path: str) -> Dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def by_workload(result_set: Dict, trace: int) -> Dict[str, Dict[str, List]]:
    """workload -> metric -> values, over the set's runs of one pass."""
    grouped: Dict[str, Dict[str, List]] = defaultdict(lambda: defaultdict(list))
    for record in result_set["records"]:
        if record["trace"] != trace:
            continue
        for name, value in record["metrics"].items():
            grouped[record["workload"]][name].append(value)
    return grouped


def failed_ratio(result_set: Dict) -> Dict[str, float]:
    attempted: Dict[str, int] = defaultdict(int)
    failed: Dict[str, int] = defaultdict(int)
    for record in result_set["records"]:
        attempted[record["workload"]] += record["attempted"]
        failed[record["workload"]] += record["failed"]
    return {w: failed[w] / attempted[w] for w in attempted}


Quartiles = Tuple[float, float, float]


def quartiles(values: List[float]) -> Quartiles:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def verdict(a: Quartiles, b: Quartiles, better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, spread as a share of A's median)."""
    a1, am, a3 = a
    b1, bm, b3 = b
    worsening = (bm - am) / am if better == "lower" else (am - bm) / am
    spread = max(a3 - a1, b3 - b1) / am
    if worsening > bound:
        return "worse", spread
    if spread > bound:
        return "unresolved", spread
    if -worsening > (a3 - a1) / am and worsening < 0:
        return "better", spread
    return "same", spread


def compare(a: Dict, b: Dict, contract: Dict) -> int:
    bad = 0
    a_runs, b_runs = by_workload(a, 0), by_workload(b, 0)
    print(f"{'workload':14s} {'metric':24s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'delta':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            qa = quartiles(a_runs[workload][name])
            qb = quartiles(b_runs[workload][name])
            result, spread = verdict(qa, qb, metric["better"],
                                     metric["bound"])
            bad += result == "worse"
            cells = [f"{mid:12.4f} [{q1:10.4f}, {q3:10.4f}]"
                     for q1, mid, q3 in (qa, qb)]
            delta = (qb[1] - qa[1]) / qa[1]
            print(f"{workload:14s} {name:24s} {cells[0]:>38s} {cells[1]:>38s} "
                  f"{delta:+8.2%} {metric['bound']:6.0%}  {result}"
                  + (f" (spread {spread:.1%})" if result == "unresolved"
                     else ""))

    fa, fb = failed_ratio(a), failed_ratio(b)
    for workload in sorted(fa.keys() & fb.keys()):
        if fb[workload] > fa[workload]:
            bad += 1
            print(f"{workload}: failed ratio rose {fa[workload]:.5f} -> "
                  f"{fb[workload]:.5f}")

    a_layers, b_layers = by_workload(a, 1), by_workload(b, 1)
    print("\nlayer metrics that moved by more than their own spread:")
    for workload in sorted(a_layers.keys() & b_layers.keys()):
        for name in sorted(a_layers[workload].keys()
                           & b_layers[workload].keys()):
            va, vb = a_layers[workload][name], b_layers[workload][name]
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            spread = max(a3 - a1, b3 - b1)
            if len(va) < 2 or len(vb) < 2:
                spread = max(spread, SINGLE_RUN_TOLERANCE * abs(am))
            if abs(bm - am) > spread:
                change = f"{(bm - am) / am:+.1%}" if am else "from 0"
                print(f"  {workload:14s} {name:36s} {am:14.4f} -> {bm:14.4f} "
                      f"({change})")
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = load(os.path.join(ROOT, "BENCHMARK.json"))
    return compare(load(argv[0]), load(argv[1]), contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
