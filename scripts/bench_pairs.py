#!/usr/bin/env python3
"""Paired parent-vs-change runs of one benchmark workload.

    python3 scripts/bench_pairs.py <parent-ref> --workload W --pairs N
                                   [--first-seed S] [--traced] [--out PREFIX]

The measuring procedure of a performance claim, as one command: extract
``<parent-ref>`` into a temporary directory, then for seeds S, S + 1, ...
(``--first-seed``, default 11) run

    python3 bench/run.py --workload W --seed s --seconds 12 --trace 0

once in the parent copy and once in this working tree, alternating which
side goes first, and print per end-to-end metric both medians with their
quartiles, the ratio and how many pairs the change won.  A gain may be
claimed when the change wins at least nine tenths of the pairs (ties count
for neither side) and the medians differ by more than the parent's
inter-quartile distance; ``claim`` says whether both hold.  A claim sized
on some seeds is re-checked on seeds it was not sized on: pass a
``--first-seed`` past the ones used while writing it.  ``--workload``
may be repeated.  ``--traced`` adds three ``--trace 1`` runs per side, on
the first three seeds, and prints per layer metric each side's median and
range: a row whose two ranges overlap is ``unresolved`` (one run's noise
can move a wall-time row by a quarter), one with the same values on both
sides ``same``, any other ``better`` or ``worse``.  ``--out PREFIX`` writes
``PREFIX.parent.json`` and ``PREFIX.change.json``, two result sets that
``bench/compare.py`` reads — the full verdict table plus the layer metrics
that moved.  Each side runs the ``bench/`` of its own tree, so the
comparison is only meaningful while ``bench/`` is identical in both (the
script checks).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench.compare import quartiles  # noqa: E402  (q1, median, q3)

FIRST_SEED = 11
SIDES = ("parent", "change")
#: ``--trace 1`` runs per side, on consecutive seeds from FIRST_SEED
TRACED_RUNS = 3


def extract(ref: str, target: str) -> None:
    """``git archive <ref> | tar -x`` into ``target``."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def same_tree(a: str, b: str) -> bool:
    """Whether two directories hold the same source files."""
    compared = filecmp.dircmp(a, b, ignore=["__pycache__", "out"])
    if compared.left_only or compared.right_only or compared.diff_files:
        return False
    return all(same_tree(os.path.join(a, name), os.path.join(b, name))
               for name in compared.common_dirs)


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> Dict:
    """One ``bench/run.py`` run in ``tree``, as a result-set record."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench/run.py printed nothing in {tree} "
                         f"(exit code {done.returncode})")
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def report(workload: str, parent_ref: str, better: Dict[str, str],
           runs: Dict[str, List[Dict]], first_seed: int = FIRST_SEED) -> None:
    pairs = len(runs["parent"])
    print(f"{workload}: {pairs} pairs, seeds {first_seed}-"
          f"{first_seed + pairs - 1}, parent {parent_ref}")
    print(f"{'metric':24s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>6s} {'wins':>6s}  claim")
    for name, direction in better.items():
        sides = {side: [run["metrics"][name] for run in runs[side]]
                 for side in SIDES}
        sign = 1 if direction == "higher" else -1
        both = list(zip(sides["parent"], sides["change"]))
        wins = sum(sign * (c - p) > 0 for p, c in both)
        decided = sum(p != c for p, c in both)
        p1, pm, p3 = quartiles(sides["parent"])
        c1, cm, c3 = quartiles(sides["change"])
        claim = (decided > 0 and wins >= 0.9 * decided
                 and sign * (cm - pm) > p3 - p1)
        print(f"{name:24s} {pm:12.2f} [{p1:9.2f},{p3:9.2f}] "
              f"{cm:12.2f} [{c1:9.2f},{c3:9.2f}] {cm / pm:6.2f} "
              f"{wins:3d}/{decided:<2d}  {'yes' if claim else 'no'}")
    for side in SIDES:
        attempted = sum(run["attempted"] for run in runs[side])
        failed = sum(run["failed"] for run in runs[side])
        wrong = sum(not run["correct"] for run in runs[side])
        print(f"{side}: {failed}/{attempted} ops failed, "
              f"{wrong} run(s) with a failed check")


def layer_report(workload: str, better: Dict[str, str],
                 traced: Dict[str, List[Dict]],
                 first_seed: int = FIRST_SEED) -> None:
    """Each layer metric's median and range per side over the traced runs;
    ``unresolved`` where the two ranges overlap."""
    runs = len(traced["parent"])
    print(f"{workload}: layer metrics over {runs} traced runs per side, "
          f"seeds {first_seed}-{first_seed + runs - 1}")
    print(f"{'metric':36s} {'parent median [min, max]':>36s} "
          f"{'change median [min, max]':>36s} {'ratio':>6s}  verdict")
    for name, direction in better.items():
        sides = {side: sorted(run["metrics"].get(name) for run in traced[side]
                              if run["metrics"].get(name) is not None)
                 for side in SIDES}
        if any(len(values) != runs for values in sides.values()):
            continue
        parent, change = sides["parent"], sides["change"]
        pm, cm = quartiles(parent)[1], quartiles(change)[1]
        if parent == change:
            verdict = "same"
        elif parent[0] <= change[-1] and change[0] <= parent[-1]:
            verdict = "unresolved"
        else:
            lower = change[-1] < parent[0]
            verdict = "better" if lower == (direction == "lower") else "worse"
        ratio = f"{cm / pm:6.2f}" if pm else f"{'-':>6s}"
        print(f"{name:36s} {pm:14.4f} [{parent[0]:9.4f},{parent[-1]:9.4f}] "
              f"{cm:14.4f} [{change[0]:9.4f},{change[-1]:9.4f}] {ratio}  "
              f"{verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED,
                        help="seed of the first pair (and traced run); "
                             f"default {FIRST_SEED}")
    parser.add_argument("--traced", action="store_true",
                        help=f"add {TRACED_RUNS} --trace 1 runs per side "
                             "and a per-layer table")
    parser.add_argument("--out", metavar="PREFIX",
                        help="write PREFIX.{parent,change}.json result sets")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in contract["per_layer"]}
    records: Dict[str, List[Dict]] = {side: [] for side in SIDES}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        extract(args.parent, parent)
        if not same_tree(os.path.join(parent, "bench"),
                         os.path.join(ROOT, "bench")):
            print("warning: bench/ differs between the two trees; the "
                  "sides are not measured by the same benchmark",
                  file=sys.stderr)
        trees = {"parent": parent, "change": ROOT}
        for workload in args.workload:
            runs: Dict[str, List[Dict]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run_once(
                        trees[side], workload, args.first_seed + pair,
                        args.seconds))
                print(f"{workload} pair {pair + 1}/{args.pairs} "
                      f"({order[0]} first): " + ", ".join(
                          f"{side} {runs[side][-1]['metrics']['throughput_msgs_per_s']:.1f}"
                          for side in SIDES) + " msgs/s", file=sys.stderr)
            report(workload, args.parent, better, runs, args.first_seed)
            for side in SIDES:
                records[side] += runs[side]
            if args.traced:
                traced: Dict[str, List[Dict]] = {side: [] for side in SIDES}
                for index in range(TRACED_RUNS):
                    order = SIDES if index % 2 == 0 else SIDES[::-1]
                    for side in order:
                        traced[side].append(run_once(
                            trees[side], workload, args.first_seed + index,
                            args.seconds, trace=1))
                layer_report(workload, layer_better, traced, args.first_seed)
                for side in SIDES:
                    records[side] += traced[side]

    if args.out:
        for side in SIDES:
            with open(f"{args.out}.{side}.json", "w", encoding="utf-8") as f:
                json.dump({"seconds": args.seconds, "seed": args.first_seed,
                           "records": records[side]}, f, indent=1,
                          sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
