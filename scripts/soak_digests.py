#!/usr/bin/env python3
"""Digest the pinned chaos soaks: proof that a refactor changes no behaviour.

    python3 scripts/soak_digests.py [--sweep] [--expect-failing CELLS]

Runs every cell on the sim backend and prints, per cell, the first 16 hex
digits of ``sha256(repr(ChaosReport))``, ``ok`` or ``FAIL`` and the cell's
name, then one combined digest over all of them.  Run it at two commits:
equal digests mean the post-mortems are identical field for field.

The cells:

* the four ``examples/scenarios/soak_*.json`` files as the CI soaks run
  them (their own seed, 60 messages);
* CI's pipelined heavy soak, ``soak_retention.json`` at seed 23, intensity
  heavy, duration 6 (regency changes over a window of 4), named
  ``soak_retention_heavy``;
* the churn pins of ``tests/runtime/test_churn_soak.py``,
  ``soak_spec(CHURN_SOAK, seed=s, checkpoint_interval=iv, **CHURN_PIN)``
  with 24 messages, named ``s@iv``;
* with ``--sweep``, the same churn cell for seeds 0-199 and 1200-1399 at
  ``checkpoint_interval`` 0 and 16.

The exit status is 1 when a cell fails that ``--expect-failing`` (comma
separated names, e.g. ``180@0,120@16``) does not name, or when a named
cell that ran passes — strict, like an xfail.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Callable, Dict, Iterable, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.runtime.chaos import ChaosReport, run_chaos_soak  # noqa: E402
from repro.scenario import ScenarioSpec  # noqa: E402
from tests.helpers import (CHURN_PIN, CHURN_SOAK, SCENARIOS,  # noqa: E402
                           soak_spec)

#: CI's heavy soak of the retention file: the (seed, intensity, duration)
#: it overrides
HEAVY = dict(seed=23, intensity="heavy", duration=6.0)
#: (seed, checkpoint_interval) of the churn pins; ``None`` keeps the file's
PINS = ((238, None), (42, 0), (107, None), (180, 0), (36, 0), (83, 16),
        (1326, 0), (1392, 16))
SWEEP_SEEDS = (*range(200), *range(1200, 1400))
SWEEP_INTERVALS = (0, 16)

Cell = Callable[[], ChaosReport]


def churn_cell(seed: int, interval) -> Cell:
    changes = dict(seed=seed)
    if interval is not None:
        changes["checkpoint_interval"] = interval
    changes.update(CHURN_PIN)
    return lambda: run_chaos_soak(soak_spec(CHURN_SOAK, **changes),
                                  messages=24)


def churn_name(seed: int, interval) -> str:
    if interval is None:
        interval = CHURN_SOAK.protocol.checkpoint_interval
    return f"{seed}@{interval}"


def cells(sweep_seeds: Iterable[int] = ()) -> Dict[str, Cell]:
    """Every cell to run, by name, in run order (a name runs once)."""
    chosen: Dict[str, Cell] = {}
    for path in sorted(SCENARIOS.glob("soak_*.json")):
        spec = ScenarioSpec.load(path)
        chosen[path.stem] = lambda spec=spec: run_chaos_soak(spec)
    heavy = soak_spec(ScenarioSpec.load(SCENARIOS / "soak_retention.json"),
                      **HEAVY)
    chosen["soak_retention_heavy"] = lambda: run_chaos_soak(heavy)
    for seed, interval in PINS:
        chosen[churn_name(seed, interval)] = churn_cell(seed, interval)
    for seed in sweep_seeds:
        for interval in SWEEP_INTERVALS:
            chosen.setdefault(churn_name(seed, interval),
                              churn_cell(seed, interval))
    return chosen


def run(chosen: Dict[str, Cell], expected: Set[str]) -> int:
    """Print the digest lines; the exit status described above."""
    combined = hashlib.sha256()
    failing = []
    for name, cell in chosen.items():
        report = cell()
        line = (f"{hashlib.sha256(repr(report).encode()).hexdigest()[:16]}  "
                f"{'ok  ' if report.ok else 'FAIL'}  {name}")
        print(line, flush=True)
        combined.update(line.encode() + b"\n")
        if not report.ok:
            failing.append(name)
    unexpected = [name for name in failing if name not in expected]
    passing = sorted(expected & set(chosen) - set(failing))
    print(f"{combined.hexdigest()[:16]}  combined over {len(chosen)} cells, "
          f"failing: {', '.join(failing) or 'none'}")
    if unexpected:
        print(f"unexpected failures: {', '.join(unexpected)}")
    if passing:
        print(f"expected to fail but passed: {', '.join(passing)}")
    return 1 if unexpected or passing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--sweep", action="store_true",
                        help="add the churn seed sweep")
    parser.add_argument("--expect-failing", default="",
                        help="comma-separated cells expected to fail")
    args = parser.parse_args(argv)
    expected = {name for name in args.expect_failing.split(",") if name}
    return run(cells(SWEEP_SEEDS if args.sweep else ()), expected)


if __name__ == "__main__":
    sys.exit(main())
