#!/usr/bin/env python3
"""Chaos soak: randomized faults, checked invariants, seeded reproduction.

Expands a seed into a nemesis schedule (crashes + recoveries, victim
partitions + heals, drop/duplicate/corrupt bursts, leader slowdowns, link
flapping, one Byzantine replica), applies it to a two-level deployment
whose transport is wrapped in a :class:`~repro.env.chaos.ChaosTransport`,
and drives a mixed local/global workload through the storm.  At the end
the harness asserts liveness plus all five §II-B invariants and prints a
post-mortem.

The same seed reproduces the same fault timeline on both execution
backends; under the simulator the entire run is bit-identical.  Change
``SEED`` below (or pass one on the command line) to roll new weather.

Run:  python examples/chaos_soak.py [seed]
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.runtime.chaos import DEFAULT_SOAK, run_chaos_soak

SEED = 7


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else SEED
    # the default soak (two groups, medium chaos) with an 8 s nemesis horizon
    spec = replace(DEFAULT_SOAK, seed=seed,
                   workload=replace(DEFAULT_SOAK.workload, duration=8.0))

    report = run_chaos_soak(spec, messages=48)

    print("nemesis timeline")
    print("----------------")
    print(report.schedule)
    print()
    print(report.summary())
    if not report.ok:
        print(f"\nreproduce with: python examples/chaos_soak.py {seed}")
        raise SystemExit(2)

    # The same seed on the real-time backend expands to the same schedule
    # (the run itself is subject to wall-clock scheduling, so only the sim
    # is bit-reproducible).
    rt = run_chaos_soak(
        replace(spec, backend="rt",
                workload=replace(spec.workload, duration=3.0)), messages=24)
    print()
    print(rt.summary())
    raise SystemExit(0 if rt.ok else 2)


if __name__ == "__main__":
    main()
