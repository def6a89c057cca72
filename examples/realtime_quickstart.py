#!/usr/bin/env python3
"""The same ByzCast deployment on both execution backends.

Runs an identical workload — a 2-level tree, 30 mixed local/global
multicasts from one closed-loop client — first on the deterministic
simulation backend (virtual time, calibrated CPU costs), then on the
real-time asyncio backend (wall-clock timers, messages through the asyncio
ready queue).  The protocol stack is byte-for-byte the same code; only the
``runtime=`` argument changes.

Run:  python examples/realtime_quickstart.py
"""

from __future__ import annotations

import time

from repro import ByzCastDeployment, OverlayTree, destination
from repro.core.invariants import check_all
from repro.env import make_runtime

TOTAL = 30
DESTS = [("g1",), ("g2",), ("g1", "g2")]


def run_workload(backend: str) -> None:
    runtime = make_runtime(backend, seed=7)
    tree = OverlayTree.two_level(["g1", "g2"])
    deployment = ByzCastDeployment(tree, runtime=runtime)

    sent = []
    completed = []
    client = deployment.add_client("c1")

    def send_next() -> None:
        index = len(sent)
        dst = DESTS[index % len(DESTS)]
        sent.append(client.amulticast(destination(*dst),
                                      payload=("tx", index), callback=on_done))

    def on_done(message, latency, results) -> None:
        completed.append((message, latency))
        if len(sent) < TOTAL:
            send_next()
        elif len(completed) == TOTAL:
            runtime.clock.schedule(0.05, runtime.stop)

    runtime.clock.schedule(0.0, send_next)
    deployment.start()
    wall_start = time.perf_counter()
    deployment.run(until=20.0)
    wall = time.perf_counter() - wall_start

    latencies = sorted(latency for _, latency in completed)
    median = latencies[len(latencies) // 2] if latencies else float("nan")
    sequences = {g: deployment.delivered_sequences(g) for g in ("g1", "g2")}
    violations = check_all(sequences, [m for m, _ in completed], quiescent=True)
    kind = "virtual" if runtime.deterministic else "wall-clock"
    print(f"[{backend:>7}] {len(completed)}/{TOTAL} confirmed, "
          f"median latency {median * 1000:.2f} ms ({kind}), "
          f"took {wall:.2f}s of real time, "
          f"invariants: {'OK' if not violations else violations}")
    runtime.close()


def main() -> None:
    run_workload("sim")
    run_workload("rt")


if __name__ == "__main__":
    main()
