#!/usr/bin/env python3
"""Byzantine fault tolerance in action.

Runs the Fig. 1 deployment with one Byzantine replica in *every* group
(the maximum the 3f+1 configuration tolerates with f=1):

* the root group's regency-0 leader **equivocates** (sends conflicting
  proposals) — the group detects the stall and elects a new leader;
* another root replica relays **nothing** to child groups — the f+1
  quorum-merge at the children is satisfied by the correct relayers;
* one replica of h2 relays **fabricated** messages — they never gather
  f+1 confirmations and are discarded;
* one target-group replica **crashes** mid-run and later recovers via
  state transfer.

All messages are still delivered, in a consistent order, everywhere — the
library's invariant checkers verify every §II-B property at the end.

Run:  python examples/fault_tolerance_demo.py
"""

from __future__ import annotations

from repro import ByzCastDeployment, OverlayTree, destination
from repro.core.invariants import check_all
from repro.faults.behaviors import (
    EquivocatingLeaderReplica,
    FabricatingRelayApp,
    SilentRelayApp,
)
from repro.faults.injector import schedule_ops
from repro.faults.nemesis import NemesisOp


def main() -> None:
    tree = OverlayTree.paper_tree()
    # Byzantine code is construction-time: group -> replica -> class.
    deployment = ByzCastDeployment(
        tree,
        replica_classes={"h1": {"h1/r0": EquivocatingLeaderReplica}},
        app_overrides={"h1": {"h1/r1": SilentRelayApp},
                       "h2": {"h2/r0": FabricatingRelayApp}},
        request_timeout=0.5,
        trace_capacity=50000,
    )
    # Benign events are a timeline of ops on the runtime clock.
    schedule_ops(deployment, [
        NemesisOp(0.5, "crash", ("g4", "g4/r2"), until=4.0),
        NemesisOp(4.0, "recover", ("g4", "g4/r2"), until=4.0),
    ])

    clients = [deployment.add_client(f"c{i}") for i in range(3)]
    sent = []
    workload = [
        ("g1",), ("g2", "g3"), ("g3",), ("g1", "g2"), ("g3", "g4"),
        ("g4",), ("g1", "g4"), ("g2",), ("g2", "g3"), ("g1", "g2"),
    ]
    for index, dst in enumerate(workload):
        client = clients[index % len(clients)]
        client.amulticast(destination(*dst), payload=("op", index))
    deployment.run(until=30.0)

    pending = sum(c.pending() for c in clients)
    print(f"pending multicasts after run: {pending} (expected 0)")
    assert pending == 0

    stops = deployment.monitor.counters.get("regency.stop", 0)
    installed = deployment.monitor.counters.get("regency.installed", 0)
    print(f"regency changes at h1: {installed > 0} "
          f"({stops} STOP votes, {installed} installs)")
    fabricated = deployment.monitor.counters.get("byzantine.fabricated_relay", 0)
    print(f"fabricated relays injected by h2/r0: {fabricated} "
          "(none were ever a-delivered)")

    sequences = {g: deployment.delivered_sequences(g) for g in tree.targets}
    # Exclude the crashed-then-recovered replica window: after recovery it
    # converged, so include it and let agreement verify that too.
    sent_messages = [m for c in clients for m, __ in c.completions]
    violations = check_all(sequences, sent_messages, quiescent=True)
    print(f"invariant violations: {violations or 'none'}")
    assert not violations

    for group in sorted(tree.targets):
        order = [m.payload[1] for m in sequences[group][0]]
        print(f"  {group} delivery order: {order}")
    print("OK: agreement, integrity, validity, prefix and acyclic order all "
          "hold despite one Byzantine replica per group.")


if __name__ == "__main__":
    main()
