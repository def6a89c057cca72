"""Determinism pin: the sim backend's trace is bit-identical per seed.

The fingerprint below was captured on the pre-``repro.env`` tree (the
protocol stack talking to ``repro.sim`` directly).  The refactored stack
must reproduce it exactly — construction order, RNG stream draws, event
ordering and CPU accounting all feed into it, so any accidental behaviour
change in the abstraction layer shows up as a hash mismatch.

Re-pinned once for batched relays (one ``RelayBatch`` request per executed
batch and child instead of one request per message): 736 -> 612 records.
The whole difference is 144 fewer ``replica.executed`` records in the
three child groups (a relay copy's request now carries several wires) and
20 new ``byzcast.relay_batch`` records at the root; every other kind keeps
its count, and all 10 completions still arrive.

Re-pinned once more for natural batching (the leader cuts a batch after
the instance's fixed cost instead of after a batch timer): 612 -> 542
records.  Proposals halve (12 -> 6, decisions 48 -> 24): requests that
arrive while the leader pays an instance's fixed cost ride in it, so
fewer, fuller batches; 32 fewer ``replica.executed`` and 8 fewer
``byzcast.relay_batch`` records follow from fewer relayed batches.  All
10 completions still arrive, the last at 6.5 ms instead of 12.1 ms.

Re-pinned for one reply per replica (a local multicast's a-delivery
travels as its ordered reply, so its destination group sends no
``MulticastReply``): the 542 trace records and the 10 completions are
identical line for line; the only difference is the ``net.sent`` counter,
506 -> 490 (4 local multicasts x 4 replicas).

Re-pinned for confirming a relayed batch once (each relayed copy is pushed
into the quorum merge whole, and a confirmed batch's wires are admitted
once): 542 -> 374 records.  The whole difference is 168 fewer
``byzcast.executed_wire`` records (264 -> 96), one per admitted wire
instead of one per ordered copy of it; with those removed, the two traces
and counter lists are identical line for line, completions included.

Re-pinned for relay certificates (a child counts the relayed copies as
unordered votes and orders one certificate of f+1 of them per batch):
374 -> 338 records.  The whole count difference is 36 fewer
``replica.executed`` records (88 -> 52): each of the three relayed batches
executes once per child replica instead of once per copy (4 copies - 1
certificate, x 4 replicas, x 3 batches).  Every other kind and counter
keeps its count — the copies and their acks still travel — and all 10
completions still arrive; the six global ones 0.15-0.19 ms sooner (the last
at 6.373 ms instead of 6.52 ms), because the child executes one request
per batch instead of four.

Re-pinned for acks that tell the receiver something (a child acknowledges
each relay stream with one ``RelayAck`` of its next index per ack interval,
and an entry group that is not a destination answers only a
retransmission): the 338 trace records, their kinds and the 10 completions
are identical line for line; the only difference is the ``net.sent``
counter, 490 -> 466.  The six global multicasts enter at the root, which is
no destination: 24 entry acks fewer.  Each child replica acknowledges its
stream once, to the root's 4 replicas (48 ``RelayAck``), where it answered
each of the 4 copies of its batch (48 ``Reply ack``).

Re-pinned for sending to a quorum (requests and relay copies go to the
2f+1 replicas of the current regency's quorum, which alone reply live):
the 338 trace records are the same multiset, kinds and details alike; only
their interleaving moved, because a replica outside the quorum pays no
reply cost and executes sooner.  ``net.sent`` falls 466 -> 426: per group
and message one ``Request`` fewer (10), one relay copy fewer per root
replica and child (12), and one ``Reply`` or ``MulticastReply`` fewer per
group a-delivery (4 local + 14 relayed).  All 10 completions still arrive;
the six global ones 5 us sooner (the last at 6.368 ms instead of 6.373 ms).

Re-pinned for quorum writes and relays (the leader's PROPOSE is its WRITE,
and a relay copy leaves live only from the parent's current quorum): the
338 trace records keep their kinds and counts, and every counter but
``net.sent`` is unchanged.  ``net.sent`` falls 426 -> 399: 3 leader WRITEs
fewer in each of the 6 instances (18), and one keeper's 3 live copies
fewer for each of the 3 relayed batches (9).  All 10 completions still
arrive; the six global ones up to 84 us sooner (the last at 6.284 ms
instead of 6.368 ms).
"""

from __future__ import annotations

import hashlib

from repro.core import OverlayTree
from repro.core.deployment import ByzCastDeployment

GOLDEN_SHA256 = "8d2d444a5cdd6241173fd4f4a8448a5e2a30ca7026d64751b669d86ba63ec7f2"
GOLDEN_RECORDS = 338
GOLDEN_COMPLETIONS = 10


def _fingerprint() -> tuple:
    tree = OverlayTree.two_level(["g1", "g2", "g3"])
    # max_in_flight=1 pins the pre-pipeline proposal schedule: the golden
    # fingerprint predates pipelined consensus and depth 1 must reproduce
    # it byte-for-byte (docs/PIPELINE.md).
    dep = ByzCastDeployment(tree, seed=42, trace_capacity=20000, max_in_flight=1)
    completions = []
    client = dep.add_client(
        "c1", on_complete=lambda m, l: completions.append((m.mid.seq, round(l, 9)))
    )
    dests = [("g1",), ("g2",), ("g1", "g2"), ("g2", "g3"), ("g1", "g2", "g3")]
    for i in range(10):
        client.amulticast(dests[i % len(dests)], payload=("tx", i))
    dep.run(until=8.0)
    lines = [
        f"{r.time:.9f}|{r.component}|{r.kind}|{sorted(r.detail)}"
        for r in dep.monitor.trace
    ]
    lines += [f"{k}={v}" for k, v in sorted(dep.monitor.counters.items())]
    lines.append(f"completions={completions}")
    blob = "\n".join(lines).encode()
    return (
        hashlib.sha256(blob).hexdigest(),
        len(dep.monitor.trace),
        len(completions),
    )


def test_sim_backend_reproduces_pre_refactor_trace():
    digest, records, completions = _fingerprint()
    assert completions == GOLDEN_COMPLETIONS
    assert records == GOLDEN_RECORDS
    assert digest == GOLDEN_SHA256


def test_sim_backend_runs_are_identical():
    assert _fingerprint() == _fingerprint()
