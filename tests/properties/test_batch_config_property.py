"""Property: every batch configuration preserves FIFO + atomic multicast.

Natural batching and the ``max_batch`` cap may only reshape *when* requests
get batched — never what is delivered, in what relative order, or how
often.  This sweeps randomized batch caps and pipeline depths (including
the degenerate ``max_batch=1`` corner) over a two-group ByzCast deployment
and re-checks the per-sender FIFO property plus all five atomic-multicast
invariants (agreement, integrity, validity, prefix order, acyclic order).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import OverlayTree
from repro.core.deployment import ByzCastDeployment
from repro.core.invariants import check_all
from repro.types import destination

from tests.helpers import FAST_COSTS

TARGETS = ("g1", "g2")


@st.composite
def batch_configs(draw):
    return {
        "max_batch": draw(st.integers(min_value=1, max_value=64)),
        "max_in_flight": draw(st.integers(min_value=1, max_value=4)),
        "seed": draw(st.integers(min_value=0, max_value=2000)),
        "n_clients": draw(st.integers(min_value=1, max_value=3)),
        "messages": draw(st.integers(min_value=2, max_value=10)),
    }


@given(batch_configs())
@settings(max_examples=20, deadline=None)
def test_fifo_and_invariants_across_batch_configs(case):
    tree = OverlayTree.two_level(list(TARGETS))
    dep = ByzCastDeployment(
        tree,
        seed=case["seed"],
        costs=FAST_COSTS,
        max_batch=case["max_batch"],
        max_in_flight=case["max_in_flight"],
    )
    clients = [dep.add_client(f"c{i}") for i in range(case["n_clients"])]
    dests = [destination("g1"), destination("g2"), destination("g1", "g2")]
    for client in clients:
        for j in range(case["messages"]):
            client.amulticast(dests[j % len(dests)], payload=(client.name, j))
    dep.run(until=30.0)

    # Completeness: the batching knobs must not lose or wedge anything.
    for client in clients:
        assert client.pending() == 0
        assert len(client.completions) == case["messages"]

    sent = [m for client in clients for m, __ in client.completions]
    sequences = {g: dep.delivered_sequences(g) for g in TARGETS}
    assert check_all(sequences, sent, quiescent=True) == []

    # Per-sender FIFO at each group: a client's messages with the *same*
    # destination set follow one path through the tree and must appear in
    # submission (sequence-number) order.  (Messages on different paths —
    # e.g. a local one direct to g1 vs a global one via the root — may
    # legitimately overtake each other; ByzCast orders those pairwise only
    # where groups observe both, which check_all already verified.)
    for group in TARGETS:
        reference = sequences[group][0]
        for client in clients:
            per_path = {}
            for m in reference:
                if m.mid.sender == client.name:
                    per_path.setdefault(m.dst, []).append(m.mid.seq)
            for seqs in per_path.values():
                assert seqs == sorted(seqs)
