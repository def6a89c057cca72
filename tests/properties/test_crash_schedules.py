"""Property: atomic multicast invariants survive random crash/recover schedules."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.deployment import ByzCastDeployment
from repro.core.invariants import check_acyclic_order, check_agreement, check_integrity, check_prefix_order
from repro.core.tree import OverlayTree
from repro.faults.injector import schedule_ops
from repro.faults.nemesis import NemesisOp
from repro.types import destination
from tests.helpers import FAST_COSTS

GROUPS = ("h1", "g1", "g2")
TARGETS = ["g1", "g2"]


@st.composite
def crash_plans(draw):
    """Up to one crash (+ optional recovery) per group, f=1 respected."""
    plans = []
    for group in GROUPS:
        if draw(st.booleans()):
            replica_index = draw(st.integers(min_value=0, max_value=3))
            crash_at = draw(st.floats(min_value=0.01, max_value=1.0))
            recover_at = None
            if draw(st.booleans()):
                recover_at = crash_at + draw(st.floats(min_value=0.5, max_value=2.0))
            plans.append((group, replica_index, crash_at, recover_at))
    messages = draw(st.lists(
        st.sampled_from([("g1",), ("g2",), ("g1", "g2")]),
        min_size=2, max_size=8,
    ))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return plans, messages, seed


@given(crash_plans())
@settings(max_examples=15, deadline=None)
def test_invariants_hold_under_crash_schedules(case):
    plans, messages, seed = case
    tree = OverlayTree.two_level(TARGETS)
    dep = ByzCastDeployment(tree, costs=FAST_COSTS, seed=seed,
                            request_timeout=0.4)
    ops = []
    for group, replica_index, crash_at, recover_at in plans:
        target = (group, f"{group}/r{replica_index}")
        end = crash_at if recover_at is None else recover_at
        ops.append(NemesisOp(crash_at, "crash", target, until=end))
        if recover_at is not None:
            ops.append(NemesisOp(recover_at, "recover", target, until=end))
    schedule_ops(dep, ops)
    client = dep.add_client("c1")
    for index, dst in enumerate(messages):
        client.amulticast(destination(*dst), payload=("m", index))
    dep.run(until=30.0)
    # With at most one fault per group (f=1), everything must complete.
    assert client.pending() == 0

    # Safety checks over the correct (non-crashed) replicas only.
    sequences = {}
    for gid in TARGETS:
        group = dep.groups[gid]
        sequences[gid] = [
            replica.app.delivered_messages()
            for replica in group.replicas if not replica.crashed
        ]
    sent = [message for message, __ in client.completions]
    assert check_agreement(sequences) == []
    assert check_integrity(sequences, sent) == []
    assert check_prefix_order(sequences) == []
    assert check_acyclic_order(sequences) == []
