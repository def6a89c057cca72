"""Functional tests of the comparison protocols."""

from __future__ import annotations

from repro.baseline.naive import BaselineDeployment
from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS

TARGETS = ["g1", "g2", "g3", "g4"]


def make_baseline(**kwargs) -> BaselineDeployment:
    kwargs.setdefault("costs", FAST_COSTS)
    kwargs.setdefault("request_timeout", 0.5)
    return BaselineDeployment(TARGETS, **kwargs)


def test_single_group_orders_and_replies():
    """BFT-SMaRt, the single-group comparator, is ByzCast over g1 alone."""
    dep = ByzCastDeployment(OverlayTree({}, ("g1",)), costs=FAST_COSTS,
                            request_timeout=0.5)
    client = dep.add_client("c1")
    for j in range(10):
        client.amulticast(destination("g1"), payload=("op", j))
    dep.run(until=5.0)
    assert client.pending() == 0
    assert len(client.completions) == 10
    sequences = dep.delivered_sequences("g1")
    assert all(len(seq) == 10 for seq in sequences)
    payloads = [[m.payload for m in seq] for seq in sequences]
    assert all(p == payloads[0] for p in payloads)
    assert payloads[0] == [("op", j) for j in range(10)]


def test_baseline_local_message_goes_through_aux():
    dep = make_baseline()
    client = dep.add_client("c1")
    client.amulticast(destination("g2"), payload=("local",))
    dep.run(until=5.0)
    assert client.pending() == 0
    for replica_deliveries in dep.delivered_sequences("g2"):
        assert [m.payload for m in replica_deliveries] == [("local",)]
    for gid in ("g1", "g3", "g4"):
        for replica_deliveries in dep.delivered_sequences(gid):
            assert replica_deliveries == []
    # The message was ordered (and relayed) by the sequencer group.
    for replica in dep.aux_group.replicas:
        assert replica.log.executed_count >= 1


def test_baseline_global_message_delivered_everywhere():
    dep = make_baseline()
    client = dep.add_client("c1")
    client.amulticast(destination("g1", "g3", "g4"), payload=("wide",))
    dep.run(until=5.0)
    assert client.pending() == 0
    for gid in ("g1", "g3", "g4"):
        for replica_deliveries in dep.delivered_sequences(gid):
            assert [m.payload for m in replica_deliveries] == [("wide",)]
    for replica_deliveries in dep.delivered_sequences("g2"):
        assert replica_deliveries == []


def test_baseline_total_order_across_groups():
    """The sequencer induces one global order seen identically everywhere."""
    dep = make_baseline()
    clients = [dep.add_client(f"c{i}") for i in range(4)]
    for client in clients:
        for j in range(10):
            client.amulticast(destination("g1", "g2"), payload=(client.name, j))
    dep.run(until=10.0)
    for client in clients:
        assert client.pending() == 0
    g1 = dep.delivered_sequences("g1")
    g2 = dep.delivered_sequences("g2")
    order = [m.payload for m in g1[0]]
    assert len(order) == 40
    for seq in g1 + g2:
        assert [m.payload for m in seq] == order


def test_baseline_mixed_local_and_global_consistency():
    dep = make_baseline()
    client = dep.add_client("c1")
    client.amulticast(destination("g1"), payload=("a",))
    client.amulticast(destination("g1", "g2"), payload=("b",))
    client.amulticast(destination("g2"), payload=("c",))
    dep.run(until=5.0)
    assert client.pending() == 0
    for seq in dep.delivered_sequences("g1"):
        assert [m.payload for m in seq] == [("a",), ("b",)]
    for seq in dep.delivered_sequences("g2"):
        assert [m.payload for m in seq] == [("b",), ("c",)]


def test_baseline_crashed_aux_follower_does_not_block():
    dep = make_baseline()
    dep.aux_group.replicas[3].crash()
    client = dep.add_client("c1")
    client.amulticast(destination("g1"), payload=("x",))
    dep.run(until=5.0)
    assert client.pending() == 0


def test_baseline_spawns_standbys_and_takes_client_timeouts():
    """Regression: the Baseline's own ``_make_app`` / ``add_client`` lacked the
    ``group_configs`` a standby spawn and the timeout ``build_drivers`` passes."""
    from repro.faults.injector import schedule_ops
    from repro.faults.nemesis import NemesisOp

    dep = make_baseline()
    client = dep.add_client("c1", retransmit_timeout=0.5)
    assert client.retransmit_timeout == 0.5
    schedule_ops(dep, [NemesisOp(0.5, "join", ("g1",), until=0.5)])
    client.amulticast(destination("g1", "g2"), payload=("before",))
    dep.run(until=5.0)
    client.amulticast(destination("g1"), payload=("after",))
    dep.run(until=10.0)
    joiner = dep.groups["g1"].replica("g1/r4")
    assert joiner.active and joiner.app.accept_any_ancestor
    assert [m.payload for m in joiner.app.delivered_messages()] == [
        ("before",), ("after",)]
