"""Deep overlay trees: multi-hop relays stay correct."""

from __future__ import annotations

from repro.core.deployment import ByzCastDeployment
from repro.core.invariants import check_all
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS


def four_level_tree() -> OverlayTree:
    """h1 -> {h2 -> {h3 -> {g1, g2}, g3}, g4}: height 4."""
    return OverlayTree(
        {"h2": "h1", "g4": "h1", "h3": "h2", "g3": "h2", "g1": "h3", "g2": "h3"},
        targets=["g1", "g2", "g3", "g4"],
    )


def test_structure():
    tree = four_level_tree()
    assert tree.height("h1") == 4
    assert tree.lca({"g1", "g2"}) == "h3"
    assert tree.lca({"g1", "g3"}) == "h2"
    assert tree.lca({"g1", "g4"}) == "h1"
    assert tree.involved_groups({"g1", "g4"}) == {
        "h1", "h2", "h3", "g1", "g4"
    }


def test_three_hop_relay_end_to_end():
    dep = ByzCastDeployment(four_level_tree(), costs=FAST_COSTS,
                            request_timeout=0.5)
    client = dep.add_client("c1")
    client.amulticast(destination("g1", "g4"), payload=("wide",))   # via h1
    client.amulticast(destination("g1", "g2"), payload=("deep",))   # via h3
    client.amulticast(destination("g3"), payload=("mid",))          # local
    dep.run(until=10.0)
    assert client.pending() == 0
    for gid, expected in (("g1", [("wide",), ("deep",)]),
                          ("g2", [("deep",)]),
                          ("g3", [("mid",)]),
                          ("g4", [("wide",)])):
        for seq in dep.delivered_sequences(gid):
            assert sorted(m.payload for m in seq) == sorted(expected), gid


def test_invariants_on_deep_tree_workload():
    tree = four_level_tree()
    dep = ByzCastDeployment(tree, costs=FAST_COSTS, request_timeout=0.5)
    clients = [dep.add_client(f"c{i}") for i in range(2)]
    dsts = [("g1",), ("g1", "g2"), ("g2", "g3"), ("g1", "g4"),
            ("g3", "g4"), ("g1", "g2", "g3", "g4")]
    for index, dst in enumerate(dsts * 2):
        clients[index % 2].amulticast(destination(*dst), payload=("m", index))
    dep.run(until=15.0)
    assert all(c.pending() == 0 for c in clients)
    sequences = {g: dep.delivered_sequences(g) for g in tree.targets}
    sent = [m for c in clients for m, __ in c.completions]
    assert check_all(sequences, sent, quiescent=True) == []


def test_deep_tree_latency_grows_with_entry_height():
    dep = ByzCastDeployment(four_level_tree(), costs=FAST_COSTS,
                            request_timeout=0.5)
    client = dep.add_client("c1")
    latencies = {}

    def record(name):
        return lambda m, lat, results: latencies.__setitem__(name, lat)

    client.amulticast(destination("g1"), payload=("a",), callback=record("local"))
    client.amulticast(destination("g1", "g2"), payload=("b",), callback=record("h3"))
    client.amulticast(destination("g1", "g4"), payload=("c",), callback=record("h1"))
    dep.run(until=10.0)
    assert client.pending() == 0
    # Entry height 1 < 2 hops < 3 hops.
    assert latencies["local"] < latencies["h3"] < latencies["h1"]
