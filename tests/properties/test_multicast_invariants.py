"""End-to-end property tests: atomic multicast invariants on random runs.

Each example builds a full ByzCast deployment on a random tree, multicasts
a random workload from several clients (with randomized seeds, so network
jitter interleavings differ), runs to quiescence, and checks every §II-B
property with the library's invariant checkers.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.deployment import ByzCastDeployment
from repro.core.invariants import check_all
from repro.core.tree import OverlayTree
from repro.faults.behaviors import SilentRelayApp
from repro.types import destination
from tests.helpers import FAST_COSTS

TREES = {
    "paper": OverlayTree.paper_tree,
    "flat": lambda: OverlayTree.two_level(["g1", "g2", "g3", "g4"]),
    "chain": lambda: OverlayTree(
        {"g2": "g1", "g3": "g1", "g4": "g3"}, ["g1", "g2", "g3", "g4"]
    ),
}
TARGETS = ["g1", "g2", "g3", "g4"]


@st.composite
def workloads(draw):
    tree_name = draw(st.sampled_from(sorted(TREES)))
    n_clients = draw(st.integers(min_value=1, max_value=3))
    messages = []
    for client in range(n_clients):
        count = draw(st.integers(min_value=1, max_value=6))
        for _ in range(count):
            size = draw(st.integers(min_value=1, max_value=3))
            dst = draw(
                st.lists(
                    st.sampled_from(TARGETS),
                    min_size=size, max_size=size, unique=True,
                )
            )
            messages.append((client, tuple(sorted(dst))))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return tree_name, n_clients, messages, seed


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_random_workload_satisfies_all_properties(workload):
    tree_name, n_clients, messages, seed = workload
    tree = TREES[tree_name]()
    dep = ByzCastDeployment(tree, costs=FAST_COSTS, seed=seed,
                            request_timeout=0.5)
    clients = [dep.add_client(f"c{i}") for i in range(n_clients)]
    sent = []
    for client_index, dst in messages:
        mid = clients[client_index].amulticast(
            destination(*dst), payload=("p", len(sent))
        )
        sent.append((mid, dst))
    dep.run(until=20.0)
    for client in clients:
        assert client.pending() == 0, "run did not quiesce"
    sequences = {gid: dep.delivered_sequences(gid) for gid in TARGETS}
    sent_messages = [
        message
        for client in clients
        for message, __ in client.completions
    ]
    violations = check_all(sequences, sent_messages, quiescent=True)
    assert violations == [], violations


@given(workloads(), st.sampled_from(["h1/r0", "h1/r3"]))
@settings(max_examples=10, deadline=None)
def test_random_workload_with_silent_relay_replica(workload, bad_replica):
    """One Byzantine (silently non-relaying) replica in the root group must
    not break any property."""
    tree_name, n_clients, messages, seed = workload
    if tree_name == "chain":
        return  # chain tree has no h1 group
    tree = TREES[tree_name]()
    dep = ByzCastDeployment(
        tree, costs=FAST_COSTS, seed=seed, request_timeout=0.5,
        app_overrides={"h1": {bad_replica: SilentRelayApp}},
    )
    clients = [dep.add_client(f"c{i}") for i in range(n_clients)]
    for client_index, dst in messages:
        clients[client_index].amulticast(destination(*dst), payload=("p",))
    dep.run(until=20.0)
    for client in clients:
        assert client.pending() == 0
    sequences = {gid: dep.delivered_sequences(gid) for gid in TARGETS}
    sent_messages = [
        message for client in clients for message, __ in client.completions
    ]
    violations = check_all(sequences, sent_messages, quiescent=True)
    assert violations == [], violations
