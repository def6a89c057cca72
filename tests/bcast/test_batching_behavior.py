"""Batching behaviour: bursts coalesce into few consensus instances."""

from __future__ import annotations

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS, Harness, make_config


def consensus_rounds(replica) -> int:
    return replica.log.next_execute


def test_burst_batches_into_few_rounds():
    h = Harness()
    client = h.add_client()
    for j in range(200):
        client.submit(("op", j))
    h.run(until=5.0)
    assert len(client.results) == 200
    rounds = consensus_rounds(h.group.replicas[0])
    assert rounds < 60  # far fewer instances than requests


def test_max_batch_caps_round_size():
    h = Harness(config=make_config("g1", max_batch=10))
    client = h.add_client()
    for j in range(100):
        client.submit(("op", j))
    h.run(until=5.0)
    assert len(client.results) == 100
    rounds = consensus_rounds(h.group.replicas[0])
    assert rounds >= 10  # at most 10 requests per instance


def test_a_relayed_batch_is_one_child_instance_at_any_batch_size():
    """The 3f+1 relayed copies of one global message are votes, not
    requests: the child group orders the one certificate they make, in a
    single consensus instance, whatever its ``max_batch``."""
    tree = OverlayTree.two_level(["g1", "g2"])

    def child_rounds(**engine) -> int:
        dep = ByzCastDeployment(tree, costs=FAST_COSTS, request_timeout=0.5,
                                **engine)
        client = dep.add_client("c1")
        client.amulticast(destination("g1", "g2"), payload=("m",))
        dep.run(until=5.0)
        assert client.pending() == 0
        return consensus_rounds(dep.groups["g1"].replicas[0])

    assert child_rounds() == 1
    assert child_rounds(max_batch=1) == 1
