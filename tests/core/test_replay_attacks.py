"""Replay attacks: re-submitted and re-relayed messages deliver at most once."""

from __future__ import annotations

from repro.core.deployment import ByzCastDeployment
from repro.core.messages import WireMulticast
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS


def make_deployment(**kwargs):
    kwargs.setdefault("costs", FAST_COSTS)
    kwargs.setdefault("request_timeout", 0.5)
    return ByzCastDeployment(OverlayTree.two_level(["g1", "g2", "g3", "g4"]),
                             **kwargs)


def test_client_replaying_its_own_wire_delivers_once():
    """A Byzantine client re-submits the same multicast through fresh
    broadcast sequence numbers; Integrity demands at-most-once delivery."""
    dep = make_deployment()
    client = dep.add_client("evil")
    wire = WireMulticast(sender="evil", seq=1, dst=("g1",), payload=("x",))
    proxy = client._proxy("g1")
    for __ in range(5):  # five distinct bcast requests, same wire
        proxy.submit(wire)
    dep.run(until=5.0)
    for sequence in dep.delivered_sequences("g1"):
        assert len(sequence) == 1


def test_replay_of_another_clients_wire_delivers_once():
    """A Byzantine client replays another client's wire (captured from the
    network) in a request it signs itself: refused as a foreign submission,
    so delivery is still once."""
    dep = make_deployment()
    honest = dep.add_client("honest")
    attacker = dep.add_client("attacker")
    honest.amulticast(destination("g2"), payload=("secret",))
    dep.run(until=2.0)
    # Capture-equivalent: rebuild the honest wire (it carries no signature,
    # so the attacker replays it verbatim).
    wire = WireMulticast(sender="honest", seq=1, dst=("g2",),
                         payload=("secret",))
    attacker._proxy("g2").submit(wire)
    dep.runtime.run(until=5.0)
    assert dep.monitor.counters["byzcast.foreign_submission"] == 4
    for sequence in dep.delivered_sequences("g2"):
        assert len(sequence) == 1


def test_replayed_global_message_delivers_once_everywhere():
    dep = make_deployment()
    client = dep.add_client("evil")
    wire = WireMulticast(sender="evil", seq=1, dst=("g1", "g3"), payload=("g",))
    proxy = client._proxy("h1")
    for __ in range(4):
        proxy.submit(wire)
    dep.run(until=5.0)
    for gid in ("g1", "g3"):
        for sequence in dep.delivered_sequences(gid):
            assert len(sequence) == 1


def test_distinct_seq_same_payload_is_a_new_message():
    """Two wires differing only in seq are two messages (both deliver)."""
    dep = make_deployment()
    client = dep.add_client("c1")
    client.amulticast(destination("g1"), payload=("same",))
    client.amulticast(destination("g1"), payload=("same",))
    dep.run(until=5.0)
    assert client.pending() == 0
    for sequence in dep.delivered_sequences("g1"):
        assert len(sequence) == 2
