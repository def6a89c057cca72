"""Everything also works with f = 2 (7-replica groups)."""

from __future__ import annotations

import pytest

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.faults.behaviors import SilentRelayApp
from repro.types import destination
from tests.faults.test_byzantine import (
    ACK_ADVERSARIES, RELAY_ADVERSARIES, ack_battery, certificate_battery,
    forged_origin_battery, quorum_relay_battery, quorum_silent_battery,
    relay_battery,
)
from tests.helpers import FAST_COSTS, Harness, make_config


def test_broadcast_with_f2_and_two_crashes():
    h = Harness(config=make_config("g1", f=2))
    assert h.config.n == 7 and h.config.quorum == 5
    client = h.add_client()
    # Crash two followers — the maximum tolerated.
    h.group.replicas[5].crash()
    h.group.replicas[6].crash()
    for j in range(10):
        client.submit(("op", j))
    h.run(until=10.0)
    assert len(client.results) == 10
    sequences = [r.app.executed for r in h.group.correct_replicas()]
    assert all(seq == sequences[0] for seq in sequences)


def test_broadcast_with_f2_leader_crash():
    h = Harness(config=make_config("g1", f=2))
    client = h.add_client()
    h.group.replicas[0].crash()  # the regency-0 leader
    client.submit(("x",))
    h.run(until=20.0)
    assert client.results == [("ok", ("x",))]


def test_byzcast_with_f2_groups():
    tree = OverlayTree.two_level(["g1", "g2"])
    dep = ByzCastDeployment(tree, f=2, costs=FAST_COSTS, request_timeout=0.5)
    client = dep.add_client("c1")
    client.amulticast(destination("g1"), payload=("local",))
    client.amulticast(destination("g1", "g2"), payload=("global",))
    dep.run(until=10.0)
    assert client.pending() == 0
    for gid in ("g1", "g2"):
        for app in dep.apps(gid):
            assert ("global",) in [m.payload for m in app.delivered_messages()]
    # Relay confirmation now needs f+1 = 3 distinct parents.
    assert dep.apps("g1")[0]._inboxes["h1"].threshold == 3


def test_byzcast_f2_with_two_silent_relays():
    """Up to f=2 silent relayers in the root cannot block delivery."""
    tree = OverlayTree.two_level(["g1", "g2"])
    dep = ByzCastDeployment(
        tree, f=2, costs=FAST_COSTS, request_timeout=0.5,
        app_overrides={"h1": {"h1/r0": SilentRelayApp,
                              "h1/r1": SilentRelayApp}},
    )
    client = dep.add_client("c1")
    for j in range(5):
        client.amulticast(destination("g1", "g2"), payload=("m", j))
    dep.run(until=10.0)
    assert client.pending() == 0
    for gid in ("g1", "g2"):
        order = [m.payload for m in dep.delivered_sequences(gid)[0]]
        assert order == [("m", j) for j in range(5)]


@pytest.mark.parametrize("adversary", RELAY_ADVERSARIES,
                         ids=lambda cls: cls.__name__)
def test_relay_battery_with_two_adversaries_per_inner_group(adversary):
    relay_battery(adversary, f=2)


def test_two_certificate_forging_leaders_per_child_group():
    certificate_battery(f=2)


@pytest.mark.parametrize("adversary", ACK_ADVERSARIES,
                         ids=lambda cls: cls.__name__)
def test_two_ack_adversaries_per_child_group_on_a_lossy_link(adversary):
    ack_battery(adversary, f=2)


def test_two_silent_quorum_members_per_group_cost_no_timeout():
    quorum_silent_battery(f=2)


def test_two_silent_relayers_in_each_quorum_cost_no_retransmission():
    quorum_relay_battery(f=2)


def test_forged_origins_are_refused_by_every_entry_replica_at_f2():
    forged_origin_battery(f=2)


def test_mixed_f_per_group():
    """Per-group ``specs`` allow different fault thresholds per group."""
    tree = OverlayTree.two_level(["g1", "g2"])
    dep = ByzCastDeployment(
        tree,
        costs=FAST_COSTS,
        request_timeout=0.5,
        specs={"h1": {"f": 2}},
    )
    assert dep.group_configs["h1"].n == 7
    assert dep.group_configs["g1"].n == 4
    client = dep.add_client("c1")
    client.amulticast(destination("g1", "g2"), payload=("x",))
    dep.run(until=10.0)
    assert client.pending() == 0
    for gid in ("g1", "g2"):
        assert [m.payload for m in dep.delivered_sequences(gid)[0]] == [("x",)]
