"""WAN integration: geo-replicated deployment survives a region loss."""

from __future__ import annotations

import pytest

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.runtime.environments import (
    REGIONS,
    wan_latency_model,
    wan_site_assigner,
)
from repro.types import destination

TARGETS = ["g1", "g2", "g3", "g4"]


@pytest.fixture
def wan_deployment():
    tree = OverlayTree.two_level(TARGETS)
    return ByzCastDeployment(
        tree,
        latency=wan_latency_model(),
        sites=wan_site_assigner,
        request_timeout=3.0,
    )


def test_replicas_spread_over_regions(wan_deployment):
    dep = wan_deployment
    for gid in TARGETS + ["h1"]:
        sites = {dep.network.site_of(r.name) for r in dep.groups[gid].replicas}
        assert sites == set(REGIONS)


def test_wan_latency_dominated_by_rtt(wan_deployment):
    dep = wan_deployment
    client = dep.add_client("c", site="CA")
    client.amulticast(destination("g1"), payload=("x",))
    dep.run(until=10.0)
    assert client.pending() == 0
    __, latency = client.completions[0]
    # Consensus across four continents needs at least one long round trip.
    assert latency > 0.05
    assert latency < 2.0


def test_survives_loss_of_an_entire_region(wan_deployment):
    dep = wan_deployment
    client = dep.add_client("c", site="VA")
    client.amulticast(destination("g2"), payload=("warm",))
    dep.run(until=10.0)
    assert client.pending() == 0
    # Region JP disappears: one replica of every group.
    for group in dep.groups.values():
        for index, replica in enumerate(group.replicas):
            if wan_site_assigner(group.config.group_id, index) == "JP":
                replica.crash()
    client.amulticast(destination("g2", "g3"), payload=("after",))
    dep.run(until=60.0)
    assert client.pending() == 0
    for gid in ("g2", "g3"):
        survivors = [
            r.app for r in dep.groups[gid].replicas if not r.crashed
        ]
        assert all(
            ("after",) in [m.payload for m in app.delivered_messages()]
            for app in survivors
        )


def test_loss_of_leader_region_recovers(wan_deployment):
    """Losing the region that hosts every regency-0 leader (index 0 = CA)
    forces a coordinated leader change in every group."""
    dep = wan_deployment
    client = dep.add_client("c", site="EU")
    for group in dep.groups.values():
        group.replicas[0].crash()  # replica 0 of every group lives in CA
    client.amulticast(destination("g1"), payload=("x",))
    dep.run(until=60.0)
    assert client.pending() == 0
    g1 = dep.groups["g1"]
    assert all(r.regency.current >= 1 for r in g1.correct_replicas())
