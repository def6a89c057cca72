"""The convoy effect (§V-G): ByzCast local messages do not queue behind
global ones; Baseline messages all share the sequencer's queue."""

from __future__ import annotations

from repro.baseline.naive import BaselineDeployment
from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS

TARGETS = ["g1", "g2", "g3", "g4"]


def burst_then_local(deployment, client):
    """Submit a burst of global messages, then one local message; returns
    (local_latency, mean_global_latency)."""
    for j in range(40):
        client.amulticast(destination("g3", "g4"), payload=("global", j))
    local_latency = []
    client.amulticast(
        destination("g1"), payload=("local",),
        callback=lambda m, lat, results: local_latency.append(lat))
    deployment.run(until=10.0)
    assert client.pending() == 0
    globals_ = [lat for m, lat in client.completions if m.is_global]
    return local_latency[0], sum(globals_) / len(globals_)


def test_byzcast_local_skips_the_global_queue():
    tree = OverlayTree.two_level(TARGETS)
    dep = ByzCastDeployment(tree, costs=FAST_COSTS, request_timeout=0.5)
    client = dep.add_client("c1")
    local, global_mean = burst_then_local(dep, client)
    # The local message goes straight to g1 — untouched by the burst
    # saturating h1/g3/g4 — so it is much faster than the global mean.
    assert local < 0.5 * global_mean


def test_baseline_local_stuck_behind_the_burst():
    dep = BaselineDeployment(TARGETS, costs=FAST_COSTS, request_timeout=0.5)
    client = dep.add_client("c1")
    local, global_mean = burst_then_local(dep, client)
    # Everything shares the sequencer: the local message, submitted last,
    # waits for the burst (it cannot be far faster than the global mean).
    assert local > 0.5 * global_mean
