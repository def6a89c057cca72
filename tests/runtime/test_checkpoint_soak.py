"""Acceptance: chaos soaks with checkpointing keep replica memory bounded.

With ``checkpoint_interval > 0`` the soak harness asserts the retention
bound from docs/CHECKPOINTS.md — no replica may ever hold more than
``2 × interval`` executed batches — while crashes, partitions and
corruption storms force replicas to catch up.  The quick soaks run in
tier 1; the full 20k-multicast scenario (the issue's acceptance bar) is
gated behind ``RUN_SOAK=1`` because it takes minutes of wall time:

    RUN_SOAK=1 PYTHONPATH=src pytest tests/runtime/test_checkpoint_soak.py
"""

from __future__ import annotations

import os

import pytest

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.runtime.chaos import run_chaos_soak
from repro.runtime.environments import soak_costs
from repro.scenario import ScenarioSpec
from repro.types import destination
from tests.helpers import SCENARIOS, soak_spec


def test_quick_soak_retention_bounded():
    report = run_chaos_soak(
        ScenarioSpec.load(SCENARIOS / "soak_retention.json"), messages=300)
    assert report.ok, report.summary()
    assert report.retention_ok
    assert report.checkpoint_interval == 8
    assert report.checkpoints_taken > 0
    assert 0 < report.max_retained <= 2 * 8
    assert "mem" in report.summary()


def test_soak_without_checkpointing_reports_no_bound():
    report = run_chaos_soak(soak_spec(seed=7, duration=6.0, clients=2),
                            messages=40)
    assert report.ok, report.summary()
    assert report.checkpoint_interval == 0
    assert report.retention_ok          # vacuously: no bound configured
    assert report.checkpoints_taken == 0


@pytest.mark.skipif(not os.environ.get("RUN_SOAK"),
                    reason="long soak; set RUN_SOAK=1 to run")
def test_long_soak_20k_rejoin_via_checkpoint_bounded_memory():
    """The issue's acceptance soak: 20k multicasts with bounded retention
    while a removed replica rejoins via checkpoint transfer and reaches
    the same a-delivery sequence as its peers.

    One replica crashes early and stays down while thousands of consensus
    ids execute — far past every peer's truncation horizon — so its
    recovery *cannot* be served by suffix replay alone: it must install a
    digest-verified checkpoint.  (The chaos soaks above keep outages
    short; this scenario forces the install path at scale.)

    The interval is large because ByzCastApplication's state grows with
    the a-delivery history, so per-snapshot cost grows over the run —
    see "Tuning the interval" in docs/CHECKPOINTS.md.
    """
    interval = 128
    total = 20_000
    dep = ByzCastDeployment(
        OverlayTree.two_level(["g1", "g2"]),
        seed=11,
        costs=soak_costs(),
        checkpoint_interval=interval,
        request_timeout=0.5,
    )
    laggard = dep.groups["g1"].replicas[3]
    dests = [destination("g1"), destination("g2"),
             destination("g1", "g2"), destination("g1"), destination("g2")]
    clients = [dep.add_client(f"c{i}") for i in range(3)]
    state = {"issued": 0, "done": 0}

    def issue(client) -> None:
        if state["issued"] >= total:
            return
        index = state["issued"]
        state["issued"] += 1

        def completed(message, latency, results, c=client):
            state["done"] += 1
            if state["done"] == 1_000:
                laggard.crash()
            elif state["done"] == 15_000:
                laggard.recover()
            issue(c)

        client.amulticast(dst=dests[index % len(dests)],
                          payload=("soak", index), callback=completed)

    for client in clients:
        for __ in range(2):
            issue(client)
    deadline = 3_000.0
    while state["done"] < total and dep.runtime.clock.now < deadline:
        dep.run(until=dep.runtime.clock.now + 50.0)
    assert state["done"] == total
    # Trailing a-deliveries: clients confirm on f+1 replies, stragglers
    # (including the recovered laggard) need a few more timeouts to drain.
    dep.run(until=dep.runtime.clock.now + 10.0)

    # The outage spanned thousands of cids at interval 32: every peer
    # truncated far past the laggard's crash point, so the rejoin must
    # have gone through checkpoint install, not suffix replay.
    assert dep.monitor.counters["checkpoint.installed"] >= 1
    assert laggard.log.checkpoint is not None

    # Same a-delivery sequence on every replica, recovered one included.
    for gid in ("g1", "g2"):
        sequences = dep.delivered_sequences(gid)
        assert len(sequences[0]) > 0
        for seq in sequences[1:]:
            assert seq == sequences[0]

    # Bounded memory throughout, on all replicas of all groups.
    for gid, group in dep.groups.items():
        for replica in group.replicas:
            assert replica.log.max_retained <= 2 * interval, (
                gid, replica.name, replica.log.max_retained)
