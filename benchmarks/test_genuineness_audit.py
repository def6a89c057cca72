"""Structural audit — partial genuineness (§III-B) measured on a real run.

Not a paper figure, but the paper's central structural claim: local
messages involve only their destination group, and global messages involve
exactly the groups on the tree paths from the lca — ``P(T, d)``.  The
audit also quantifies the resource argument of §I (genuine protocols save
work) by comparing groups-touched-per-message against the Baseline.
"""

from __future__ import annotations

from conftest import record
from repro.baseline.naive import BaselineDeployment
from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.runtime.environments import bench_costs
from repro.runtime.genuineness import audit_genuineness
from repro.types import destination
from repro.workload.spec import local_uniform, mixed_ratio, uniform_pairs

TARGETS = ["g1", "g2", "g3", "g4"]


def run_mixed(deployment_cls, **kwargs):
    import random

    deployment = deployment_cls(**kwargs)
    client = deployment.add_client("c1")
    sampler = mixed_ratio(local_uniform(TARGETS), uniform_pairs(TARGETS))
    rng = random.Random(7)
    for __ in range(60):
        client.amulticast(sampler(rng), payload=("x",))
    deployment.run(until=30.0)
    assert client.pending() == 0
    return deployment


def test_genuineness_audit(run_scenario, benchmark):
    def run_both():
        byz = run_mixed(
            ByzCastDeployment,
            tree=OverlayTree.paper_tree(),
            costs=bench_costs(),
            trace_capacity=500_000,
        )
        base = run_mixed(
            BaselineDeployment,
            targets=TARGETS,
            costs=bench_costs(),
            trace_capacity=500_000,
        )
        return (
            audit_genuineness(byz.monitor, byz.tree),
            audit_genuineness(base.monitor, base.tree),
        )

    byz_report, base_report = run_scenario(run_both)
    record(benchmark,
           byz_local_genuine=round(byz_report.local_genuine_fraction, 3),
           byz_groups_per_local=round(byz_report.mean_groups_involved(local=True), 2),
           base_groups_per_local=round(base_report.mean_groups_involved(local=True), 2),
           byz_prediction_match=round(byz_report.prediction_match_fraction, 3))

    # Every ByzCast local message involved only its destination group.
    assert byz_report.local_genuine_fraction == 1.0
    assert byz_report.mean_groups_involved(local=True) == 1.0
    # Participation never exceeds P(T, d).
    assert byz_report.violations() == []
    assert byz_report.prediction_match_fraction == 1.0
    # The Baseline drags every local message through the sequencer.
    assert base_report.local_genuine_fraction == 0.0
    assert base_report.mean_groups_involved(local=True) >= 2.0
