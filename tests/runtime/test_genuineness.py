"""Empirical verification of partial genuineness (§III-B)."""

from __future__ import annotations

from repro.baseline.naive import BaselineDeployment
from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.runtime.genuineness import audit_genuineness, format_report
from repro.types import destination
from tests.helpers import FAST_COSTS


def run_workload(tree=None):
    tree = tree if tree is not None else OverlayTree.paper_tree()
    dep = ByzCastDeployment(tree, costs=FAST_COSTS, trace_capacity=50000)
    client = dep.add_client("c1")
    client.amulticast(destination("g1"), payload=("l1",))
    client.amulticast(destination("g4"), payload=("l2",))
    client.amulticast(destination("g1", "g2"), payload=("g1g2",))
    client.amulticast(destination("g2", "g3"), payload=("g2g3",))
    dep.run(until=5.0)
    assert client.pending() == 0
    return dep, tree


def test_local_messages_are_genuine():
    dep, tree = run_workload()
    report = audit_genuineness(dep.monitor, tree)
    assert report.local_genuine_fraction == 1.0
    local_audits = [a for a in report.audits if a.is_local]
    assert len(local_audits) == 2
    for audit in local_audits:
        assert audit.involved == audit.destinations


def test_global_messages_involve_exactly_the_predicted_groups():
    dep, tree = run_workload()
    report = audit_genuineness(dep.monitor, tree)
    assert report.prediction_match_fraction == 1.0
    assert report.violations() == []
    by_payload = {a.seq: a for a in report.audits}
    # {g1,g2}: lca = h2 — involves h2, g1, g2 (not the root!).
    g1g2 = by_payload[3]
    assert g1g2.involved == {"h2", "g1", "g2"}
    # {g2,g3}: lca = h1 — involves the whole path.
    g2g3 = by_payload[4]
    assert g2g3.involved == {"h1", "h2", "h3", "g2", "g3"}


def test_baseline_is_not_genuine():
    dep = BaselineDeployment(["g1", "g2", "g3", "g4"], costs=FAST_COSTS,
                             trace_capacity=50000)
    client = dep.add_client("c1")
    client.amulticast(destination("g1"), payload=("local",))
    dep.run(until=5.0)
    assert client.pending() == 0
    report = audit_genuineness(dep.monitor, dep.tree)
    # Even the local message went through the sequencer.
    assert report.local_genuine_fraction == 0.0
    audit = report.audits[0]
    assert "h1" in audit.involved


def test_work_ratio_byzcast_below_baseline():
    byz_dep, tree = run_workload(OverlayTree.two_level(
        ["g1", "g2", "g3", "g4"]))
    byz_report = audit_genuineness(byz_dep.monitor, tree)

    base_dep = BaselineDeployment(["g1", "g2", "g3", "g4"], costs=FAST_COSTS,
                                  trace_capacity=50000)
    client = base_dep.add_client("c1")
    client.amulticast(destination("g1"), payload=("l1",))
    client.amulticast(destination("g4"), payload=("l2",))
    client.amulticast(destination("g1", "g2"), payload=("g1g2",))
    client.amulticast(destination("g2", "g3"), payload=("g2g3",))
    base_dep.run(until=5.0)
    assert client.pending() == 0
    base_report = audit_genuineness(base_dep.monitor, base_dep.tree)

    assert (byz_report.mean_groups_involved(local=True)
            < base_report.mean_groups_involved(local=True))


def test_format_report_renders():
    dep, tree = run_workload()
    text = format_report(audit_genuineness(dep.monitor, tree))
    assert "local messages genuine" in text
    assert "100.0%" in text
