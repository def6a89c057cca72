"""Genuineness accounting: which groups participate in each multicast?

The paper's central structural claim (§III-B) is that ByzCast is
*partially genuine*: a message addressed to a single group involves only
its sender and the destination group, while a global message additionally
involves the groups on the tree paths from ``lca(m.dst)`` to the
destinations — and nothing else.

This module audits that claim on recorded runs.  Enable tracing on the
deployment, run a workload, and :func:`audit_genuineness` reports, per
message, the set of groups whose replicas ordered it (entry, relay or
delivery), compared against the prediction ``P(T, m.dst)`` from the tree.

It also quantifies the resource-saving argument: the *work ratio* — groups
touched per delivered message — which the Baseline protocol inflates by
dragging every message through the sequencer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.tree import OverlayTree
from repro.env import Monitor


@dataclass(frozen=True)
class MessageAudit:
    """Participation record for one multicast message."""

    sender: str
    seq: int
    destinations: FrozenSet[str]
    involved: FrozenSet[str]   # groups whose replicas executed the message
    predicted: FrozenSet[str]  # P(T, dst) from the overlay tree

    @property
    def is_local(self) -> bool:
        return len(self.destinations) == 1

    @property
    def genuine(self) -> bool:
        """True iff only destination groups participated."""
        return self.involved <= self.destinations

    @property
    def matches_prediction(self) -> bool:
        return self.involved == self.predicted


@dataclass(frozen=True)
class GenuinenessReport:
    """Aggregate audit over one run."""

    audits: Tuple[MessageAudit, ...]

    @property
    def local_genuine_fraction(self) -> float:
        local = [a for a in self.audits if a.is_local]
        if not local:
            return 1.0
        return sum(1 for a in local if a.genuine) / len(local)

    @property
    def prediction_match_fraction(self) -> float:
        if not self.audits:
            return 1.0
        return sum(1 for a in self.audits if a.matches_prediction) / len(self.audits)

    def mean_groups_involved(self, local: Optional[bool] = None) -> float:
        selected = [
            a for a in self.audits
            if local is None or a.is_local == local
        ]
        if not selected:
            return 0.0
        return sum(len(a.involved) for a in selected) / len(selected)

    def violations(self) -> List[MessageAudit]:
        """Messages whose participation exceeds the tree's prediction."""
        return [a for a in self.audits if not a.involved <= a.predicted]


def audit_genuineness(monitor: Monitor, tree: OverlayTree) -> GenuinenessReport:
    """Audit a traced run.

    Participation is derived from ``byzcast.executed_wire`` trace records:
    :class:`~repro.core.node.ByzCastApplication` emits one per wire each
    replica admits — a direct submission at the entry group, and each
    wire of a relayed batch once f+1 parent replicas confirmed it, not
    once per relayed copy.
    """
    involved: Dict[Tuple[str, int], set] = {}
    destinations: Dict[Tuple[str, int], FrozenSet[str]] = {}
    for record in monitor.trace:
        if record.kind != "byzcast.executed_wire":
            continue
        key = (record.get("origin"), record.get("seq"))
        group = record.component.split("/")[0]
        involved.setdefault(key, set()).add(group)
        dst = record.get("dst")
        if dst:
            destinations[key] = frozenset(dst.split(","))
    audits = []
    for key, groups in sorted(involved.items()):
        dst = destinations.get(key, frozenset())
        predicted = tree.involved_groups(dst) if dst else frozenset()
        audits.append(MessageAudit(
            sender=key[0],
            seq=key[1],
            destinations=dst,
            involved=frozenset(groups),
            predicted=frozenset(predicted),
        ))
    return GenuinenessReport(tuple(audits))


def format_report(report: GenuinenessReport) -> str:
    """Human-readable audit summary."""
    lines = [
        f"messages audited:            {len(report.audits)}",
        f"local messages genuine:      {report.local_genuine_fraction:.1%}",
        f"participation == P(T, dst):  {report.prediction_match_fraction:.1%}",
        f"mean groups/message (local): {report.mean_groups_involved(local=True):.2f}",
        f"mean groups/message (global):{report.mean_groups_involved(local=False):.2f}",
    ]
    violations = report.violations()
    if violations:
        lines.append(f"VIOLATIONS: {len(violations)}")
        for audit in violations[:5]:
            lines.append(f"  {audit.sender}:{audit.seq} involved "
                         f"{sorted(audit.involved)} > predicted "
                         f"{sorted(audit.predicted)}")
    return "\n".join(lines)
