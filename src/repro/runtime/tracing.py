"""Per-message timelines: where does a multicast spend its time?

Builds hop-by-hop timelines from the deployment monitor's trace — the tool
behind explanations like the paper's §V-F ("global messages have twice the
latency of local messages because they go through the auxiliary group").

Enable tracing on the deployment (``trace_capacity > 0``), run a workload,
then::

    timelines = extract_timelines(deployment.monitor)
    print(format_timeline(timelines[0]))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.env import Monitor


@dataclass
class HopRecord:
    """First occurrence of one protocol step for one message."""

    time: float
    group: str
    kind: str  # "entry", "a-deliver"
    detail: str = ""


@dataclass
class MessageTimeline:
    """The life of one multicast message across the tree."""

    sender: str
    seq: int
    submitted_at: Optional[float] = None
    completed_at: Optional[float] = None
    hops: List[HopRecord] = field(default_factory=list)

    @property
    def latency(self) -> Optional[float]:
        if self.submitted_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def delivery_groups(self) -> List[str]:
        return sorted({hop.group for hop in self.hops if hop.kind == "a-deliver"})


def extract_timelines(monitor: Monitor) -> List[MessageTimeline]:
    """Reconstruct message timelines from a deployment's trace.

    Requires the deployment to have been built with ``trace_capacity`` large
    enough to retain the run's events.
    """
    timelines: Dict[Tuple[str, int], MessageTimeline] = {}

    def timeline(sender: str, seq: int) -> MessageTimeline:
        key = (sender, seq)
        if key not in timelines:
            timelines[key] = MessageTimeline(sender=sender, seq=seq)
        return timelines[key]

    seen_hops = set()
    for record in monitor.trace:
        if record.kind == "client.amulticast":
            entry = timeline(record.component, record.get("seq"))
            entry.submitted_at = record.time
        elif record.kind == "client.delivered":
            entry = timeline(record.component, record.get("seq"))
            entry.completed_at = record.time
        elif record.kind == "byzcast.a_deliver":
            sender, seq = record.get("sender"), record.get("seq")
            group = record.component.split("/")[0]
            hop_key = ("deliver", group, sender, seq)
            if hop_key in seen_hops:
                continue  # keep the first replica's event per group
            seen_hops.add(hop_key)
            timeline(sender, seq).hops.append(
                HopRecord(record.time, group, "a-deliver")
            )
    result = [t for t in timelines.values() if t.submitted_at is not None]
    result.sort(key=lambda t: (t.submitted_at, t.sender, t.seq))
    for entry in result:
        entry.hops.sort(key=lambda hop: hop.time)
    return result


def format_timeline(timeline: MessageTimeline) -> str:
    """Render one timeline as text."""
    lines = [f"message {timeline.sender}:{timeline.seq}"]
    base = timeline.submitted_at or 0.0
    lines.append(f"  t=+0.00 ms  submitted by {timeline.sender}")
    for hop in timeline.hops:
        offset = (hop.time - base) * 1000
        lines.append(f"  t=+{offset:.2f} ms  {hop.kind} at {hop.group}")
    if timeline.completed_at is not None:
        offset = (timeline.completed_at - base) * 1000
        lines.append(f"  t=+{offset:.2f} ms  confirmed at the client "
                     f"(latency {offset:.2f} ms)")
    return "\n".join(lines)


def latency_breakdown(timelines: List[MessageTimeline]) -> Dict[str, float]:
    """Mean time-to-first-delivery per group over a set of timelines."""
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for entry in timelines:
        if entry.submitted_at is None:
            continue
        for hop in entry.hops:
            if hop.kind != "a-deliver":
                continue
            sums[hop.group] = sums.get(hop.group, 0.0) + (hop.time - entry.submitted_at)
            counts[hop.group] = counts.get(hop.group, 0) + 1
    return {group: sums[group] / counts[group] for group in sums}
