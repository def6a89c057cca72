"""Counters and structured trace events for observing a run.

The :class:`Monitor` is shared by all components of one deployment — on any
execution backend.  It is a plain in-memory sink: counters for cheap
aggregate statistics, and an optional bounded trace of structured records
for debugging and tests that assert on protocol-level behaviour (e.g.
"replica r2 flagged a protocol violation by the leader").  Its clock is
bound by the owning runtime, so record timestamps are virtual seconds under
simulation and wall-clock seconds under the real-time backend.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace event."""

    time: float
    component: str
    kind: str
    detail: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        return dict(self.detail).get(key, default)


class Monitor:
    """Aggregates counters and (optionally) a bounded event trace."""

    def __init__(self, trace_capacity: int = 0) -> None:
        self.counters: Counter = Counter()
        self.trace_capacity = trace_capacity
        #: whether :meth:`record` keeps trace entries; when it is off a
        #: record only bumps its counter, so a per-op caller checks this
        #: first and, when it is off, counts the kind without building the
        #: record's details
        self.enabled = bool(trace_capacity)
        #: ring buffer of the *last* ``trace_capacity`` records — late-run
        #: events stay observable in long runs; evictions are counted under
        #: the ``trace.dropped`` counter
        self.trace: Deque[TraceRecord] = deque(
            maxlen=trace_capacity if trace_capacity else None
        )
        #: current-value metrics (e.g. ``consensus.in_flight.<replica>``)
        #: with a ``<name>.peak`` high-water companion; kept apart from
        #: ``counters`` so gauge churn never perturbs counter fingerprints
        self.gauges: Dict[str, float] = {}
        #: interned ``<name>.peak`` keys — :meth:`gauge` is on the consensus
        #: hot path (pipeline depth transitions), so the concat happens once
        #: per gauge name, not once per call
        self._peak_keys: Dict[str, str] = {}
        self._clock = None  # set by the deployment; callable () -> float

    def bind_clock(self, clock) -> None:
        """Attach a ``() -> float`` returning current virtual time."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``."""
        self.counters[name] += amount

    def record(self, component: str, kind: str, **detail: Any) -> None:
        """Append a trace record (if tracing is enabled) and bump a counter.

        The trace is a ring: once ``trace_capacity`` records accumulate,
        each append evicts the oldest record (counted as ``trace.dropped``).
        """
        self.counters[kind] += 1
        if not self.enabled:
            return
        if len(self.trace) == self.trace_capacity:
            self.counters["trace.dropped"] += 1
        self.trace.append(
            TraceRecord(self.now, component, kind, tuple(sorted(detail.items())))
        )

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` and track its ``.peak``.

        The plain value store always happens — a run's gauge snapshot
        (``bench/deploy.py``) reads gauges even on untraced deployments.  Peak tracking is observability-only, so
        on a disabled monitor it takes the same fast exit as
        :meth:`record`: no string build, no extra dict traffic.
        """
        self.gauges[name] = value
        if not self.enabled:
            return
        peak = self._peak_keys.get(name)
        if peak is None:
            peak = self._peak_keys[name] = name + ".peak"
        if value > self.gauges.get(peak, float("-inf")):
            self.gauges[peak] = value

    def records(self, kind: Optional[str] = None) -> List[TraceRecord]:
        """Trace records, optionally filtered by kind."""
        if kind is None:
            return list(self.trace)
        return [r for r in self.trace if r.kind == kind]

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters."""
        return dict(self.counters)
