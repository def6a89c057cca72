"""Online traffic observation for workload-adaptive overlay trees.

The :class:`TrafficCollector` is the *observe* stage of the FlexCast-style
adaptation loop (docs/TREES.md): clients note every submitted multicast's
destination set together with the hop count the current tree charges it
(``H(T, d)``, §III-C — the number of consensus levels from the entry lca
down).  Samples land in a bounded ring, so a long run observes the
*recent* workload, and the whole collector is optional: a client with no
collector attached pays a single ``is None`` check per submit, and a soak
or bench with ``adaptive_tree: off`` allocates nothing.

From the ring the collector derives

* ``demand()`` — per-destination-set rates, the
  :class:`~repro.optimizer.model.OptimizationInput`-shaped profile the
  :class:`~repro.optimizer.planner.TreePlanner` re-plans against,
* ``mean_hops()`` — average per-message hop count (the ``tree.hops``
  gauge and the bench harness's ``mean_hops`` column), and
* ``skew()`` — the demand share of the heaviest destination set (the
  ``tree.skew`` gauge; 1/k under a uniform k-set workload, →1 under a
  hotspot).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Deque, Dict, FrozenSet, Iterable, Optional, Tuple

#: default ring capacity — comfortably above any one planner interval's
#: traffic in the soaks and benchmarks, small enough to stay cache-warm
DEFAULT_CAPACITY = 4096


class TrafficCollector:
    """Bounded ring of (time, destination-set, hops) submit samples."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._clock = clock
        self._ring: Deque[Tuple[float, FrozenSet[str], int]] = deque(
            maxlen=capacity)
        #: lifetime sample count (survives reset; monotone, for tests)
        self.noted = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach a ``() -> float`` returning current (virtual) time."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # --------------------------------------------------------------- observe

    def note(self, dst: Iterable[str], hops: int) -> None:
        """Record one submitted multicast (called from the client hot path)."""
        self._ring.append((self.now, frozenset(dst), hops))
        self.noted += 1

    def sample_count(self) -> int:
        """Samples currently in the ring (≤ capacity)."""
        return len(self._ring)

    def reset(self) -> None:
        """Forget the observed profile (called after a tree switch, so the
        planner re-decides from post-switch traffic only)."""
        self._ring.clear()

    # ---------------------------------------------------------------- derive

    def demand(self, since: float = float("-inf")) -> Dict[FrozenSet[str], float]:
        """Per-destination-set sample counts observed at or after ``since``.

        Counts are a faithful *relative* demand profile — the planner's
        objective (weighted height) is scale-invariant, so no rate
        normalisation is needed.
        """
        counts: Counter = Counter()
        for when, dst, __ in self._ring:
            if when >= since:
                counts[dst] += 1
        return {dst: float(count) for dst, count in counts.items()}

    def mean_hops(self, since: float = float("-inf")) -> float:
        """Average per-message hop count observed at or after ``since``."""
        total = 0
        count = 0
        for when, __, hops in self._ring:
            if when >= since:
                total += hops
                count += 1
        return total / count if count else 0.0

    def skew(self) -> float:
        """Demand share of the heaviest destination set (0 when empty)."""
        if not self._ring:
            return 0.0
        counts: Counter = Counter(dst for __, dst, __h in self._ring)
        return max(counts.values()) / len(self._ring)

    def publish(self, monitor) -> None:
        """Refresh the ``tree.hops`` / ``tree.skew`` gauges (planner tick)."""
        monitor.gauge("tree.hops", self.mean_hops())
        monitor.gauge("tree.skew", self.skew())
