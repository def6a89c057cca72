"""Time-windowed measurement of completions.

Experiments run with a *warmup* interval (the system fills its pipelines,
leaders stabilize) followed by a *measurement window*; only completions
inside the window count.  This mirrors standard benchmarking methodology
(and the paper's steady-state throughput numbers).
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.stats import LatencySummary, summarize


class LatencyCollector:
    """Collects (completion_time, latency) pairs and filters by window."""

    def __init__(self, window_start: float = 0.0,
                 window_end: Optional[float] = None) -> None:
        self.window_start = window_start
        self.window_end = window_end
        self._samples: List[tuple] = []

    def record(self, completion_time: float, latency: float) -> None:
        self._samples.append((completion_time, latency))

    def in_window(self) -> List[float]:
        """Latencies whose completion fell inside the measurement window."""
        end = self.window_end if self.window_end is not None else float("inf")
        return [lat for t, lat in self._samples if self.window_start <= t <= end]

    def all_samples(self) -> List[float]:
        return [lat for __, lat in self._samples]

    def summary(self) -> LatencySummary:
        return summarize(self.in_window())

    def count(self) -> int:
        return len(self.in_window())


class ThroughputMeter:
    """Completions per second over the measurement window."""

    def __init__(self, window_start: float, window_end: float) -> None:
        if window_end <= window_start:
            raise ValueError("window must have positive duration")
        self.window_start = window_start
        self.window_end = window_end
        self.completions = 0

    def record(self, completion_time: float) -> None:
        if self.window_start <= completion_time <= self.window_end:
            self.completions += 1

    @property
    def duration(self) -> float:
        return self.window_end - self.window_start

    def throughput(self) -> float:
        """Messages per second inside the window."""
        return self.completions / self.duration
