"""Plain statistics helpers (no numpy dependency at the core layer).

The paper reports mean latency with 95% confidence intervals (whiskers),
median + 95th percentile bars, and latency CDFs; these helpers compute
exactly those quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    if not samples:
        return 0.0
    return sum(samples) / len(samples)


def _interpolate(ordered: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of an already-sorted sample list."""
    if not 0 <= p <= 100:
        raise ValueError("percentile must be within [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # This form is exact when both neighbours are equal (no float drift).
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) by linear interpolation; 0.0 if empty."""
    if not samples:
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        return 0.0
    return _interpolate(sorted(samples), p)


def quantiles(samples: Sequence[float], ps: Sequence[float]) -> Tuple[float, ...]:
    """Several percentiles from a single sort.

    Equivalent to ``tuple(percentile(samples, p) for p in ps)`` but sorts
    the samples once — the summaries over large benchmark windows ask for
    median/p95/p99 together, and three sorts of the same list are pure
    waste.
    """
    if not samples:
        for p in ps:
            if not 0 <= p <= 100:
                raise ValueError("percentile must be within [0, 100]")
        return tuple(0.0 for _ in ps)
    ordered = sorted(samples)
    return tuple(_interpolate(ordered, p) for p in ps)


def stddev(samples: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 for fewer than two samples."""
    if len(samples) < 2:
        return 0.0
    m = mean(samples)
    return math.sqrt(sum((x - m) ** 2 for x in samples) / (len(samples) - 1))


def confidence_interval_95(samples: Sequence[float]) -> float:
    """Half-width of the 95% confidence interval of the mean (normal approx)."""
    if len(samples) < 2:
        return 0.0
    return 1.96 * stddev(samples) / math.sqrt(len(samples))


@dataclass(frozen=True)
class LatencySummary:
    """The latency statistics the paper plots."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    ci95: float

    def scaled(self, factor: float) -> "LatencySummary":
        """Unit conversion helper (e.g. seconds → milliseconds)."""
        return LatencySummary(
            count=self.count,
            mean=self.mean * factor,
            median=self.median * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            ci95=self.ci95 * factor,
        )


def summarize(samples: Sequence[float]) -> LatencySummary:
    """Compute the full latency summary for a sample set."""
    median, p95, p99 = quantiles(samples, (50, 95, 99))
    return LatencySummary(
        count=len(samples),
        mean=mean(samples),
        median=median,
        p95=p95,
        p99=p99,
        ci95=confidence_interval_95(samples),
    )
