"""Terminal-friendly rendering of benchmark results.

The paper communicates through throughput bars and latency CDFs; these
helpers render the same artifacts as ASCII so examples and the experiment
script can show *shapes* directly in a terminal with no plotting stack.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.metrics.cdf import cdf_points

BAR_CHAR = "█"
HALF_CHAR = "▌"


def bar_chart(rows: Sequence[Tuple[str, float]], width: int = 50,
              unit: str = "") -> str:
    """Horizontal bars scaled to the largest value.

    >>> print(bar_chart([("a", 10.0), ("b", 5.0)], width=10))  # doctest: +SKIP
    """
    if not rows:
        return "(no data)"
    label_width = max(len(label) for label, __ in rows)
    peak = max(value for __, value in rows) or 1.0
    lines = []
    for label, value in rows:
        filled = value / peak * width
        bar = BAR_CHAR * int(filled)
        if filled - int(filled) >= 0.5:
            bar += HALF_CHAR
        lines.append(f"{label:<{label_width}}  {bar:<{width + 1}} {value:,.1f}{unit}")
    return "\n".join(lines)


def cdf_plot(series: Dict[str, Sequence[float]], width: int = 60,
             height: int = 12) -> str:
    """Plot one or more latency CDFs on a shared axis labelled in ms.

    Args:
        series: label → raw latency samples (seconds).
    """
    series = {label: list(samples) for label, samples in series.items()
              if samples}
    if not series:
        return "(no data)"
    lo = min(min(s) for s in series.values())
    hi = max(max(s) for s in series.values())
    if hi <= lo:
        hi = lo + 1e-9
    grid = [[" "] * width for __ in range(height)]
    markers = "*o+x#@"
    legend = []
    for index, (label, samples) in enumerate(sorted(series.items())):
        marker = markers[index % len(markers)]
        legend.append(f"  {marker} {label}")
        for value, fraction in cdf_points(samples, max_points=width * 2):
            col = int((value - lo) / (hi - lo) * (width - 1))
            row = height - 1 - int(fraction * (height - 1))
            grid[row][col] = marker
    lines = []
    for row_index, row in enumerate(grid):
        fraction = 1.0 - row_index / (height - 1)
        lines.append(f"{fraction:4.0%} |" + "".join(row))
    lines.append("     +" + "-" * width)
    left = f"{lo * 1000.0:.1f}ms"
    right = f"{hi * 1000.0:.1f}ms"
    lines.append("      " + left + " " * max(1, width - len(left) - len(right)) + right)
    lines.extend(legend)
    return "\n".join(lines)
