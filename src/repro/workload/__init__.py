"""Workload generation: destination distributions and client drivers."""

from repro.workload.spec import (
    DestinationSampler,
    fixed_destination,
    local_uniform,
    mixed_ratio,
    skewed_pairs,
    uniform_pairs,
    zipfian_local,
    table2_skewed_demand,
    table2_uniform_demand,
)
from repro.workload.clients import ClosedLoopDriver, OpenLoopDriver

__all__ = [
    "DestinationSampler",
    "fixed_destination",
    "local_uniform",
    "uniform_pairs",
    "zipfian_local",
    "skewed_pairs",
    "mixed_ratio",
    "table2_uniform_demand",
    "table2_skewed_demand",
    "ClosedLoopDriver",
    "OpenLoopDriver",
]
