"""Empirical capacity estimation — the ``K(x)`` of the §III-C model.

The paper derives its optimizer input from measurements: *"Based on the
experiments reported in §V-D, an auxiliary group can sustain approximately
9500 messages/sec (i.e., K(h_i) = 9500 m/s)"*.  This module reproduces that
methodology: it saturates a group with closed-loop clients and reports the
sustained throughput, for the two roles a group can play:

* ``estimate_target_capacity`` — a target group ordering local messages;
* ``estimate_relay_capacity`` — an auxiliary group ordering *and relaying*
  global messages down a 2-level tree.

``plan_tree`` chains everything: probe capacities, build the
:class:`~repro.optimizer.model.OptimizationInput`, and return the optimized
overlay tree for a given demand matrix.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.optimizer.enumerate import MAX_TARGETS, optimize_exhaustive
from repro.optimizer.heuristic import optimize_heuristic
from repro.optimizer.model import OptimizationInput, TreeEvaluation
from repro.runtime.scenarios import lan_cell
from repro.types import Destination


def estimate_target_capacity(
    clients: int = 150,
    warmup: float = 1.0,
    duration: float = 2.5,
) -> float:
    """Sustained msgs/s of one group ordering local messages (paper scale)."""
    return lan_cell("capacity/target", "bftsmart", 1, clients, "fixed",
                    warmup, duration, fixed=("g1",)).throughput


def estimate_relay_capacity(
    clients: int = 200,
    fanout: int = 2,
    warmup: float = 1.0,
    duration: float = 2.5,
) -> float:
    """Sustained msgs/s of an auxiliary group relaying global messages.

    ``fanout`` is the number of destination groups per message (the paper's
    K(h) = 9500 comes from 2-destination messages).
    """
    return lan_cell(
        "capacity/relay", "byzcast", max(4, fanout), clients, "fixed",
        warmup, duration,
        fixed=tuple(f"g{i}" for i in range(1, fanout + 1))).throughput


def plan_tree(
    demand: Mapping[Destination, float],
    targets: Sequence[str],
    auxiliaries: Sequence[str],
    aux_capacity: Optional[float] = None,
    target_capacity: Optional[float] = None,
) -> TreeEvaluation:
    """Probe capacities (unless given) and return the optimized tree.

    Auxiliary groups get the relay capacity, target groups the larger local
    capacity — matching how the paper parameterizes its model.
    """
    if aux_capacity is None:
        aux_capacity = estimate_relay_capacity()
    if target_capacity is None:
        target_capacity = estimate_target_capacity()
    capacities: Dict[str, float] = {}
    for aux in auxiliaries:
        capacities[aux] = aux_capacity
    for target in targets:
        capacities[target] = target_capacity
    problem = OptimizationInput(
        targets=tuple(targets),
        auxiliaries=tuple(auxiliaries),
        demand=dict(demand),
        capacity=capacities,
    )
    if len(targets) <= MAX_TARGETS:
        return optimize_exhaustive(problem)
    return optimize_heuristic(problem)
