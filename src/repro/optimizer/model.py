"""The optimization model of §III-C.

Definitions (for a candidate tree ``T`` and destination set ``d``):

* ``P(T, d)`` — groups involved in a multicast to ``d``: the groups on the
  paths from ``lca(d)`` down to each group of ``d``
  (:meth:`repro.core.tree.OverlayTree.involved_groups`).
* ``H(T, d)`` — height of ``lca(d)`` (leaves count 1).
* ``T(T, x) = {d ∈ D | x ∈ P(T, d)}`` — destination sets involving ``x``
  (:func:`destinations_through`).
* ``L(T, x) = Σ_{d ∈ T(T,x)} F(d)`` — load imposed on ``x``
  (:func:`group_load`).

Objective: minimize ``Σ_{d ∈ D} H(T, d)`` subject to ``L(T, x) ≤ K(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Tuple, Union

from repro.core.tree import OverlayTree
from repro.errors import OptimizationError
from repro.types import Destination

Capacity = Union[float, Mapping[str, float], Callable[[str], float]]


@dataclass(frozen=True)
class OptimizationInput:
    """The inputs of the §III-C optimization problem.

    Attributes:
        targets: Γ — the target groups.
        auxiliaries: Λ — auxiliary groups available as inner nodes.
        demand: ``F``: destination set → peak messages/s (only sets in ``D``
            need appear; absent sets carry no load).
        capacity: ``K``: messages/s a group can sustain — a single number
            for all groups, a per-group mapping, or a callable.
    """

    targets: Tuple[str, ...]
    auxiliaries: Tuple[str, ...]
    demand: Mapping[Destination, float]
    capacity: Capacity = float("inf")

    def capacity_of(self, group: str) -> float:
        if callable(self.capacity):
            return self.capacity(group)
        if isinstance(self.capacity, Mapping):
            return self.capacity.get(group, float("inf"))
        return float(self.capacity)

    def validate(self) -> None:
        if not self.targets:
            raise OptimizationError("no target groups")
        target_set = set(self.targets)
        for dst, rate in self.demand.items():
            if rate < 0:
                raise OptimizationError(f"negative demand for {sorted(dst)}")
            unknown = set(dst) - target_set
            if unknown:
                raise OptimizationError(
                    f"demand destination {sorted(dst)} mentions non-targets {sorted(unknown)}"
                )


def destinations_through(tree: OverlayTree, group: str,
                         demand: Mapping[Destination, float]
                         ) -> List[Destination]:
    """``T(T, x)``: the destination sets whose multicast involves ``group``."""
    return [d for d in demand if group in tree.involved_groups(d)]


def group_load(tree: OverlayTree, group: str,
               demand: Mapping[Destination, float]) -> float:
    """``L(T, x)``: total demand flowing through ``group``."""
    return sum(demand[d] for d in destinations_through(tree, group, demand))


def total_height(tree: OverlayTree, demand: Mapping[Destination, float]) -> int:
    """``Σ_{d ∈ D} H(T, d)`` — the paper's objective value."""
    return sum(tree.destination_height(d) for d in demand)


def weighted_height(tree: OverlayTree, demand: Mapping[Destination, float]) -> float:
    """``Σ_{d ∈ D} F(d) · H(T, d)`` — a demand-weighted objective.

    An extension beyond the paper's model: instead of treating every
    destination set equally, weight each set's height by its traffic, so
    the tree optimizes *mean* hop count per message rather than per
    destination set.  Useful when a few destination sets dominate the
    workload but the paper's objective would trade their latency away for
    rare sets.
    """
    return sum(rate * tree.destination_height(d) for d, rate in demand.items())


@dataclass(frozen=True)
class TreeEvaluation:
    """The full §III-C evaluation of one candidate tree."""

    tree: OverlayTree
    objective: int
    loads: Mapping[str, float]
    capacities: Mapping[str, float]

    @property
    def feasible(self) -> bool:
        return all(
            self.loads[group] <= self.capacities[group] for group in self.loads
        )

    def overloaded_groups(self) -> List[str]:
        return [
            group for group in sorted(self.loads)
            if self.loads[group] > self.capacities[group]
        ]


def evaluate_tree(tree: OverlayTree, problem: OptimizationInput) -> TreeEvaluation:
    """Compute objective, per-group loads, and feasibility for ``tree``."""
    problem.validate()
    missing = set(problem.targets) - set(tree.targets)
    if missing:
        raise OptimizationError(f"tree does not contain targets {sorted(missing)}")
    loads = {group: group_load(tree, group, problem.demand) for group in tree.nodes}
    capacities = {group: problem.capacity_of(group) for group in tree.nodes}
    return TreeEvaluation(
        tree=tree,
        objective=total_height(tree, problem.demand),
        loads=loads,
        capacities=capacities,
    )
