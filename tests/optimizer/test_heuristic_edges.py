"""Edge cases for the clustering heuristic."""

from __future__ import annotations

import pytest

from repro.errors import OptimizationError
from repro.optimizer.heuristic import optimize_heuristic
from repro.optimizer.model import OptimizationInput
from repro.types import destination


def test_single_target_trivial_tree():
    problem = OptimizationInput(
        targets=("g1",), auxiliaries=("h1",),
        demand={destination("g1"): 100.0}, capacity=1000.0,
    )
    result = optimize_heuristic(problem)
    assert result.tree.root == "g1"
    assert result.feasible


def test_no_auxiliaries_rejected_for_multi_target():
    problem = OptimizationInput(
        targets=("g1", "g2"), auxiliaries=(),
        demand={destination("g1", "g2"): 1.0},
    )
    with pytest.raises(OptimizationError):
        optimize_heuristic(problem)


def test_flat_tree_when_root_can_carry_everything():
    problem = OptimizationInput(
        targets=("g1", "g2", "g3"), auxiliaries=("h1", "h2"),
        demand={destination("g1", "g2"): 100.0,
                destination("g2", "g3"): 100.0},
        capacity=1000.0,
    )
    result = optimize_heuristic(problem)
    assert result.tree.height(result.tree.root) == 2  # flat

def test_local_only_demand_is_always_flat_and_feasible():
    problem = OptimizationInput(
        targets=("g1", "g2", "g3", "g4"), auxiliaries=("h1",),
        demand={destination(f"g{i}"): 50_000.0 for i in range(1, 5)},
        capacity=60_000.0,
    )
    result = optimize_heuristic(problem)
    # Local demand never touches auxiliaries: root load stays zero.
    assert result.loads[result.tree.root] == 0.0
    assert result.feasible


def test_three_hot_pairs_three_branches():
    targets = ("a1", "a2", "b1", "b2", "c1", "c2")
    demand = {
        destination("a1", "a2"): 9000.0,
        destination("b1", "b2"): 9000.0,
        destination("c1", "c2"): 9000.0,
    }
    problem = OptimizationInput(
        targets=targets, auxiliaries=("h1", "h2", "h3", "h4"),
        demand=demand, capacity=9500.0,
    )
    result = optimize_heuristic(problem)
    assert result.feasible
    tree = result.tree
    for pair in (("a1", "a2"), ("b1", "b2"), ("c1", "c2")):
        assert tree.lca(set(pair)) != tree.root


def test_heuristic_reports_overload_when_impossible():
    problem = OptimizationInput(
        targets=("g1", "g2"), auxiliaries=("h1", "h2"),
        demand={destination("g1", "g2"): 100.0}, capacity=10.0,
    )
    with pytest.raises(OptimizationError):
        optimize_heuristic(problem)
