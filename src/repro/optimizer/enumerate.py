"""Exhaustive overlay-tree search for small instances.

Enumerates every tree whose leaves are exactly the target groups and whose
inner nodes are auxiliary groups (each used at most once, each with at
least two children — an inner node with one child only adds a hop and can
never improve the §III-C objective).  Auxiliary groups may have distinct
capacities, so every assignment of auxiliary names to inner positions is
considered.

The search space grows super-exponentially with the number of targets; the
entry point refuses instances beyond a safety bound and larger deployments
should use :func:`repro.optimizer.heuristic.optimize_heuristic`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.tree import OverlayTree
from repro.errors import OptimizationError
from repro.optimizer.model import (
    OptimizationInput,
    TreeEvaluation,
    evaluate_tree,
    weighted_height,
)

MAX_TARGETS = 8

#: a tree shape: either a target leaf (str) or a tuple of child shapes
Shape = object


def _partitions_all(items: Tuple[str, ...]) -> Iterator[List[Tuple[str, ...]]]:
    """All unordered set partitions of ``items`` (each produced once)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions_all(rest):
        yield [(first,)] + sub
        for index in range(len(sub)):
            candidate = list(sub)
            candidate[index] = (first,) + candidate[index]
            yield candidate


def _partitions(items: Tuple[str, ...]) -> Iterator[List[Tuple[str, ...]]]:
    """Set partitions with at least two blocks."""
    for partition in _partitions_all(items):
        if len(partition) >= 2:
            yield partition


def _shapes(targets: Tuple[str, ...], max_inner: int) -> Iterator[Tuple[Shape, int]]:
    """Yield (shape, inner_node_count) for the target set."""
    if len(targets) == 1:
        yield targets[0], 0
        return
    if max_inner < 1:
        return
    for blocks in _partitions(targets):
        block_shape_lists = []
        for block in blocks:
            block_shape_lists.append(list(_shapes(tuple(sorted(block)), max_inner - 1)))
        for combo in itertools.product(*block_shape_lists):
            inner = 1 + sum(count for __, count in combo)
            if inner <= max_inner:
                children = tuple(sorted((shape for shape, __ in combo), key=repr))
                yield children, inner


def _assign(shape: Shape, names: List[str], parents: Dict[str, str],
            parent: Optional[str]) -> None:
    """Materialize ``shape`` into a parents mapping, consuming aux ``names``."""
    if isinstance(shape, str):
        if parent is not None:
            parents[shape] = parent
        return
    name = names.pop(0)
    if parent is not None:
        parents[name] = parent
    for child in shape:
        _assign(child, names, parents, name)


def enumerate_trees(targets: Sequence[str],
                    auxiliaries: Sequence[str]) -> Iterator[OverlayTree]:
    """Every aux-rooted overlay tree for ``targets`` using ≤ the given auxes."""
    targets = tuple(sorted(targets))
    if len(targets) > MAX_TARGETS:
        raise OptimizationError(
            f"exhaustive search limited to {MAX_TARGETS} targets; "
            "use optimize_heuristic for larger instances"
        )
    if len(targets) == 1:
        yield OverlayTree({}, targets)
        return
    auxiliaries = tuple(auxiliaries)
    seen = set()
    for shape, inner in _shapes(targets, max_inner=len(auxiliaries)):
        if inner == 0:
            continue
        for chosen in itertools.permutations(auxiliaries, inner):
            parents: Dict[str, str] = {}
            _assign(shape, list(chosen), parents, None)
            key = tuple(sorted(parents.items()))
            if key in seen:
                continue
            seen.add(key)
            yield OverlayTree(parents, targets)


def optimize_exhaustive(problem: OptimizationInput,
                        objective: str = "heights") -> TreeEvaluation:
    """The feasible tree minimizing the chosen objective (ties: fewer groups).

    Args:
        objective: ``"heights"`` — the paper's ``Σ H(T, d)``;
            ``"weighted"`` — the demand-weighted ``Σ F(d)·H(T, d)``
            extension (see :func:`repro.optimizer.model.weighted_height`).

    Raises :class:`OptimizationError` when no candidate satisfies every
    capacity constraint.
    """
    if objective not in ("heights", "weighted"):
        raise OptimizationError(f"unknown objective {objective!r}")
    problem.validate()
    best: Optional[TreeEvaluation] = None
    best_key = None
    for tree in enumerate_trees(problem.targets, problem.auxiliaries):
        evaluation = evaluate_tree(tree, problem)
        if not evaluation.feasible:
            continue
        if objective == "weighted":
            score = weighted_height(tree, problem.demand)
        else:
            score = evaluation.objective
        key = (score, len(tree.nodes))
        if best is None or key < best_key:
            best = evaluation
            best_key = key
    if best is None:
        raise OptimizationError(
            "no feasible overlay tree: every candidate overloads some group"
        )
    return best
