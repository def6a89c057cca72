"""Demand-clustering heuristic for larger overlay-tree instances.

Strategy (motivated by §III-C and the Table III example):

1. Try the flat 2-level tree — it has the minimum possible objective for
   multi-group demand.  If the root can carry the whole global demand, done.
2. Otherwise cluster targets into branches so that demand stays *inside*
   branches: destination sets fully contained in one branch load only that
   branch's auxiliary, and only cross-branch sets load the root.  Clusters
   are grown greedily by merging the pair with the largest inter-cluster
   demand (the targets that appear together in hot destination sets end up
   under the same auxiliary — exactly what the skewed workload needs).
3. Branches with a single target attach directly to the root; larger
   branches get an auxiliary each.

The result is a 2- or 3-level tree.  That is not always globally optimal,
but it is the paper's own design space (§IV implements exactly these two
layouts) and it is verified against exhaustive search in the tests for
every small instance.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.tree import OverlayTree
from repro.errors import OptimizationError
from repro.optimizer.model import OptimizationInput, TreeEvaluation, evaluate_tree


def _cluster_demand(clusters: List[Set[str]], demand) -> Dict[Tuple[int, int], float]:
    """Demand between (and within) clusters, keyed by cluster-index pair."""
    weights: Dict[Tuple[int, int], float] = {}
    index_of = {}
    for index, cluster in enumerate(clusters):
        for target in cluster:
            index_of[target] = index
    for dst, rate in demand.items():
        spanned = sorted({index_of[g] for g in dst})
        for i in range(len(spanned)):
            for j in range(i + 1, len(spanned)):
                key = (spanned[i], spanned[j])
                weights[key] = weights.get(key, 0.0) + rate
    return weights


def _internal_load(cluster: Set[str], demand) -> float:
    """Demand of destination sets fully inside ``cluster``."""
    return sum(rate for dst, rate in demand.items() if set(dst) <= cluster)


def _build_tree(clusters: List[Set[str]], targets: Sequence[str],
                auxiliaries: Sequence[str], root: str) -> OverlayTree:
    parents: Dict[str, str] = {}
    aux_pool = [a for a in auxiliaries if a != root]
    for cluster in clusters:
        if len(cluster) == 1:
            parents[next(iter(cluster))] = root
        else:
            if not aux_pool:
                raise OptimizationError("not enough auxiliary groups for clustering")
            aux = aux_pool.pop(0)
            parents[aux] = root
            for target in sorted(cluster):
                parents[target] = aux
    return OverlayTree(parents, targets)


def optimize_heuristic(problem: OptimizationInput) -> TreeEvaluation:
    """A feasible 2- or 3-level tree found by greedy demand clustering."""
    problem.validate()
    targets = tuple(sorted(problem.targets))
    if len(targets) == 1:
        return evaluate_tree(OverlayTree({}, targets), problem)
    if not problem.auxiliaries:
        raise OptimizationError("need at least one auxiliary group as root")
    root = problem.auxiliaries[0]

    flat = OverlayTree.two_level(targets, root=root)
    evaluation = evaluate_tree(flat, problem)
    if evaluation.feasible:
        return evaluation

    # Grow clusters by merging the pair with the heaviest mutual demand, as
    # long as the merged cluster's internal demand fits some auxiliary.
    clusters: List[Set[str]] = [{t} for t in targets]
    spare_aux = len(problem.auxiliaries) - 1
    max_capacity = max(problem.capacity_of(a) for a in problem.auxiliaries)
    while len(clusters) > 2:
        weights = _cluster_demand(clusters, problem.demand)
        candidates = sorted(weights.items(), key=lambda kv: -kv[1])
        merged = False
        for (i, j), weight in candidates:
            if weight <= 0:
                break
            union = clusters[i] | clusters[j]
            if _internal_load(union, problem.demand) > max_capacity:
                continue
            non_singleton = sum(
                1 for k, c in enumerate(clusters)
                if k not in (i, j) and len(c) > 1
            ) + 1
            if non_singleton > spare_aux:
                continue
            clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
            clusters.append(union)
            merged = True
            break
        if not merged:
            break

    tree = _build_tree(clusters, targets, problem.auxiliaries, root)
    evaluation = evaluate_tree(tree, problem)
    if not evaluation.feasible:
        raise OptimizationError(
            "heuristic could not find a feasible tree; overloaded: "
            f"{evaluation.overloaded_groups()}"
        )
    return evaluation
