#!/usr/bin/env python3
"""Plan an optimized ByzCast overlay tree for a workload (§III-C).

Regenerates the paper's Table III for the Table II workloads, then runs
the optimizer on a custom workload: twelve shards with three hot
cross-shard pairs, where a flat tree would overload the root.

Run:  python examples/tree_planner.py
"""

from __future__ import annotations

from repro import destination
from repro.optimizer import OptimizationInput, optimize_exhaustive
from repro.optimizer.heuristic import optimize_heuristic
from repro.optimizer.report import format_table3, table3_report


def render_tree(tree) -> str:
    lines = []

    def walk(node, depth):
        tag = "(target)" if tree.is_target(node) else "(aux)"
        lines.append("  " * depth + f"{node} {tag}")
        for child in tree.children(node):
            walk(child, depth + 1)

    walk(tree.root, 1)
    return "\n".join(lines)


def main() -> None:
    print("=== Table III: optimization model outcomes (K = 9500 m/s) ===\n")
    print(format_table3(table3_report()))

    print("=== Exhaustive optimization for the Table II workloads ===\n")
    from repro.workload.spec import table2_skewed_demand, table2_uniform_demand

    for name, demand in (("uniform", table2_uniform_demand()),
                         ("skewed", table2_skewed_demand())):
        problem = OptimizationInput(
            targets=("g1", "g2", "g3", "g4"),
            auxiliaries=("h1", "h2", "h3"),
            demand=demand,
            capacity=9500.0,
        )
        best = optimize_exhaustive(problem)
        print(f"{name} workload -> objective ΣH = {best.objective}, tree:")
        print(render_tree(best.tree))
        print()

    print("=== Heuristic planning for a 12-shard deployment ===\n")
    targets = tuple(f"shard{i}" for i in range(12))
    demand = {
        destination("shard0", "shard1"): 8000.0,   # hot pair A
        destination("shard2", "shard3"): 8000.0,   # hot pair B
        destination("shard4", "shard5"): 8000.0,   # hot pair C
        destination("shard6", "shard7"): 500.0,
        destination("shard8", "shard11"): 300.0,
        destination("shard9", "shard10"): 200.0,
    }
    problem = OptimizationInput(
        targets=targets,
        auxiliaries=tuple(f"aux{i}" for i in range(6)),
        demand=demand,
        capacity=9500.0,
    )
    result = optimize_heuristic(problem)
    print(f"objective ΣH = {result.objective}, loads:")
    for group in sorted(result.tree.auxiliaries):
        print(f"  L({group}) = {result.loads[group]:.0f} m/s "
              f"(capacity {result.capacities[group]:.0f})")
    print("\ntree:")
    print(render_tree(result.tree))
    print("\nEach hot pair lives under its own auxiliary: their 8000 m/s")
    print("stay inside the branch and the root only carries the cold pairs.")


if __name__ == "__main__":
    main()
