#!/usr/bin/env python3
"""Locality study: skewed shard popularity and what the tree planner does.

§V-A2 evaluates workloads "with and without locality (i.e., skewed
access)".  This study drives a 4-shard ByzCast deployment with
Zipf-distributed shard popularity, shows the per-shard load imbalance that
results, and then demonstrates how the optimizer reacts when the *global*
traffic is also skewed: hot pairs are clustered under dedicated
auxiliaries, exactly as in the paper's Table III.

Run:  python examples/locality_study.py
"""

from __future__ import annotations

import random

from repro import ByzCastDeployment, OverlayTree, destination
from repro.optimizer import OptimizationInput
from repro.metrics.ascii import bar_chart
from repro.optimizer.enumerate import optimize_exhaustive
from repro.workload.spec import zipfian_local

TARGETS = ["g1", "g2", "g3", "g4"]


def main() -> None:
    tree = OverlayTree.two_level(TARGETS)
    deployment = ByzCastDeployment(tree)
    client = deployment.add_client("c1")
    sampler = zipfian_local(TARGETS, s=1.1)
    rng = random.Random(42)
    for __ in range(120):
        client.amulticast(sampler(rng), payload=("op",))
    deployment.run(until=20.0)
    assert client.pending() == 0

    print("Per-shard deliveries under Zipf(s=1.1) locality:")
    rows = []
    for shard in TARGETS:
        count = len(deployment.delivered_sequences(shard)[0])
        rows.append((shard, float(count)))
    print(bar_chart(rows, unit=" msgs"))

    print("\nNow suppose the *global* traffic is equally skewed:")
    demand = {
        destination("g1", "g2"): 9300.0,   # hot pair A
        destination("g3", "g4"): 9300.0,   # hot pair B
        destination("g1", "g3"): 100.0,    # a trickle of cross traffic
    }
    problem = OptimizationInput(
        targets=tuple(TARGETS), auxiliaries=("h1", "h2", "h3"),
        demand=demand, capacity=9500.0,
    )
    best = optimize_exhaustive(problem)
    print(f"optimized tree (objective ΣH = {best.objective}):")
    for node in sorted(best.tree.nodes):
        parent = best.tree.parent(node) or "(root)"
        print(f"  {node:<4} parent={parent:<6} load={best.loads[node]:7.0f} m/s")
    hot_lca = best.tree.lca({"g1", "g2"})
    assert hot_lca != best.tree.root
    print(f"\nEach hot pair got its own auxiliary (lca of g1,g2 is {hot_lca}),")
    print("so 18,600 of the 18,700 m/s never touch the root — a flat tree")
    print("would have put all of it on one group (capacity 9,500).")


if __name__ == "__main__":
    main()
