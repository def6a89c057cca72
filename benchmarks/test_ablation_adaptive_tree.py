"""Ablation — workload-adaptive overlay trees (docs/TREES.md).

Eight target groups on a balanced fanout-4 tree; 90 % of the traffic goes
to zipf-ranked cross-half pairs whose pairing migrates every 4 s.  On the
static tree every hot pair's lca is the root (3 overlay hops); the online
planner re-clusters the hot pairs under one auxiliary (2 hops).  The
control runs the identical workload with the collector in observe-only
mode, and the 6 s warmup leaves the measurement window entirely
post-switch.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import record
from repro.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

ADAPT_GAIN = 1.3

STATIC = ScenarioSpec(
    name="adapt_skew_static", seed=11,
    topology=TopologySpec(groups=8, layout="balanced", fanout=4),
    workload=WorkloadSpec(clients=16, client_prefix="bench-c",
                          destinations="hotpairs", warmup=6.0, duration=2.0),
    protocol=ProtocolSpec(checkpoint_interval=64, max_in_flight=4,
                          costs="bench", adaptive_tree="observe"),
)
ADAPTIVE = replace(
    STATIC, name="adapt_zipf_hotspot_migration",
    protocol=replace(STATIC.protocol, adaptive_tree="on",
                     adapt_interval=0.5, adapt_cooldown=1.0))


def test_ablation_adaptive_tree(run_scenario, benchmark):
    static, adaptive = run_scenario(
        lambda: (STATIC.run(), ADAPTIVE.run()))
    p50_gain = static.latency.median / adaptive.latency.median
    hops_gain = static.mean_hops / adaptive.mean_hops
    record(benchmark,
           static_p50_ms=round(static.latency.median * 1000, 2),
           adaptive_p50_ms=round(adaptive.latency.median * 1000, 2),
           static_mean_hops=round(static.mean_hops, 4),
           adaptive_mean_hops=round(adaptive.mean_hops, 4),
           static_tput=round(static.throughput, 1),
           adaptive_tput=round(adaptive.throughput, 1),
           tree_switches=adaptive.tree_switches)

    assert adaptive.tree_switches >= 1
    assert static.tree_switches == 0
    assert p50_gain >= ADAPT_GAIN, f"p50 only {p50_gain:.2f}x lower"
    assert hops_gain >= ADAPT_GAIN, f"mean hops only {hops_gain:.2f}x lower"
