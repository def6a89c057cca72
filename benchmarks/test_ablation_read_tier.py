"""Ablation — the optimistic read tier (docs/READS.md).

A 90/10 read-heavy zipfian KV workload offered open-loop at 24 x 1600/s,
far past the ordered path's saturation point.  Forcing every read through
the full multicast collapses under retransmissions; serving reads through
the unordered f+1 path scales past the consensus ceiling.  Both runs are
saturated on purpose, so their latencies measure backlog and are recorded
but not asserted.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import record
from repro.scenario import ProtocolSpec, ScenarioSpec, WorkloadSpec

READ_SPEEDUP = 5.0

ORDERED = ScenarioSpec(
    name="read90_zipf_ordered", seed=11, app="sharded_kv",
    workload=WorkloadSpec(clients=24, client_prefix="bench-c",
                          loop="open", rate=1600.0, destinations="local",
                          warmup=0.5, duration=1.5, key_dist="zipfian",
                          read_ratio=0.9, read_mode="ordered"),
    protocol=ProtocolSpec(checkpoint_interval=64, costs="bench"),
)
OPTIMISTIC = replace(
    ORDERED, name="read90_zipf_open",
    workload=replace(ORDERED.workload, read_mode="optimistic"))


def test_ablation_read_tier(run_scenario, benchmark):
    ordered, optimistic = run_scenario(
        lambda: (ORDERED.run(), OPTIMISTIC.run()))
    speedup = optimistic.throughput / ordered.throughput
    record(benchmark,
           ordered_tput=round(ordered.throughput, 1),
           optimistic_tput=round(optimistic.throughput, 1),
           speedup=round(speedup, 2),
           ordered_p50_ms=round(ordered.latency.median * 1000, 2),
           optimistic_p50_ms=round(optimistic.latency.median * 1000, 2))

    assert speedup >= READ_SPEEDUP, f"optimistic reads only {speedup:.2f}x ordered"
