"""Ablation — the batching effect §IV relies on.

The paper notes that "thanks to BFT-SMaRt's batching optimization, it is
likely that all such invocations [the 3f+1 relayed copies of one message]
are ordered in a single instance of consensus".  This ablation turns the
leader batch delay off and on and measures single-client global latency:

* without batching the copies straggle into two consensus instances at the
  child group — global ≈ 3 × local;
* with batching they collapse into one — global ≈ 2 × local, the paper's
  Fig. 7 shape.
"""

from __future__ import annotations

from conftest import record
from repro.runtime.environments import BENCH_SCALE, bench_batch_delay
from repro.scenario import ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec


def measure(batch_delay: float):
    def mean_latency(fixed):
        return ScenarioSpec(
            name="ablation-batching",
            topology=TopologySpec(groups=4, latency="lan"),
            workload=WorkloadSpec(clients=1, destinations="fixed",
                                  fixed=fixed, warmup=0.5, duration=2.0),
            protocol=ProtocolSpec(batch_delay=batch_delay, max_in_flight=4,
                                  costs="bench"),
        ).run().latency.mean

    return mean_latency(("g1",)), mean_latency(("g1", "g2"))


def test_ablation_batch_delay(run_scenario, benchmark):
    def run_both():
        return measure(0.0), measure(bench_batch_delay(BENCH_SCALE))

    (local_off, global_off), (local_on, global_on) = run_scenario(run_both)
    ratio_off = global_off / local_off
    ratio_on = global_on / local_on
    record(benchmark,
           ratio_without_batching=round(ratio_off, 2),
           ratio_with_batching=round(ratio_on, 2),
           local_ms=round(local_on * 1000 / BENCH_SCALE, 2),
           global_ms=round(global_on * 1000 / BENCH_SCALE, 2))

    # Without batching: a third (partial) ordering round shows up.
    assert ratio_off > 2.5
    # With batching: the paper's "global ≈ 2 x local".
    assert 1.7 < ratio_on < 2.4
    # Batching strictly improves the global path.
    assert global_on < global_off
