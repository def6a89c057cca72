"""Ablation — the batching effect §IV relies on.

The paper notes that "thanks to BFT-SMaRt's batching optimization, it is
likely that all such invocations [the 3f+1 relayed copies of one message]
are ordered in a single instance of consensus".  The leader batches
naturally: it cuts a batch once the instance's fixed cost has run, so the
copies that arrive meanwhile ride in it, with no batch timer.  This
ablation pits that against ``max_batch=1`` (one request per instance) on
single-client latency:

* with one request per instance the copies straggle into several
  consensus instances at the child group — global ≈ 3 × local;
* batched, they collapse into one — global ≈ 2 × local, the paper's
  Fig. 7 shape, and the child group decides one instance per global op.
"""

from __future__ import annotations

from conftest import record
from repro.runtime.environments import BENCH_SCALE
from repro.scenario import ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec


def measure(max_batch: int):
    """(local mean, global mean, consensus instances per global op)."""

    def run(fixed):
        return ScenarioSpec(
            name="ablation-batching",
            topology=TopologySpec(groups=4, latency="lan"),
            workload=WorkloadSpec(clients=1, destinations="fixed",
                                  fixed=fixed, warmup=0.5, duration=2.0),
            protocol=ProtocolSpec(max_batch=max_batch, max_in_flight=4,
                                  costs="bench"),
        ).run()

    local, global_ = run(("g1",)), run(("g1", "g2"))
    instances = global_.counters["consensus.propose"] / global_.completed
    return local.latency.mean, global_.latency.mean, instances


def test_ablation_natural_batching(run_scenario, benchmark):
    def run_both():
        return measure(1), measure(ProtocolSpec.max_batch)

    (local_one, global_one, _), (local_nat, global_nat, instances) = \
        run_scenario(run_both)
    ratio_one = global_one / local_one
    ratio_nat = global_nat / local_nat
    record(benchmark,
           ratio_max_batch_1=round(ratio_one, 2),
           ratio_natural=round(ratio_nat, 2),
           instances_per_global_op=round(instances, 2),
           local_ms=round(local_nat * 1000 / BENCH_SCALE, 2),
           global_ms=round(global_nat * 1000 / BENCH_SCALE, 2))

    # One request per instance: a third (partial) ordering round shows up.
    assert ratio_one > 2.5
    # Natural batching: the paper's "global ≈ 2 x local" ...
    assert 1.7 < ratio_nat < 2.4
    # ... because the relayed copies of one op share one child instance:
    # three instances per op, one at the root and one per destination.
    assert instances < 3.1
    assert global_nat < global_one
