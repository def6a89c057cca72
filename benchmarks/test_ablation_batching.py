"""Ablation — the batching effect §IV relies on, and relay certificates.

The paper notes that "thanks to BFT-SMaRt's batching optimization, it is
likely that all such invocations [the 3f+1 relayed copies of one message]
are ordered in a single instance of consensus".  Here the copies are not
ordered at all: they are votes, and the child group orders one relay
certificate of f+1 matching copies per relayed batch (docs/PROTOCOL.md
§3.2).  So the straggling copies that ``max_batch=1`` (one request per
instance) used to spread over several child instances — global ≈ 3 ×
local — are gone by design.  This ablation pits that setting against the
leader's natural batching (it cuts a batch once the instance's fixed cost
has run, with no batch timer) on single-client latency:

* at both settings global ≈ 2 × local, the paper's Fig. 7 shape;
* at both, the child group decides one instance per global op: three
  instances per op, one at the root and one per destination.
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

    (local_one, global_one, instances_one), \
        (local_nat, global_nat, instances_nat) = run_scenario(run_both)
    ratio_one = global_one / local_one
    ratio_nat = global_nat / local_nat
    record(benchmark,
           ratio_max_batch_1=round(ratio_one, 2),
           ratio_natural=round(ratio_nat, 2),
           instances_per_global_op_max_batch_1=round(instances_one, 2),
           instances_per_global_op=round(instances_nat, 2),
           local_ms=round(local_nat * 1000 / BENCH_SCALE, 2),
           global_ms=round(global_nat * 1000 / BENCH_SCALE, 2))

    # At either batch size: the paper's "global ≈ 2 x local" ...
    for ratio in (ratio_one, ratio_nat):
        assert 1.7 < ratio < 2.4
    # ... because a relayed batch is one certificate, one child instance:
    # three instances per op, one at the root and one per destination.
    for instances in (instances_one, instances_nat):
        assert instances < 3.1
