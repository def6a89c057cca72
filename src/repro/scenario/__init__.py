"""Declarative scenario specs: one topology + workload model for everything.

A :class:`ScenarioSpec` describes a complete run — the overlay topology
(group count, tree layout, latency model), the workload (client count,
closed- vs open-loop arrival process, destination and key distributions,
duration), protocol tuning (batching, checkpointing, pipeline depth), the
application (plain ByzCast or the sharded KV store) and an optional
nemesis fault plan — as plain data that round-trips through JSON.

Every harness in the repo builds from the same spec:

* ``bench/`` (``BENCHMARK.json``) and the ``benchmarks/test_ablation_*``
  pairs — each workload is a spec literal run through
  :func:`run_scenario` or the builders;
* the paper's figures and the capacity probes
  (:mod:`repro.runtime.scenarios`, :mod:`repro.runtime.capacity`) — spec
  literals that differ in ``protocol.kind`` (ByzCast, Baseline,
  BFT-SMaRt), run through :func:`run_scenario`;
* ``python -m repro chaos [FILE]`` — the soak *takes* a spec
  (:func:`repro.runtime.chaos.run_chaos_soak`; the ``soak_*.json`` files
  under ``examples/scenarios/``) and arms it through the same helper
  :func:`run_scenario` uses;
* ``python -m repro scenario validate|run`` — lint or execute a spec file.

See ``docs/SCENARIOS.md`` for the schema and examples.
"""

from repro.scenario.spec import (
    SCENARIO_SCHEMA_VERSION,
    FaultSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.scenario.build import (
    ScenarioResult,
    build_deployment,
    build_destination_sampler,
    build_tree,
    run_scenario,
)

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "FaultSpec",
    "ProtocolSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "build_deployment",
    "build_destination_sampler",
    "build_tree",
    "run_scenario",
]
