"""Materialize a :class:`~repro.scenario.spec.ScenarioSpec`.

This is the one tree/deployment/driver construction path and
:func:`run_scenario` the one warmup-then-window measurement loop of the
repo: the ``bench/`` workloads, the paper's figures
(``repro.runtime.scenarios``, all three protocols via ``protocol.kind``),
the capacity probes, the ``repro.runtime.chaos`` soak, the CLI and the
ablations all call into these builders instead of wiring deployments by
hand; nemesis and adaptive-tree arming exist once
(:func:`build_armed_deployment`, :func:`arm_adaptive_tree`).  Everything is
derived from the spec plus its seed, so a scenario on the sim backend is
bit-identical across runs and hosts.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.bcast.config import CostModel
from repro.core.deployment import ByzCastDeployment, SiteAssigner
from repro.core.tree import OverlayTree
from repro.env import LatencyModel, Runtime, make_runtime
from repro.errors import ConfigurationError
from repro.metrics.collector import LatencyCollector, ThroughputMeter
from repro.metrics.stats import LatencySummary
from repro.scenario.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.workload import spec as workloads
from repro.workload.clients import ClosedLoopDriver, OpenLoopDriver

# ``repro.runtime.environments`` (the LAN/WAN and cost presets) is imported
# inside the functions that use it: the ``repro.runtime`` package imports
# its harness modules eagerly and those import this module.


def build_tree(topology: TopologySpec) -> OverlayTree:
    """The overlay tree of a topology spec."""
    targets = list(topology.target_names())
    if topology.layout == "two_level":
        return OverlayTree.two_level(targets)
    if topology.layout == "paper":
        return OverlayTree.paper_tree()
    if topology.layout == "balanced":
        return OverlayTree.balanced(targets, fanout=topology.fanout)
    raise ConfigurationError(f"unknown tree layout {topology.layout!r}")


def build_latency(topology: TopologySpec) -> Optional[LatencyModel]:
    from repro.runtime.environments import lan_latency_model, wan_latency_model

    if topology.latency == "default":
        return None
    if topology.latency == "lan":
        return lan_latency_model()
    if topology.latency == "wan":
        return wan_latency_model()
    raise ConfigurationError(f"unknown latency model {topology.latency!r}")


def build_site_assigner(topology: TopologySpec) -> Optional[SiteAssigner]:
    if topology.sites == "single":
        return None
    if topology.sites == "wan_spread":
        from repro.runtime.environments import wan_site_assigner

        return wan_site_assigner
    raise ConfigurationError(f"unknown site model {topology.sites!r}")


def client_site(topology: TopologySpec, index: int) -> str:
    """The site of client ``index``: ``site0``, except under ``wan_spread``,
    where clients live in the regions too (round-robin), so their first
    hop crosses the Table I latency matrix like every replica link does."""
    if topology.sites == "wan_spread":
        from repro.runtime.environments import REGIONS

        return REGIONS[index % len(REGIONS)]
    return "site0"


def build_costs(spec: ScenarioSpec) -> CostModel:
    from repro.runtime.environments import (
        bench_costs,
        calibrated_costs,
        soak_costs,
    )

    models = {"calibrated": calibrated_costs, "bench": bench_costs,
              "soak": soak_costs}
    try:
        return models[spec.protocol.costs]()
    except KeyError:
        raise ConfigurationError(
            f"unknown cost model {spec.protocol.costs!r}; "
            f"choose one of {sorted(models)}") from None


def scenario_membership(spec: ScenarioSpec) -> Dict[str, Tuple[str, ...]]:
    """Group id → replica endpoint names, derived from the spec alone.

    Matches the deployment's ``BroadcastConfig.replicas`` naming, so fault
    schedules can be generated *before* the deployment exists (Byzantine
    assignments are construction-time).
    """
    count = 3 * spec.topology.f + 1
    return {
        gid: tuple(f"{gid}/r{i}" for i in range(count))
        for gid in spec.build_tree().nodes
    }


def scenario_fault_profile(spec: ScenarioSpec):
    """The nemesis intensity profile of a spec, churn counts folded in.

    ``faults.joins`` / ``leaves`` / ``scale_cycles`` add membership-churn
    ops *on top of* the named intensity profile, so e.g. ``intensity:
    "medium", joins: 2`` soaks the usual medium chaos plus two join swaps.
    """
    from repro.faults.nemesis import PROFILES

    profile = PROFILES[spec.faults.intensity]
    faults = spec.faults
    if faults.joins or faults.leaves or faults.scale_cycles:
        profile = dataclass_replace(
            profile,
            join_ops=profile.join_ops + faults.joins,
            leave_ops=profile.leave_ops + faults.leaves,
            scale_cycles=profile.scale_cycles + faults.scale_cycles,
        )
    return profile


def build_runtime(spec: ScenarioSpec, trace_capacity: int = 0) -> Runtime:
    """The execution runtime of a scenario (backend, seed, network, wire)."""
    if spec.backend == "sim":
        return make_runtime(
            "sim", latency=build_latency(spec.topology),
            seed=spec.seed, trace_capacity=trace_capacity)
    return make_runtime(
        spec.backend, seed=spec.seed, trace_capacity=trace_capacity,
        wire=spec.protocol.resolved_wire(spec.backend))


def build_deployment(
    spec: ScenarioSpec,
    runtime: Optional[Runtime] = None,
    replica_classes: Optional[Dict] = None,
    app_overrides: Optional[Dict] = None,
    trace_capacity: int = 0,
    kv=None,
):
    """The deployment of a scenario (protocol, groups, network, app wiring).

    ``protocol.kind`` picks the protocol: a
    :class:`~repro.core.deployment.ByzCastDeployment` over the topology's
    tree, the Baseline over the same targets, or BFT-SMaRt — a
    ``ByzCastDeployment`` over the one group g1, placed like the
    topology's g1.

    ``replica_classes`` / ``app_overrides`` compose nemesis Byzantine
    assignments on top of the scenario's own application: when the spec
    names ``app: "sharded_kv"``, every replica runs the store except the
    victims the overrides claim.  Pass a prepared :class:`ShardedKVApp`
    as ``kv`` to keep a handle on its machines; otherwise one is created
    on demand (reachable via ``deployment.kv``).
    """
    proto = spec.protocol
    if runtime is None:
        runtime = build_runtime(spec, trace_capacity)
    sites = build_site_assigner(spec.topology)
    engine = dict(
        f=spec.topology.f,
        costs=build_costs(spec),
        max_batch=proto.max_batch,
        request_timeout=proto.request_timeout,
        checkpoint_interval=proto.checkpoint_interval,
        max_in_flight=proto.max_in_flight,
        runtime=runtime,
    )
    tree = spec.build_tree()
    overrides = dict(app_overrides or {})
    if spec.app == "sharded_kv":
        from repro.apps.sharded_kv import ShardedKVApp

        if kv is None:
            kv = ShardedKVApp(tree, f=spec.topology.f,
                              keys=spec.workload.keys)
        merged = {gid: dict(factories)
                  for gid, factories in kv.app_overrides().items()}
        for gid, factories in overrides.items():
            merged.setdefault(gid, {}).update(factories)
        overrides = merged
    engine.update(
        sites=sites,
        replica_classes=replica_classes,
        app_overrides=overrides or None,
    )
    if proto.kind == "baseline":
        from repro.baseline.naive import BaselineDeployment

        deployment = BaselineDeployment(list(spec.target_names()), **engine)
    else:
        deployment = ByzCastDeployment(tree, **engine)
    # the relay proxies' retransmit pace follows the clients' (the soak
    # harness runs both at sub-second timeouts)
    for gid in deployment.groups:
        for app in deployment.apps(gid):
            app.relay_retransmit_timeout = proto.retransmit_timeout
    deployment.kv = kv
    _freeze_once()
    return deployment


_frozen = False


def _freeze_once() -> None:
    """Move everything alive after the process's first deployment build —
    modules, classes, the deployment itself — out of the cycle collector's
    reach (``gc.freeze``), so a full collection traverses only what the run
    allocates.  Once per process: freezing at every build would pin the
    garbage of earlier deployments (a test session builds hundreds)."""
    global _frozen
    if not _frozen:
        _frozen = True
        gc.freeze()


def build_armed_deployment(spec: ScenarioSpec,
                           runtime: Optional[Runtime] = None):
    """The deployment of a scenario with its nemesis plan armed.

    Chaos must wrap the transport before any actor registers and Byzantine
    assignments are construction-time, so the schedule is expanded from
    the spec's deterministic membership first, then the deployment is
    built around it, then the timed ops are applied.  Returns
    ``(deployment, schedule, elasticity)``; ``schedule`` is ``None``
    without ``spec.faults``, ``elasticity`` is ``None`` unless churn ops
    or ``adaptive_tree: "on"`` need the controller.  A runtime created
    here is closed again if construction fails.
    """
    owns_runtime = runtime is None
    if owns_runtime:
        runtime = build_runtime(spec)
    try:
        schedule = None
        if spec.faults is not None:
            from repro.env.chaos import ChaosConfig, install_chaos
            from repro.faults.nemesis import CHURN_KINDS, NemesisSchedule

            install_chaos(runtime, ChaosConfig())
            schedule = NemesisSchedule.generate(
                groups=scenario_membership(spec),
                seed=spec.seed,
                duration=spec.horizon,
                profile=scenario_fault_profile(spec),
                f=spec.topology.f,
            )
        deployment = build_deployment(
            spec, runtime=runtime,
            replica_classes=schedule.replica_classes if schedule else None,
            app_overrides=schedule.app_overrides if schedule else None,
        )
        elasticity = None
        if spec.protocol.adaptive_tree == "on" or (
                schedule is not None
                and CHURN_KINDS & {op.kind for op in schedule.ops}):
            from repro.faults.elasticity import elasticity_controller

            elasticity = elasticity_controller(deployment)
        if schedule is not None:
            schedule.apply(deployment)
    except BaseException:
        if owns_runtime:
            runtime.close()
        raise
    return deployment, schedule, elasticity


def arm_adaptive_tree(spec: ScenarioSpec, deployment, elasticity):
    """Wire ``protocol.adaptive_tree`` onto a deployment's clients.

    ``observe``: every client notes (destination set, hop count) into one
    shared ring; ``on``: the planner closes the loop by driving ordered
    tree switches through ``elasticity``.  Call after the clients exist.
    Returns ``(traffic, planner)``, each ``None`` when not armed; the
    planner is started.
    """
    proto = spec.protocol
    if proto.adaptive_tree == "off":
        return None, None
    from repro.optimizer.traffic import TrafficCollector

    traffic = TrafficCollector()
    runtime_clock = deployment.runtime.clock
    traffic.bind_clock(lambda: runtime_clock.now)
    for client in deployment.clients:
        client.traffic = traffic
    planner = None
    if proto.adaptive_tree == "on":
        from repro.optimizer.planner import TreePlanner

        planner = TreePlanner(
            elasticity, traffic,
            interval=proto.adapt_interval,
            min_samples=proto.adapt_min_samples,
            cooldown=proto.adapt_cooldown,
        ).start()
    return traffic, planner


def retained_high_water(deployment) -> int:
    """High-water mark of retained executed batches across all replicas."""
    return max(replica.log.max_retained
               for group in deployment.groups.values()
               for replica in group.replicas)


def build_destination_sampler(
    workload: WorkloadSpec,
    targets,
    clock: Callable[[], float],
    client: int = 0,
) -> workloads.DestinationSampler:
    """The destination distribution of a workload spec over ``targets``.

    ``clock`` (virtual seconds) paces ``hotpairs``' migration; ``client``
    is the index of the client the sampler is for — only ``home`` looks
    at it.
    """
    targets = list(targets)
    if workload.destinations == "fixed":
        return workloads.fixed_destination(*workload.fixed)
    if workload.destinations == "home":
        return workloads.fixed_destination(
            targets[client * len(targets) // workload.clients])
    if workload.destinations == "skewed":
        return workloads.skewed_pairs()
    if workload.destinations == "local":
        return workloads.local_uniform(targets)
    if workload.destinations == "global":
        return workloads.uniform_pairs(targets)
    if workload.destinations == "mixed":
        return workloads.mixed_ratio(
            workloads.local_uniform(targets),
            workloads.uniform_pairs(targets),
            workload.local_parts, workload.global_parts,
        )
    if workload.destinations == "zipfian":
        return workloads.mixed_ratio(
            workloads.zipfian_local(targets),
            workloads.zipfian_pairs(targets),
            workload.local_parts, workload.global_parts,
        )
    if workload.destinations == "hotpairs":
        return workloads.hotspot_pairs(targets, clock)
    raise ConfigurationError(
        f"unknown destination distribution {workload.destinations!r}")


def build_key_sampler(workload: WorkloadSpec) -> workloads.KeySampler:
    """The key distribution of a sharded-KV workload spec."""
    if workload.key_dist == "uniform":
        return workloads.uniform_keys(workload.keys)
    if workload.key_dist == "zipfian":
        return workloads.zipfian_keys(workload.keys)
    raise ConfigurationError(
        f"unknown key distribution {workload.key_dist!r}")


def build_drivers(
    spec: ScenarioSpec,
    deployment,
    collector: Optional[LatencyCollector] = None,
    meter: Optional[ThroughputMeter] = None,
    local_collector: Optional[LatencyCollector] = None,
    global_collector: Optional[LatencyCollector] = None,
) -> List:
    """One driver per client of the workload, wired to the deployment."""
    workload = spec.workload
    targets = sorted(spec.target_names())
    runtime_clock = deployment.runtime.clock
    clock = lambda: runtime_clock.now  # noqa: E731 - tiny adaptor
    op_sampler = None
    read_sampler = None
    if spec.app == "sharded_kv":
        op_sampler = deployment.kv.op_sampler(
            build_key_sampler(workload),
            cross_ratio=workload.kv_cross_ratio,
            read_ratio=workload.kv_read_ratio,
        )
        if workload.read_ratio > 0:
            read_sampler = deployment.kv.read_sampler(
                build_key_sampler(workload))
    elif workload.read_ratio > 0:
        # opaque workloads probe the default application read
        # (delivery counts) on a uniformly random target group
        local = workloads.local_uniform(targets)

        def read_sampler(rng, local=local):
            return local(rng), ("peek",)
    # one shared (stateless) sampler, except ``home``: one per client
    per_client = op_sampler is None and workload.destinations == "home"
    sampler = None
    if op_sampler is None and not per_client:
        sampler = build_destination_sampler(workload, targets, clock=clock)
    stop_after = spec.horizon
    drivers = []
    for index in range(workload.clients):
        name = f"{workload.client_prefix}{index}"
        client = deployment.add_client(
            name, site=client_site(spec.topology, index),
            retransmit_timeout=spec.protocol.retransmit_timeout)
        common = dict(
            sampler=(build_destination_sampler(workload, targets, clock,
                                               client=index)
                     if per_client else sampler),
            rng=deployment.rng.stream(f"client.{name}"),
            collector=collector,
            meter=meter,
            local_collector=local_collector,
            global_collector=global_collector,
            stop_after=stop_after,
            op_sampler=op_sampler,
            read_ratio=workload.read_ratio,
            read_mode=workload.read_mode,
            read_sampler=read_sampler,
        )
        if workload.loop == "closed":
            drivers.append(ClosedLoopDriver(client, **common))
        elif workload.loop == "open":
            drivers.append(OpenLoopDriver(
                client, rate=workload.rate, **common))
        else:
            raise ConfigurationError(f"unknown loop {workload.loop!r}")
    return drivers


@dataclass(frozen=True)
class ScenarioResult:
    """Measurements of one scenario run."""

    name: str
    backend: str
    protocol: str
    clients: int
    duration: float
    throughput: float
    latency: LatencySummary
    local_latency: LatencySummary
    global_latency: LatencySummary
    sent: int
    completed: int
    #: wall-clock seconds the run took on the host (informational)
    wall_seconds: float
    #: the in-window latencies behind the three summaries (CDF figures)
    samples: Tuple[float, ...] = ()
    local_samples: Tuple[float, ...] = ()
    global_samples: Tuple[float, ...] = ()
    #: high-water mark of retained executed batches across all replicas
    max_retained: int = 0
    #: adaptive-tree runs (docs/TREES.md): mean per-message hop count over
    #: the collector's window (post-switch traffic after an adaptation)
    #: and the number of ordered tree switches the planner committed
    mean_hops: float = 0.0
    tree_switches: int = 0
    #: Monitor counter snapshot — the determinism fingerprint on sim
    counters: Dict[str, int] = field(default_factory=dict)
    #: the run's :class:`~repro.apps.sharded_kv.ShardedKVApp` handle
    #: (``app: "sharded_kv"`` scenarios only) for post-run inspection
    kv: Optional[object] = None

    def row(self) -> str:
        return (
            f"{self.name:<28} clients={self.clients:<5} "
            f"tput={self.throughput:>10.1f} m/s  "
            f"mean={self.latency.mean * 1000:8.2f} ms "
            f"p95={self.latency.p95 * 1000:8.2f} ms "
            f"({self.wall_seconds:.1f}s wall)"
        )


def run_scenario(
    spec: ScenarioSpec,
    runtime: Optional[Runtime] = None,
    max_events: Optional[int] = None,
) -> ScenarioResult:
    """Build, run and measure one scenario.

    The measurement methodology matches the paper's harness: a warmup
    interval, then a measurement window of ``workload.duration`` seconds —
    only completions inside the window count.  When the spec carries a
    :class:`~repro.scenario.spec.FaultSpec`, the nemesis schedule is
    expanded from the fault seed and armed before the run
    (:func:`build_armed_deployment`: measurement under faults; the
    invariant-checked post-mortem lives in ``repro.runtime.chaos``).
    """
    spec.check()
    workload = spec.workload
    window = (workload.warmup, spec.horizon)
    collector = LatencyCollector(*window)
    local_collector = LatencyCollector(*window)
    global_collector = LatencyCollector(*window)
    meter = ThroughputMeter(*window)

    started = time.perf_counter()
    deployment, _, elasticity = build_armed_deployment(spec, runtime=runtime)
    try:
        drivers = build_drivers(
            spec, deployment,
            collector=collector, meter=meter,
            local_collector=local_collector, global_collector=global_collector,
        )
        traffic, planner = arm_adaptive_tree(spec, deployment, elasticity)
        deployment.start()
        for driver in drivers:
            driver.start()
        deployment.run(until=spec.horizon, max_events=max_events)
        for driver in drivers:
            driver.stop()
        if planner is not None:
            planner.stop()
        return ScenarioResult(
            name=spec.name,
            backend=spec.backend,
            protocol=spec.protocol.kind,
            clients=workload.clients,
            duration=workload.duration,
            throughput=meter.throughput(),
            latency=collector.summary(),
            local_latency=local_collector.summary(),
            global_latency=global_collector.summary(),
            sent=sum(d.sent for d in drivers),
            completed=sum(d.completed for d in drivers),
            wall_seconds=time.perf_counter() - started,
            samples=tuple(collector.in_window()),
            local_samples=tuple(local_collector.in_window()),
            global_samples=tuple(global_collector.in_window()),
            max_retained=retained_high_water(deployment),
            mean_hops=(traffic.mean_hops(since=workload.warmup)
                       if traffic is not None else 0.0),
            tree_switches=planner.switches if planner is not None else 0,
            counters=deployment.monitor.snapshot(),
            kv=deployment.kv,
        )
    finally:
        if runtime is None:
            deployment.runtime.close()
