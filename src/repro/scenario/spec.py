"""The scenario schema: frozen dataclasses + dict/JSON round-trip + linting.

Everything here is plain data.  Construction of trees, deployments and
drivers lives in :mod:`repro.scenario.build`; this module only describes
*what* to build, validates it, and serializes it losslessly —
``ScenarioSpec.from_dict(spec.to_dict()) == spec`` holds for every valid
spec (pinned by a hypothesis property test).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.core.client import READ_MODES  # the modes aread accepts
from repro.errors import ConfigurationError

#: the one document layout this build reads and writes; bump when the
#: serialized layout changes incompatibly
SCENARIO_SCHEMA_VERSION = 7

#: enumerated axis values (also the vocabulary ``validate`` lints against)
LAYOUTS = ("two_level", "paper", "balanced")
LATENCIES = ("default", "lan", "wan")
SITES = ("single", "wan_spread")
LOOPS = ("closed", "open")
DESTINATIONS = ("local", "global", "mixed", "zipfian", "hotpairs", "fixed",
                "home", "skewed")
KEY_DISTS = ("uniform", "zipfian")
COSTS = ("calibrated", "bench", "soak")
APPS = ("none", "sharded_kv")
BACKENDS = ("sim", "rt")
INTENSITIES = ("light", "medium", "heavy", "churn")
WIRES = ("auto", "json", "binary")
ADAPTIVE_TREE_MODES = ("off", "observe", "on")
KINDS = ("byzcast", "baseline", "bftsmart")


def _plain(value: Any) -> Any:
    """Dataclass field value -> JSON-friendly value (tuples become lists)."""
    if isinstance(value, tuple):
        return list(value)
    return value


def _section_to_dict(section: Any) -> Dict[str, Any]:
    return {f.name: _plain(getattr(section, f.name)) for f in fields(section)}


#: what a document value must be, by the type of its field's default
_EXPECTED = {bool: "a bool", int: "an int", float: "a number",
             str: "a string", tuple: "a list of strings"}


def _typed(value: Any, default: Any, where: str) -> Any:
    """``value`` if it has the type of ``default`` (a number for a float, a
    list of strings for a tuple, never a bool for a number), else raise."""
    kind = type(default)
    if kind is tuple:
        ok = isinstance(value, (list, tuple)) \
            and all(isinstance(item, str) for item in value)
    else:
        ok = (isinstance(value, (int, float) if kind is float else kind)
              and (kind is bool or not isinstance(value, bool)))
    if not ok:
        raise ConfigurationError(
            f"{where} must be {_EXPECTED[kind]}, got {value!r}")
    return tuple(value) if kind is tuple else value


def _section_from_dict(cls, raw: Dict[str, Any], where: str):
    """Build a section dataclass, rejecting unknown keys and mistyped
    values loudly."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where} must be an object, got {type(raw).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {where}; known: {sorted(known)}"
        )
    return cls(**{name: _typed(value, known[name].default, f"{where}.{name}")
                  for name, value in raw.items()})


@dataclass(frozen=True)
class TopologySpec:
    """Groups, overlay-tree layout and network geometry."""

    #: number of target groups, named ``g1..gN``
    groups: int = 2
    #: ``two_level`` | ``paper`` (the Fig. 1(a) tree) | ``balanced``
    layout: str = "two_level"
    #: targets/auxiliaries per inner node of a ``balanced`` tree
    fanout: int = 8
    #: per-group fault threshold (3f+1 replicas per group)
    f: int = 1
    #: ``default`` (uniform sim latency) | ``lan`` | ``wan`` (Table I)
    latency: str = "default"
    #: ``single`` site or ``wan_spread`` (§V-B3 one replica per region)
    sites: str = "single"

    def target_names(self) -> Tuple[str, ...]:
        return tuple(f"g{i + 1}" for i in range(self.groups))

    def lint(self) -> List[str]:
        problems = []
        if self.layout not in LAYOUTS:
            problems.append(
                f"topology.layout {self.layout!r} not in {list(LAYOUTS)}")
        if self.latency not in LATENCIES:
            problems.append(
                f"topology.latency {self.latency!r} not in {list(LATENCIES)}")
        if self.sites not in SITES:
            problems.append(
                f"topology.sites {self.sites!r} not in {list(SITES)}")
        if self.groups < 1:
            problems.append("topology.groups must be >= 1")
        if self.layout == "paper" and self.groups != 4:
            problems.append(
                "topology.layout 'paper' is the fixed Fig. 1(a) tree over "
                "g1..g4; set groups=4")
        if self.layout == "balanced" and self.fanout < 2:
            problems.append("topology.fanout must be >= 2")
        if self.f < 1:
            problems.append("topology.f must be >= 1")
        return problems


@dataclass(frozen=True)
class WorkloadSpec:
    """Clients, arrival process, destination + key distributions, timing."""

    clients: int = 8
    #: client endpoint names are ``{client_prefix}{index}``
    client_prefix: str = "c"
    #: ``closed`` (paper §IV, no think time) | ``open`` (Poisson)
    loop: str = "closed"
    #: per-client arrival rate in msgs/s (open loop)
    rate: float = 100.0
    #: ``local`` | ``global`` | ``mixed`` | ``zipfian`` | ``hotpairs`` |
    #: ``fixed`` (always ``fixed``) | ``home`` (client *i*
    #: always sends to target ``i * groups // clients``: an equal share of
    #: the clients per group, Fig. 4(a)) | ``skewed`` (Table II: only
    #: {g1,g2} and {g3,g4})
    destinations: str = "mixed"
    #: the one destination set of ``destinations: "fixed"``
    fixed: Tuple[str, ...] = ()
    #: local:global ratio of the mixed-style distributions
    local_parts: int = 10
    global_parts: int = 1
    warmup: float = 1.0
    duration: float = 4.0
    #: sharded-KV workloads only: key-space size and key distribution
    keys: int = 64
    key_dist: str = "uniform"
    #: fraction of KV ops that are cross-shard transfers / reads
    kv_cross_ratio: float = 0.1
    kv_read_ratio: float = 0.2
    #: read-*tier* axis (docs/READS.md): fraction of operations
    #: issued as reads, and how they are served — ``ordered`` routes them
    #: through the full multicast (the comparison baseline), ``optimistic``
    #: through the unordered f+1 fast path.  Orthogonal to
    #: ``kv_read_ratio`` (which mixes ordered gets into the write stream).
    read_ratio: float = 0.0
    read_mode: str = "ordered"

    def lint(self, app: str = "none") -> List[str]:
        problems = []
        if self.clients < 1:
            problems.append("workload.clients must be >= 1")
        if self.loop not in LOOPS:
            problems.append(f"workload.loop {self.loop!r} not in {list(LOOPS)}")
        if self.loop == "open" and self.rate <= 0:
            problems.append("workload.rate must be positive for the open loop")
        if self.destinations not in DESTINATIONS:
            problems.append(
                f"workload.destinations {self.destinations!r} "
                f"not in {list(DESTINATIONS)}")
        if self.local_parts < 0 or self.global_parts < 0 \
                or self.local_parts + self.global_parts == 0:
            problems.append("workload local/global parts must be non-negative "
                            "and not both zero")
        if self.warmup < 0 or self.duration <= 0:
            problems.append("workload.warmup must be >= 0 and duration > 0")
        if not 0.0 <= self.read_ratio <= 1.0:
            problems.append("workload.read_ratio must be in [0, 1]")
        if self.read_mode not in READ_MODES:
            problems.append(
                f"workload.read_mode {self.read_mode!r} not in {list(READ_MODES)}")
        if app == "sharded_kv":
            if self.keys < 1:
                problems.append("workload.keys must be >= 1 for sharded_kv")
            if self.key_dist not in KEY_DISTS:
                problems.append(
                    f"workload.key_dist {self.key_dist!r} not in {list(KEY_DISTS)}")
            if not 0.0 <= self.kv_cross_ratio <= 1.0 \
                    or not 0.0 <= self.kv_read_ratio <= 1.0:
                problems.append("workload.kv_cross_ratio and kv_read_ratio "
                                "must be in [0, 1]")
            if self.kv_cross_ratio + self.kv_read_ratio > 1.0:
                problems.append("workload.kv_cross_ratio + kv_read_ratio "
                                "must not exceed 1")
        return problems


@dataclass(frozen=True)
class ProtocolSpec:
    """The protocol under test and its broadcast-engine tuning."""

    #: ``byzcast`` | ``baseline`` (§V-A3: one sequencer group orders every
    #: message, then the targets order it again) | ``bftsmart`` (ByzCast
    #: over the one group g1, which orders everything; the topology only
    #: places g1's replicas)
    kind: str = "byzcast"
    max_batch: int = 400
    #: inert: accepted and ignored, kept only because the benchmark's
    #: workload definitions still set it.  Leaders batch naturally
    #: (``Replica._maybe_propose``), with no batch timer.
    batch_delay: float = 0.0
    #: inert, for the same reason as ``batch_delay``
    adaptive_batching: bool = False
    request_timeout: float = 2.0
    retransmit_timeout: float = 4.0
    #: executed cids between application checkpoints (0 = off)
    checkpoint_interval: int = 0
    #: consensus pipeline depth (docs/PIPELINE.md)
    max_in_flight: int = 1
    #: CPU cost model: ``calibrated`` (paper scale) | ``bench``
    #: (×BENCH_SCALE, what ``bench/`` and the ablations use) | ``soak``
    #: (cheap shape for chaos soaks)
    costs: str = "calibrated"
    #: wire codec of the rt backend's TCP transport (docs/WIRE.md):
    #: ``auto`` (the default: ``binary`` on rt, ``json`` on sim —
    #: resolved by :meth:`resolved_wire`) | ``json``
    #: (tagged JSON, the strict-back-compat choice) | ``binary``
    #: (struct-packed fast path).  Ignored by the sim backend, which
    #: passes message objects by reference.
    wire: str = "auto"
    #: workload-adaptive overlay trees (docs/TREES.md):
    #: ``off`` (static tree, zero observation overhead) | ``observe``
    #: (collect traffic + publish ``tree.hops``/``tree.skew`` gauges, never
    #: switch) | ``on`` (full observe → decide → switch loop)
    adaptive_tree: str = "off"
    #: seconds between planner decisions (deployment virtual time)
    adapt_interval: float = 1.0
    #: minimum observed submits before the planner will re-plan
    adapt_min_samples: int = 48
    #: seconds after a switch during which the planner holds off
    adapt_cooldown: float = 2.0

    def resolved_wire(self, backend: str) -> str:
        """The concrete codec ``auto`` stands for on the given backend."""
        if self.wire == "auto":
            return "binary" if backend == "rt" else "json"
        return self.wire

    def lint(self) -> List[str]:
        problems = []
        if self.kind not in KINDS:
            problems.append(f"protocol.kind {self.kind!r} not in {list(KINDS)}")
        if self.max_batch < 1:
            problems.append("protocol.max_batch must be >= 1")
        if self.request_timeout <= 0:
            problems.append("protocol.request_timeout must be positive")
        if self.checkpoint_interval < 0:
            problems.append("protocol.checkpoint_interval must be >= 0")
        if self.max_in_flight < 1:
            problems.append("protocol.max_in_flight must be >= 1")
        if self.costs not in COSTS:
            problems.append(f"protocol.costs {self.costs!r} not in {list(COSTS)}")
        if self.wire not in WIRES:
            problems.append(f"protocol.wire {self.wire!r} not in {list(WIRES)}")
        if self.adaptive_tree not in ADAPTIVE_TREE_MODES:
            problems.append(
                f"protocol.adaptive_tree {self.adaptive_tree!r} "
                f"not in {list(ADAPTIVE_TREE_MODES)}")
        if self.adapt_interval <= 0:
            problems.append("protocol.adapt_interval must be positive")
        if self.adapt_min_samples < 1:
            problems.append("protocol.adapt_min_samples must be >= 1")
        if self.adapt_cooldown < 0:
            problems.append("protocol.adapt_cooldown must be >= 0")
        return problems


@dataclass(frozen=True)
class FaultSpec:
    """An optional nemesis plan riding along with the scenario; the
    nemesis draws from the scenario's seed over its horizon."""

    intensity: str = "medium"
    #: extra seconds to quiesce after the final heal (soak harness)
    settle: float = 30.0
    #: extra membership-churn ops on top of the intensity profile
    #: (join/leave swaps and paired scale cycles; see docs/FAULTS.md)
    joins: int = 0
    leaves: int = 0
    scale_cycles: int = 0

    def lint(self) -> List[str]:
        problems = []
        if self.intensity not in INTENSITIES:
            problems.append(
                f"faults.intensity {self.intensity!r} not in {list(INTENSITIES)}")
        if self.settle < 0:
            problems.append("faults.settle must be >= 0")
        if self.joins < 0 or self.leaves < 0 or self.scale_cycles < 0:
            problems.append("faults.joins, leaves and scale_cycles must "
                            "be >= 0")
        return problems

    def churn(self) -> bool:
        """True when this spec asks for any membership churn."""
        return (self.intensity == "churn" or self.joins > 0
                or self.leaves > 0 or self.scale_cycles > 0)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable scenario."""

    name: str
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    faults: Optional[FaultSpec] = None
    #: ``none`` (opaque payloads) | ``sharded_kv`` (repro.apps.sharded_kv)
    app: str = "none"
    backend: str = "sim"
    seed: int = 1

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
            "app": self.app,
            "backend": self.backend,
            "seed": self.seed,
            "topology": _section_to_dict(self.topology),
            "workload": _section_to_dict(self.workload),
            "protocol": _section_to_dict(self.protocol),
            "faults": _section_to_dict(self.faults) if self.faults else None,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ScenarioSpec":
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"scenario must be an object, got {type(raw).__name__}")
        schema = raw.get("schema", SCENARIO_SCHEMA_VERSION)
        if schema != SCENARIO_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported scenario schema {schema!r} "
                f"(this build reads schema {SCENARIO_SCHEMA_VERSION})")
        known = {"schema", "name", "app", "backend", "seed",
                 "topology", "workload", "protocol", "faults"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {unknown} in scenario; known: {sorted(known)}")
        if "name" not in raw or not str(raw["name"]):
            raise ConfigurationError("scenario needs a non-empty 'name'")
        faults_raw = raw.get("faults")
        return cls(
            name=_typed(raw["name"], "", "name"),
            app=_typed(raw.get("app", "none"), "", "app"),
            backend=_typed(raw.get("backend", "sim"), "", "backend"),
            seed=_typed(raw.get("seed", 1), 1, "seed"),
            topology=_section_from_dict(
                TopologySpec, raw.get("topology", {}), "topology"),
            workload=_section_from_dict(
                WorkloadSpec, raw.get("workload", {}), "workload"),
            protocol=_section_from_dict(
                ProtocolSpec, raw.get("protocol", {}), "protocol"),
            faults=(_section_from_dict(FaultSpec, faults_raw, "faults")
                    if faults_raw is not None else None),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    # -- linting --------------------------------------------------------------

    def validate(self) -> List[str]:
        """All semantic problems of this spec (empty = runnable)."""
        problems: List[str] = []
        if not self.name:
            problems.append("scenario needs a non-empty name")
        if self.app not in APPS:
            problems.append(f"app {self.app!r} not in {list(APPS)}")
        if self.backend not in BACKENDS:
            problems.append(f"backend {self.backend!r} not in {list(BACKENDS)}")
        problems.extend(self.topology.lint())
        problems.extend(self.workload.lint(app=self.app))
        problems.extend(self.protocol.lint())
        if self.faults is not None:
            problems.extend(self.faults.lint())
        needs_pairs = (
            self.workload.destinations == "global"
            or (self.workload.destinations in ("mixed", "zipfian")
                and self.workload.global_parts > 0)
        )
        if needs_pairs and len(self.target_names()) < 2:
            problems.append(
                "global destinations need at least two target groups")
        if self.app == "sharded_kv" and self.workload.keys < len(self.target_names()):
            problems.append(
                "workload.keys should be >= the shard count so every shard "
                "owns at least one key")
        if self.protocol.wire not in ("json", "auto") and self.backend != "rt":
            problems.append(
                f"protocol.wire {self.protocol.wire!r} needs backend 'rt' — "
                "the sim backend passes message objects by reference and "
                "never serializes them (use 'auto' to pick per backend)")
        if (self.workload.destinations == "hotpairs"
                and len(self.target_names()) < 2):
            problems.append(
                "workload.destinations 'hotpairs' needs at least two "
                "target groups")
        if self.workload.destinations == "fixed" and not (
                self.workload.fixed
                and set(self.workload.fixed) <= set(self.target_names())):
            problems.append(
                "workload.destinations 'fixed' needs a non-empty "
                "workload.fixed drawn from the target groups")
        if (self.workload.destinations == "skewed"
                and not {"g1", "g2", "g3", "g4"} <= set(self.target_names())):
            problems.append(
                "workload.destinations 'skewed' is the Table II workload "
                "over the target groups g1..g4")
        if self.protocol.kind == "baseline" \
                and self.topology.layout != "two_level":
            problems.append(
                "protocol.kind 'baseline' is the 2-level sequencer protocol; "
                "it needs topology.layout 'two_level'")
        if self.protocol.kind == "bftsmart" and not (
                self.workload.destinations == "fixed"
                and tuple(self.workload.fixed) == ("g1",)):
            problems.append(
                "protocol.kind 'bftsmart' is the one group g1; it needs "
                "workload.destinations 'fixed' with fixed ['g1']")
        if self.protocol.kind in ("baseline", "bftsmart"):
            # the comparison protocols are measured, not soaked: the specs
            # that build them wire no application, nemesis membership,
            # adaptive tree or read workload
            for bad, what in (
                (self.app != "none", f"app {self.app!r}"),
                (self.faults is not None, "faults"),
                (self.protocol.adaptive_tree != "off",
                 "protocol.adaptive_tree"),
                (self.workload.read_ratio > 0, "workload.read_ratio > 0"),
            ):
                if bad:
                    problems.append(
                        f"{what} needs protocol.kind 'byzcast', not "
                        f"{self.protocol.kind!r}")
        return problems

    def check(self) -> "ScenarioSpec":
        """Raise :class:`ConfigurationError` on the first lint problem."""
        problems = self.validate()
        if problems:
            raise ConfigurationError(
                f"scenario {self.name!r} is invalid: " + "; ".join(problems))
        return self

    # -- convenience ----------------------------------------------------------

    def target_names(self) -> Tuple[str, ...]:
        return self.topology.target_names()

    @property
    def horizon(self) -> float:
        """Virtual end of the measured run (warmup + duration)."""
        return self.workload.warmup + self.workload.duration

    def with_(self, **changes) -> "ScenarioSpec":
        """A copy with top-level fields replaced (sections stay shared)."""
        return dataclasses.replace(self, **changes)

    # the heavy lifting lives in repro.scenario.build; these delegates keep
    # call sites (`spec.build_tree()`) free of an extra import

    def build_tree(self):
        """The tree the deployment runs: the topology's, or for
        ``bftsmart`` the one group g1, which orders everything alone."""
        from repro.core.tree import OverlayTree
        from repro.scenario.build import build_tree

        if self.protocol.kind == "bftsmart":
            return OverlayTree({}, ("g1",))
        return build_tree(self.topology)

    def build_deployment(self, **kwargs):
        from repro.scenario.build import build_deployment

        return build_deployment(self, **kwargs)

    def run(self, **kwargs):
        from repro.scenario.build import run_scenario

        return run_scenario(self, **kwargs)
