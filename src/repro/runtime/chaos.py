"""Chaos soak harness: randomized faults + invariant checks on any backend.

:func:`run_chaos_soak` builds the ByzCast deployment of a
:class:`~repro.scenario.ScenarioSpec` on its execution backend, with the
transport wrapped in a :class:`~repro.env.chaos.ChaosTransport` and the
spec's ``faults`` section expanded into a
:class:`~repro.faults.nemesis.NemesisSchedule` (crashes + recoveries,
victim partitions + heals, drop/duplicate/corrupt bursts, leader slowdowns,
link flapping — all bounded by ``f`` per group), drives a mixed
local/global closed-loop workload through it, and then:

1. waits for the system to quiesce after the schedule's final heal,
2. asserts **liveness** — every client request was a-delivered and replied
   (zero outstanding multicasts),
3. checks all five atomic-multicast invariants of §II-B (agreement,
   integrity, validity, prefix order, acyclic order), and
4. returns a post-mortem :class:`ChaosReport` (injected-fault counts,
   retransmissions, regency changes, recovery windows).

The same seed reproduces the same nemesis timeline on every backend, and
under the simulation backend the whole run is bit-identical — a failing
soak is a unit test waiting to be written down.

**What the harness reads of the spec.**  Topology (client sites too),
protocol, faults, backend and seed mean what they mean to ``run_scenario``
(one construction path:
:func:`~repro.scenario.build.build_armed_deployment`).  Of the
``workload`` section only ``clients``, ``duration`` (with ``warmup``, the
nemesis horizon scale: ops start after ~5% and all end by ~85%),
``read_ratio`` and ``read_mode`` are read: the soak drives its own fixed
budget of ``messages`` opaque ``("soak", i)`` payloads, ``window``
outstanding per client, over every single target plus adjacent pairs — not
a timed driver workload.  ``read_ratio`` here is extra reads *per write*,
riding along with the budget (0 keeps read machinery entirely out of the
run, so the golden counter fingerprints stay untouched).

**What the spec arms.**  Agreement, integrity, validity, prefix order,
acyclic order and execution order are always checked.  On top:
``protocol.checkpoint_interval > 0`` arms the memory bound (no replica may
ever retain more than 2 × interval executed batches); membership churn
(``faults.intensity: "churn"`` or ``joins``/``leaves``/``scale_cycles``)
arms view agreement and joiner replay; ``workload.read_ratio > 0`` arms
read safety; ``protocol.adaptive_tree: "on"`` runs the observe → decide →
switch loop *under chaos* and arms tree-switch agreement (it wants
``layout: "balanced"`` with >= 2 auxiliary bins, so the planner has leaf
assignments to re-plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.invariants import check_all
from repro.errors import ConfigurationError
from repro.scenario.build import (
    arm_adaptive_tree,
    build_armed_deployment,
    client_site,
    retained_high_water,
)
from repro.scenario.spec import (
    FaultSpec, ProtocolSpec, ScenarioSpec, WorkloadSpec)

#: the soak nobody configured (``python -m repro chaos``, ``run_chaos_soak()``):
#: two targets under one auxiliary, medium chaos, 12 s nemesis horizon.
#: Every value a soak wants different from the section defaults is written
#: out: the cheap cost model keeps sim soaks fast in wall time, sub-second
#: timeouts keep recovery inside the horizon, depth 4 makes the
#: execution-order invariant (executed order is gap-free and equals
#: decided-cid order) meaningful.
DEFAULT_SOAK = ScenarioSpec(
    name="soak",
    workload=WorkloadSpec(clients=3, warmup=0.0, duration=12.0,
                          read_mode="optimistic"),
    protocol=ProtocolSpec(costs="soak", request_timeout=0.5,
                          retransmit_timeout=0.5, max_in_flight=4,
                          adapt_min_samples=24),
    faults=FaultSpec(intensity="medium", settle=30.0),
    seed=7,
)


@dataclass
class ChaosReport:
    """Post-mortem of one soak run."""

    backend: str
    seed: int
    intensity: str
    schedule: str                      #: the nemesis timeline, line per op
    fault_kinds: Tuple[str, ...]
    sent: int
    completed: int
    outstanding: int                   #: client requests never confirmed
    liveness_ok: bool
    violations: List[str] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)   #: chaos.* counters
    retransmissions: int = 0
    regency_changes: int = 0
    recoveries: int = 0
    #: (replica, crash time, recover time) planned windows from the schedule
    recovery_windows: List[Tuple[str, float, float]] = field(default_factory=list)
    elapsed: float = 0.0               #: runtime-clock seconds consumed
    #: configured checkpoint interval (0 = checkpointing off)
    checkpoint_interval: int = 0
    #: high-water mark of retained executed batches across all replicas
    max_retained: int = 0
    #: checkpoints taken + installed across all replicas
    checkpoints_taken: int = 0
    checkpoints_installed: int = 0
    #: True iff retention stayed within 2 × checkpoint_interval (always
    #: True with checkpointing off — there is no bound to enforce)
    retention_ok: bool = True
    #: configured consensus pipeline depth
    max_in_flight: int = 1
    #: confirmed membership changes: (time, kind, group, members-csv)
    membership_events: List[Tuple[float, str, str, str]] = field(
        default_factory=list)
    #: dynamically spawned replicas that were activated by a Reconfig
    joiners_activated: int = 0
    #: read-tier traffic (docs/READS.md); fallbacks are reads the quorum
    #: check pushed onto the ordered path — a safety mechanism firing,
    #: not a failure
    reads_issued: int = 0
    reads_accepted: int = 0
    read_fallbacks: int = 0
    #: adaptive-tree soaks (docs/TREES.md): confirmed ordered tree
    #: switches and the final agreed tree epoch
    tree_switches: int = 0
    tree_epoch: int = 0

    @property
    def ok(self) -> bool:
        return self.liveness_ok and not self.violations and self.retention_ok

    def summary(self) -> str:
        lines = [
            f"chaos soak [{self.backend}] seed={self.seed} "
            f"intensity={self.intensity}: {'PASS' if self.ok else 'FAIL'}",
            f"  workload : {self.completed}/{self.sent} confirmed, "
            f"{self.outstanding} outstanding, {self.elapsed:.2f}s on the "
            f"runtime clock",
            f"  faults   : {', '.join(self.fault_kinds) or 'none'}",
            f"  injected : " + (", ".join(
                f"{k.split('.', 1)[1]}={v}" for k, v in sorted(self.injected.items())
            ) or "none"),
            f"  recovery : {self.retransmissions} retransmissions, "
            f"{self.regency_changes} regency changes, "
            f"{self.recoveries} replica recoveries",
        ]
        if self.reads_issued:
            lines.append(
                f"  reads    : {self.reads_issued} issued, "
                f"{self.reads_accepted} accepted on f+1 match, "
                f"{self.read_fallbacks} fell back to ordered")
        if self.tree_switches:
            lines.append(
                f"  tree     : {self.tree_switches} ordered switch(es), "
                f"final epoch {self.tree_epoch}")
        if self.membership_events:
            kinds: Dict[str, int] = {}
            for _, kind, _, _ in self.membership_events:
                kinds[kind] = kinds.get(kind, 0) + 1
            lines.append(
                "  churn    : " + ", ".join(
                    f"{k}={v}" for k, v in sorted(kinds.items()))
                + f"; {self.joiners_activated} joiner(s) activated")
            for at, kind, gid, members in self.membership_events:
                lines.append(f"             t={at:.2f} {kind} {gid} -> {members}")
        if self.checkpoint_interval > 0:
            lines.append(
                f"  memory   : interval={self.checkpoint_interval}, "
                f"max retained={self.max_retained} "
                f"(bound {2 * self.checkpoint_interval}), "
                f"{self.checkpoints_taken} checkpoints taken, "
                f"{self.checkpoints_installed} installed"
            )
        if not self.retention_ok:
            lines.append(
                f"  RETENTION: {self.max_retained} executed batches "
                f"retained, exceeds 2 × interval = "
                f"{2 * self.checkpoint_interval}"
            )
        for name, crash_at, recover_at in self.recovery_windows:
            lines.append(f"             {name} down {crash_at:.2f}s-{recover_at:.2f}s "
                         f"({recover_at - crash_at:.2f}s outage)")
        if not self.liveness_ok:
            lines.append(f"  LIVENESS : {self.outstanding} requests still "
                         f"outstanding after the final heal")
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        if self.ok:
            checks = ("agreement, integrity, validity, prefix order, "
                      "acyclic order, execution order")
            if self.membership_events:
                checks += ", view agreement, joiner replay"
            if self.reads_issued:
                checks += ", read safety"
            if self.tree_switches:
                checks += ", tree-switch agreement"
            lines.append(f"  invariants: {checks} all hold "
                         f"(pipeline depth {self.max_in_flight})")
        return "\n".join(lines)


def soakable(spec: ScenarioSpec) -> ScenarioSpec:
    """``spec`` if the harness can soak it: valid, with a ``faults`` section,
    plain ByzCast (``check`` ties faults to it) over opaque payloads."""
    spec.check()
    if spec.faults is None:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no faults section to soak")
    if spec.app != "none":
        raise ConfigurationError(
            f"scenario {spec.name!r}: the soak drives opaque payloads, "
            f"not app {spec.app!r} (use `scenario run`)")
    return spec


def run_chaos_soak(spec: ScenarioSpec = DEFAULT_SOAK, messages: int = 60,
                   window: int = 2) -> ChaosReport:
    """Run one seeded chaos soak and return its post-mortem report.

    ``spec`` must be :func:`soakable`; ``messages`` is the total multicast
    budget and ``window`` the concurrently outstanding multicasts per
    client (see the module docstring for what else of the spec is read).
    """
    proto = soakable(spec).protocol
    targets = spec.target_names()

    deployment, schedule, elasticity = build_armed_deployment(spec)
    runtime = deployment.runtime
    try:
        clients = [
            deployment.add_client(
                f"c{i}", site=client_site(spec.topology, i),
                retransmit_timeout=proto.retransmit_timeout)
            for i in range(spec.workload.clients)
        ]
        _, planner = arm_adaptive_tree(spec, deployment, elasticity)
        if proto.adaptive_tree != "off" and len(targets) >= 4:
            # cross-branch hot pairs (double-weighted) + every local
            # single: under the initial balanced packing each hot pair
            # spans two auxiliary branches, so a working planner provably
            # re-packs them under one — and a control run shows the static
            # hop tax
            dests = _cross_pair_destinations(targets)
        else:
            dests = _mixed_destinations(targets)
        sent_messages = []
        state = {"issued": 0, "read_credit": 0.0}

        def issue(client) -> None:
            if state["issued"] >= messages:
                return
            index = state["issued"]
            state["issued"] += 1
            dst = dests[index % len(dests)]
            # read_ratio extra reads ride along with the write budget via
            # a deterministic credit accumulator (no RNG: the write
            # schedule — and so the golden fingerprints at ratio 0 — is
            # independent of the read axis)
            state["read_credit"] += spec.workload.read_ratio
            while state["read_credit"] >= 1.0:
                state["read_credit"] -= 1.0
                group = targets[index % len(targets)]
                client.aread(group, payload=("peek",),
                             mode=spec.workload.read_mode)
            client.amulticast(
                dst, payload=("soak", index),
                callback=lambda message, latency, results, c=client: issue(c),
            )

        def kickoff() -> None:
            for client in clients:
                for _ in range(window):
                    issue(client)

        runtime.clock.schedule(0.0, kickoff)
        deployment.start()

        horizon = schedule.horizon
        deployment.run(until=horizon)

        def quiet() -> bool:
            # Quiescence covers the churn machinery too: a Reconfig still
            # awaiting confirmation (or queued behind one) means membership
            # is mid-flight, and the view-agreement check below would flag
            # a transient as a violation.
            return (state["issued"] >= messages
                    and all(c.pending() == 0 for c in clients)
                    and (elasticity is None or elasticity.idle()))

        runtime.run_until(quiet, timeout=spec.faults.settle, poll=0.05)
        # One extra beat so every replica (not just the f+1 quorum that
        # confirmed each client) finishes its trailing a-deliveries.
        runtime.run(until=runtime.clock.now + 4 * proto.request_timeout)

        for client in clients:
            sent_messages.extend(message for message, _ in client.completions)
            sent_messages.extend(
                entry.message for entry in client._inflight.values())
        outstanding = sum(c.pending() for c in clients)
        liveness_ok = outstanding == 0 and state["issued"] >= messages

        sequences = {}
        for gid in targets:
            group = deployment.groups[gid]
            # Departed members (swapped out by churn) stop at a prefix by
            # design, so agreement is only asserted over *active* correct
            # replicas — which includes every activated joiner.
            sequences[gid] = [
                replica.app.delivered_messages()
                for replica in group.replicas
                if replica.active and not replica.crashed
                and replica.name not in schedule.replica_classes.get(gid, {})
            ]
        if planner is not None:
            planner.stop()
        violations = check_all(sequences, sent_messages, quiescent=liveness_ok)
        violations.extend(_execution_order_violations(deployment, schedule))
        violations.extend(_churn_violations(deployment, schedule, elasticity))
        violations.extend(_read_violations(deployment, schedule, clients))
        violations.extend(_tree_violations(deployment, schedule, elasticity))

        max_retained = retained_high_water(deployment)
        retention_ok = (proto.checkpoint_interval <= 0
                        or max_retained <= 2 * proto.checkpoint_interval)

        counters = runtime.monitor.snapshot()
        report = ChaosReport(
            backend=spec.backend,
            seed=spec.seed,
            intensity=spec.faults.intensity,
            schedule=schedule.describe(),
            fault_kinds=schedule.kinds(),
            sent=state["issued"],
            completed=sum(len(c.completions) for c in clients),
            outstanding=outstanding,
            liveness_ok=liveness_ok,
            violations=violations,
            injected={k: v for k, v in counters.items()
                      if k.startswith("chaos.")},
            retransmissions=counters.get("proxy.retransmit", 0),
            regency_changes=counters.get("regency.installed", 0),
            recoveries=counters.get("replica.recover", 0),
            recovery_windows=[
                (op.target[1], op.time, op.until)
                for op in schedule.ops if op.kind == "crash"
            ],
            membership_events=list(elasticity.events) if elasticity else [],
            joiners_activated=sum(
                1 for gid, names in (
                    elasticity.spawned.items() if elasticity else ())
                for name in names
                if deployment.groups[gid].replica(name).active
            ),
            elapsed=runtime.clock.now,
            checkpoint_interval=proto.checkpoint_interval,
            max_retained=max_retained,
            checkpoints_taken=counters.get("checkpoint.taken", 0),
            checkpoints_installed=counters.get("checkpoint.installed", 0),
            retention_ok=retention_ok,
            max_in_flight=proto.max_in_flight,
            reads_issued=sum(c.reads_issued for c in clients),
            reads_accepted=sum(c.reads_accepted for c in clients),
            read_fallbacks=sum(c.reads_fallback for c in clients),
            tree_switches=elasticity.tree_switches if elasticity else 0,
            tree_epoch=elasticity.tree_epoch if elasticity else 0,
        )
        return report
    finally:
        runtime.close()


def _execution_order_violations(deployment, schedule) -> List[str]:
    """The soak's sixth invariant: execution follows decided-cid order.

    With a consensus pipeline, instances may *decide* out of cid order but
    must *execute* gap-free in ascending cid order (docs/PIPELINE.md).
    Each replica's :class:`~repro.bcast.log.DecisionLog` journals both
    sequences; here we assert, for every correct running replica, that the
    executed journal never jumped (except across an installed checkpoint)
    and that every journaled decision below the cursor was in fact
    executed.  Byzantine and crashed replicas are exempt — their logs are
    allowed to be arbitrary / truncated.
    """
    problems: List[str] = []
    for gid in sorted(deployment.groups):
        byzantine = schedule.replica_classes.get(gid, {})
        for replica in deployment.groups[gid].replicas:
            if replica.name in byzantine or replica.crashed:
                continue
            log = replica.log
            if log.order_violations:
                problems.append(
                    f"{replica.name}: executed journal jumped "
                    f"{log.order_violations} time(s) (not gap-free)")
            executed = set(log.executed_order)
            # A checkpoint install legally skips executing the truncated
            # prefix; journals are bounded deques, so only compare above
            # both the checkpoint horizon and the journal's own floor.
            floor = log.checkpoint.cid if log.checkpoint is not None else -1
            if log.executed_order:
                floor = max(floor, log.executed_order[0] - 1)
            missing = sorted(
                cid for cid in set(log.decided_order)
                if floor < cid < log.next_execute and cid not in executed
            )
            if missing:
                problems.append(
                    f"{replica.name}: decided cids {missing[:5]} missing "
                    f"from the executed journal")
    return problems


def _churn_violations(deployment, schedule, elasticity) -> List[str]:
    """The soak's churn invariants (schedules with membership ops only).

    1. **View agreement** — after quiescence, every active correct replica
       of every group holds exactly the controller's confirmed final
       membership (no replica is stuck in a stale view, none skipped an
       ordered ``Reconfig``).
    2. **Joiner replay** — every dynamically spawned replica that was
       activated a-delivered exactly the same sequence as the group's
       incumbent correct replicas: its state (checkpoint transfer + log
       replay) equals a replay of the agreed sequence, with no gap at the
       hand-off point and no duplicates.
    """
    if elasticity is None:
        return []
    problems: List[str] = []
    for gid in sorted(deployment.groups):
        byzantine = schedule.byzantine_in(gid)
        expected_members, expected_f = elasticity.expected_view(gid)
        spawned = set(elasticity.spawned.get(gid, ()))
        reference = None
        for replica in deployment.groups[gid].replicas:
            if (replica.name in byzantine or replica.crashed
                    or not replica.active):
                continue
            if tuple(replica.view.replicas) != tuple(expected_members) \
                    or replica.view.f != expected_f:
                problems.append(
                    f"{replica.name}: view {replica.view.replicas} f="
                    f"{replica.view.f} != confirmed membership "
                    f"{expected_members} f={expected_f}")
            if replica.name not in spawned and reference is None:
                reference = replica
        if reference is None:
            continue
        agreed = reference.app.delivered_messages()
        for name in sorted(spawned):
            joiner = deployment.groups[gid].replica(name)
            if not joiner.active or joiner.crashed or name in byzantine:
                continue
            replayed = joiner.app.delivered_messages()
            if replayed != agreed:
                diverge = next(
                    (i for i, (a, b) in enumerate(zip(replayed, agreed))
                     if a != b), min(len(replayed), len(agreed)))
                problems.append(
                    f"{name}: joiner replay diverges from {reference.name} "
                    f"at index {diverge} ({len(replayed)} vs {len(agreed)} "
                    f"deliveries)")
    return problems


def _read_violations(deployment, schedule, clients) -> List[str]:
    """The soak's read-safety invariants (docs/READS.md).

    1. **No stale read past quorum** — every read a client accepted on an
       f+1 match must count at least one *correct* replica among its
       voters, and that replica's read journal must actually record
       serving this (client, rid) at the accepted cid.  A quorum
       formed purely of Byzantine repliers — the only way a fabricated or
       stale value gets past the client — shows up here even if the value
       happened to look plausible.
    2. **Monotone sessions** — per (client, group), accepted cids
       never decrease: the read proxy's floor did its job even
       under chaos (lagging-but-correct quorums must be rejected, not
       returned out of order).
    """
    problems: List[str] = []
    for client in clients:
        floors: Dict[str, int] = {}
        for outcome in client.read_log:
            if outcome.fallback or outcome.mode == "ordered":
                continue
            gid = outcome.group
            byzantine = schedule.byzantine_in(gid)
            group = deployment.groups.get(gid)
            vouched = False
            for name in sorted(outcome.voters):
                if name in byzantine or group is None:
                    continue
                replica = group.replica(name)
                if replica.crashed or not replica.active:
                    continue
                if any(sender == client.name and rid == outcome.rid
                       and cid == outcome.cid
                       for sender, rid, cid in replica.read_journal):
                    vouched = True
                    break
            if not vouched:
                problems.append(
                    f"{client.name}: read rid={outcome.rid} on {gid} "
                    f"({outcome.mode}, cid={outcome.cid}) accepted without "
                    f"a correct voter's journal entry — quorum was "
                    f"Byzantine-only or value not served")
            if outcome.cid < floors.get(gid, -1):
                problems.append(
                    f"{client.name}: non-monotone read session on {gid} "
                    f"({outcome.mode}): cid {outcome.cid} after "
                    f"{floors[gid]}")
            floors[gid] = max(floors.get(gid, -1), outcome.cid)
    return problems


def _tree_violations(deployment, schedule, elasticity) -> List[str]:
    """The soak's tree-switch invariant (adaptive-tree soaks, docs/TREES.md).

    After quiescence, every active correct replica of *every* group
    (targets and auxiliaries alike) must hold exactly the controller's
    confirmed overlay: the same tree epoch and the same parent edges.  A
    replica on a stale tree would relay along edges the rest of the
    deployment abandoned — global messages would blackhole or double-route
    — so agreement here is what makes an ordered ``TreeUpdate`` a safe
    reconfiguration rather than a split-brain.
    """
    if elasticity is None:
        return []
    problems: List[str] = []
    expected_epoch, expected_edges = elasticity.expected_tree()
    for gid in sorted(deployment.groups):
        byzantine = schedule.byzantine_in(gid)
        for replica in deployment.groups[gid].replicas:
            if (replica.name in byzantine or replica.crashed
                    or not replica.active):
                continue
            app = replica.app
            if app.tree_epoch != expected_epoch:
                problems.append(
                    f"{replica.name}: tree epoch {app.tree_epoch} != "
                    f"confirmed epoch {expected_epoch}")
            elif app.tree.parent_edges() != expected_edges:
                problems.append(
                    f"{replica.name}: tree edges {app.tree.parent_edges()} "
                    f"!= confirmed edges {expected_edges}")
    return problems


def _mixed_destinations(targets: Sequence[str]) -> List[frozenset]:
    """Every single target plus adjacent pairs — mixed local/global load."""
    dests = [frozenset([t]) for t in targets]
    for a, b in zip(targets, list(targets[1:]) + [targets[0]]):
        if a != b:
            dests.append(frozenset([a, b]))
    return sorted(set(dests), key=sorted)


def _cross_pair_destinations(targets: Sequence[str]) -> List[frozenset]:
    """Hot cross-branch pairs (×2 weight) plus every single target.

    Pair ``i`` joins ``targets[i]`` with ``targets[half + i]`` — opposite
    halves of the initial ``balanced`` packing, so each pair's lca is the
    root until the planner co-locates it.  Pairs appear twice in the
    cycle, putting 2/3 of an equal-rotation workload's weight on them
    (enough predicted savings to clear the planner's hysteresis).
    """
    half = len(targets) // 2
    pairs = [frozenset([targets[i], targets[half + i]]) for i in range(half)]
    singles = [frozenset([t]) for t in targets]
    return pairs + pairs + singles
