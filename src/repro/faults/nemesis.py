"""Nemesis: seeded, randomized fault schedules.

A :class:`NemesisSchedule` expands ``(seed, intensity profile, group
membership)`` into a deterministic timeline of fault operations — the
randomized counterpart of a hand-written list of :class:`NemesisOp`, armed
by the same :func:`~repro.faults.injector.schedule_ops`.
The same seed always yields the same timeline (``generate`` draws from a
private :class:`random.Random`), so any failure a chaos soak surfaces is
reproducible from its seed alone.

Fault taxonomy (see ``docs/FAULTS.md``):

* ``byzantine`` — up to ``f`` replicas per group run a Byzantine replica or
  application class (construction-time, composable with deployment
  builders via :attr:`NemesisSchedule.replica_classes` /
  :attr:`NemesisSchedule.app_overrides`);
* ``crash`` / ``recover`` — benign crash + state-transfer recovery;
* ``partition`` / ``heal`` — a victim replica is isolated from its peers
  for a bounded window;
* ``burst`` — a window of elevated chaos rates (drops, duplicates,
  corruption, jitter) on the :class:`~repro.env.chaos.ChaosTransport`;
* ``delay`` — targeted extra latency on the current leader of a group;
* ``flap`` — rapid partition/heal cycles on one link;
* ``join`` / ``leave`` — membership churn: a fresh standby is swapped in
  for an existing member through the group's ordered reconfiguration
  (driven by the deployment's
  :class:`~repro.faults.elasticity.ElasticityController`);
* ``scale_up`` / ``scale_down`` — a paired scale cycle growing a group to
  ``f + 1`` and later shrinking it back.

Safety bound: each group designates at most ``f`` *victim* replicas, and
every Byzantine/crash/partition op targets only victims, so no group ever
exceeds its fault threshold and both safety and (post-heal) liveness must
hold.  Churn swaps only ever replace *non-victim* members (the view keeps
3f+1 members throughout, so the victim budget is unaffected), and scale
cycles are strictly paired — the scale-down removes exactly the replicas
its scale-up added.  Every op ends by :attr:`NemesisSchedule.horizon`: recoveries and
heals are scheduled before it, and applying a schedule arms a final
``calm()``/heal at the horizon so the system can quiesce.
"""

from __future__ import annotations

import random
from ast import literal_eval
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Set, Tuple, Type

from repro.env.chaos import ChaosTransport
from repro.faults.behaviors import (
    DuplicatingRelayApp,
    MuteReplica,
    SilentRelayApp,
    WrongVoteReplica,
)
from repro.faults.injector import schedule_ops

#: Byzantine replica classes safe for liveness with <= f victims per group.
BYZANTINE_REPLICAS: Tuple[Type, ...] = (MuteReplica, WrongVoteReplica)
#: Byzantine application classes safe for liveness with <= f victims per group.
BYZANTINE_APPS: Tuple[Type, ...] = (SilentRelayApp, DuplicatingRelayApp)
#: op kinds whose target is ``(group, one of its replicas)``
REPLICA_KINDS = frozenset("crash recover partition heal join leave".split())


@dataclass(frozen=True)
class NemesisOp:
    """One scheduled fault operation.

    ``time`` is absolute on the runtime clock; ``until`` is the end of the
    op's effect (equal to ``time`` for instantaneous ops).  ``detail`` is a
    sorted tuple of ``(key, value)`` pairs — rates for bursts, the extra
    delay for slowdowns, the class name for Byzantine assignments.
    """

    time: float
    kind: str
    target: Tuple[str, ...]
    until: float
    detail: Tuple[Tuple[str, float], ...] = ()

    def describe(self) -> str:
        """``t=<time> <kind> <target>... [until=<time>] [<key>=<value>]...``
        with every number exact; a (group, replica) target is written as
        the replica, which names its group.  :meth:`parse` reads it back."""
        target = self.target
        if (self.kind in REPLICA_KINDS and len(target) == 2
                and target[1].rpartition("/")[0] == target[0]):
            target = target[1:]
        until = [f"until={self.until!r}"] if self.until > self.time else []
        return " ".join([f"t={self.time!r}", self.kind, *target, *until,
                         *(f"{k}={v!r}" for k, v in self.detail)])

    @classmethod
    def parse(cls, line: str) -> "NemesisOp":
        """The op :meth:`describe` rendered as ``line``."""
        _, kind, *words = line.split()
        target = tuple(word for word in words if "=" not in word)
        if kind in REPLICA_KINDS and len(target) == 1 and "/" in target[0]:
            target = (target[0].rpartition("/")[0], target[0])
        fields = dict(w.split("=", 1) for w in line.split() if "=" in w)
        time = float(fields.pop("t"))
        until = float(fields.pop("until", time))
        return cls(time, kind, target, until, tuple(
            (key, literal_eval(value)) for key, value in fields.items()))


@dataclass(frozen=True)
class IntensityProfile:
    """How much of each fault class a schedule contains.

    Op counts are totals over the whole run; windows are sampled inside
    ``[0.05, 0.60] * duration`` and sized so everything (including
    recoveries and heals) completes by ``0.85 * duration``.
    """

    name: str
    byzantine_groups: int = 0     # groups that get one Byzantine victim
    crash_ops: int = 1
    partition_ops: int = 1
    burst_ops: int = 1
    delay_ops: int = 0
    flap_ops: int = 0
    max_drop: float = 0.10        # burst drop_rate upper bound
    max_dup: float = 0.20
    max_corrupt: float = 0.10
    max_jitter_rate: float = 0.30
    max_extra_delay: float = 0.05  # leader-slowdown upper bound, seconds
    join_ops: int = 0             # standby-for-member swaps (arrivals)
    leave_ops: int = 0            # member departures (back-filled)
    scale_cycles: int = 0         # paired scale_up/scale_down cycles


PROFILES: Dict[str, IntensityProfile] = {
    "light": IntensityProfile("light", byzantine_groups=0, crash_ops=1,
                              partition_ops=1, burst_ops=1),
    "medium": IntensityProfile("medium", byzantine_groups=1, crash_ops=2,
                               partition_ops=2, burst_ops=2, delay_ops=1,
                               flap_ops=1),
    "heavy": IntensityProfile("heavy", byzantine_groups=2, crash_ops=3,
                              partition_ops=3, burst_ops=3, delay_ops=2,
                              flap_ops=2, max_drop=0.20, max_corrupt=0.15),
    "churn": IntensityProfile("churn", byzantine_groups=1, crash_ops=1,
                              partition_ops=1, burst_ops=1, join_ops=2,
                              leave_ops=1, scale_cycles=1),
}

#: op kinds driven through the deployment's ElasticityController
CHURN_KINDS = frozenset({"join", "leave", "scale_up", "scale_down"})


@dataclass
class NemesisSchedule:
    """A deterministic timeline of fault ops plus Byzantine assignments."""

    seed: int
    duration: float
    profile: IntensityProfile
    ops: List[NemesisOp] = field(default_factory=list)
    replica_classes: Dict[str, Dict[str, Type]] = field(default_factory=dict)
    app_overrides: Dict[str, Dict[str, Callable]] = field(default_factory=dict)
    #: per group, the replicas all faults are confined to (<= f each)
    victims: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def horizon(self) -> float:
        """Time by which every op has ended (the final heal)."""
        latest = max((op.until for op in self.ops), default=0.0)
        return max(latest, 0.85 * self.duration)

    def byzantine_in(self, gid: str) -> Set[str]:
        """Replicas of ``gid`` running a Byzantine replica or app class."""
        return (set(self.replica_classes.get(gid, {}))
                | set(self.app_overrides.get(gid, {})))

    def kinds(self) -> Tuple[str, ...]:
        """The distinct fault kinds this schedule activates, sorted."""
        kinds = {op.kind for op in self.ops}
        kinds.update(["byzantine"] if (self.replica_classes or self.app_overrides)
                     else [])
        return tuple(sorted(kinds))

    def describe(self) -> str:
        """A stable, line-per-op rendering (golden-testable per seed)."""
        lines = [f"# nemesis seed={self.seed} profile={self.profile.name} "
                 f"duration={self.duration:.6f} horizon={self.horizon:.6f}"]
        for group in sorted(self.replica_classes):
            for name, cls in sorted(self.replica_classes[group].items()):
                lines.append(f"byzantine-replica {name} {cls.__name__}")
        for group in sorted(self.app_overrides):
            for name, cls in sorted(self.app_overrides[group].items()):
                lines.append(f"byzantine-app {name} {cls.__name__}")
        lines += [op.describe() for op in self.ops]
        return "\n".join(lines)

    # ------------------------------------------------------------- generation

    @classmethod
    def generate(
        cls,
        groups: Mapping[str, Sequence[str]],
        seed: int,
        duration: float = 10.0,
        profile: IntensityProfile | str = "medium",
        f: int = 1,
    ) -> "NemesisSchedule":
        """Expand a seed into a timeline over ``groups``.

        Args:
            groups: group id → ordered replica endpoint names (the order
                must match the deployment's, e.g. from its
                ``BroadcastConfig.replicas``).
            seed: the only source of randomness.
            duration: nominal run length; ops end by ``0.85 * duration``.
            profile: an :class:`IntensityProfile` or a ``PROFILES`` key.
            f: per-group fault threshold (victim budget).
        """
        if isinstance(profile, str):
            profile = PROFILES[profile]
        if duration <= 0:
            raise ValueError("duration must be positive")
        rng = random.Random(seed)
        schedule = cls(seed=seed, duration=duration, profile=profile)
        group_ids = sorted(groups)
        # One victim per group (generalizes to f victims): all Byzantine,
        # crash and partition faults in a group target only its victims.
        for gid in group_ids:
            members = list(groups[gid])
            count = min(f, max(0, (len(members) - 1) // 3))
            schedule.victims[gid] = tuple(rng.sample(members, count))

        window_lo, window_hi = 0.05 * duration, 0.60 * duration
        deadline = 0.85 * duration

        def window(max_len: float) -> Tuple[float, float]:
            start = rng.uniform(window_lo, window_hi)
            length = rng.uniform(0.1 * max_len, max_len)
            return start, min(start + length, deadline)

        byz_groups = [g for g in group_ids if schedule.victims[g]]
        rng.shuffle(byz_groups)
        for gid in byz_groups[: profile.byzantine_groups]:
            victim = schedule.victims[gid][0]
            if rng.random() < 0.5:
                chosen = BYZANTINE_REPLICAS[rng.randrange(len(BYZANTINE_REPLICAS))]
                schedule.replica_classes.setdefault(gid, {})[victim] = chosen
            else:
                chosen = BYZANTINE_APPS[rng.randrange(len(BYZANTINE_APPS))]
                schedule.app_overrides.setdefault(gid, {})[victim] = chosen

        ops: List[NemesisOp] = []
        # Crash + recover: at most one crash window per victim, so a group
        # never has more than f replicas down at once.
        crash_candidates = [
            (gid, victim) for gid in group_ids for victim in schedule.victims[gid]
        ]
        rng.shuffle(crash_candidates)
        for gid, victim in crash_candidates[: profile.crash_ops]:
            start, end = window(0.35 * duration)
            ops.append(NemesisOp(start, "crash", (gid, victim), until=end))
            ops.append(NemesisOp(end, "recover", (gid, victim), until=end))

        # Partitions: isolate a victim from every peer for a window.
        partition_candidates = list(crash_candidates)
        rng.shuffle(partition_candidates)
        for gid, victim in partition_candidates[: profile.partition_ops]:
            start, end = window(0.25 * duration)
            ops.append(NemesisOp(start, "partition", (gid, victim), until=end))
            ops.append(NemesisOp(end, "heal", (gid, victim), until=end))

        # Chaos bursts: disjoint windows of elevated transport chaos.
        cursor = window_lo
        for _ in range(profile.burst_ops):
            length = rng.uniform(0.05, 0.15) * duration
            start = cursor + rng.uniform(0.0, 0.10) * duration
            end = min(start + length, deadline)
            cursor = end + 0.02 * duration
            if start >= deadline:
                break
            rates = (
                ("corrupt_rate", round(rng.uniform(0.0, profile.max_corrupt), 4)),
                ("delay_rate", round(rng.uniform(0.0, profile.max_jitter_rate), 4)),
                ("drop_rate", round(rng.uniform(0.02, profile.max_drop), 4)),
                ("dup_rate", round(rng.uniform(0.0, profile.max_dup), 4)),
            )
            ops.append(NemesisOp(start, "burst", (), until=end, detail=rates))

        # Leader-targeted delays: slow the regency-0 leader of a group.
        for _ in range(profile.delay_ops):
            gid = group_ids[rng.randrange(len(group_ids))]
            leader = list(groups[gid])[0]
            start, end = window(0.20 * duration)
            extra = round(rng.uniform(0.005, profile.max_extra_delay), 4)
            ops.append(NemesisOp(start, "delay", (leader,), until=end,
                                 detail=(("extra", extra),)))

        # Link flapping between two non-victim replicas of one group.
        for _ in range(profile.flap_ops):
            gid = group_ids[rng.randrange(len(group_ids))]
            healthy = [r for r in groups[gid] if r not in schedule.victims[gid]]
            if len(healthy) < 2:
                continue
            a, b = rng.sample(healthy, 2)
            start = rng.uniform(window_lo, window_hi)
            period = rng.uniform(0.01, 0.03) * duration
            cycles = rng.randint(2, 4)
            end = min(start + 2 * period * cycles, deadline)
            ops.append(NemesisOp(start, "flap", (a, b), until=end,
                                 detail=(("cycles", cycles), ("period", round(period, 6)))))

        # Membership churn.  Swaps (join/leave) only ever replace non-victim
        # members with index >= 1, so the regency-0 leader stays and the
        # victim budget is untouched; the view keeps 3f+1 members, so live
        # correct replicas never drop below quorum.  Existing profiles
        # default all churn counts to zero — no extra rng draws, so their
        # timelines are byte-identical to pre-churn nemesis versions.
        def swap_target(gid: str) -> str | None:
            members = list(groups[gid])
            candidates = [r for r in members[1:]
                          if r not in schedule.victims[gid]]
            if not candidates:
                return None
            return candidates[rng.randrange(len(candidates))]

        for kind, count in (("join", profile.join_ops),
                            ("leave", profile.leave_ops)):
            for _ in range(count):
                gid = group_ids[rng.randrange(len(group_ids))]
                member = swap_target(gid)
                at = round(rng.uniform(window_lo, window_hi), 6)
                if member is None:
                    continue
                ops.append(NemesisOp(at, kind, (gid, member), until=at))

        # Scale cycles are strictly paired: the scale-down undoes exactly
        # the three replicas its scale-up added (controller invariant).
        for _ in range(profile.scale_cycles):
            gid = group_ids[rng.randrange(len(group_ids))]
            up = round(rng.uniform(window_lo, 0.5 * (window_lo + window_hi)), 6)
            down = round(min(up + rng.uniform(0.15, 0.30) * duration,
                             deadline), 6)
            ops.append(NemesisOp(up, "scale_up", (gid,), until=down))
            ops.append(NemesisOp(down, "scale_down", (gid,), until=down))

        ops.sort(key=lambda op: (op.time, op.kind, op.target))
        schedule.ops = ops
        return schedule

    @classmethod
    def for_deployment(cls, deployment, seed: int, duration: float = 10.0,
                       profile: IntensityProfile | str = "medium") -> "NemesisSchedule":
        """Generate a schedule from a deployment's group membership.

        Note: Byzantine assignments in the result can only take effect if
        the deployment is *rebuilt* with them (they are construction-time);
        use :meth:`generate` + the two class dicts when composing.
        """
        groups = {gid: config.replicas
                  for gid, config in deployment.group_configs.items()}
        f = min(config.f for config in deployment.group_configs.values())
        return cls.generate(groups, seed=seed, duration=duration,
                            profile=profile, f=f)

    # -------------------------------------------------------------- applying

    def apply(self, deployment) -> None:
        """Arm every op on the deployment's runtime
        (:func:`~repro.faults.injector.schedule_ops`), then calm the chaos
        layer and heal every partition at the horizon, so a quiescence
        check after ``horizon`` is meaningful."""
        schedule_ops(deployment, self.ops)
        clock = deployment.runtime.clock
        transport = deployment.runtime.transport

        def final_heal() -> None:
            if isinstance(transport, ChaosTransport):
                transport.calm()
            transport.heal_all()

        clock.schedule(max(0.0, self.horizon - clock.now), final_heal)
