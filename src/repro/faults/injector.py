"""Wiring faults into deployments.

Two kinds of injection:

* **Construction-time** (Byzantine code): pass ``replica_classes`` /
  ``app_overrides`` to the deployment builders; the helpers here build
  those dictionaries.
* **Run-time** (benign events): :func:`schedule_crash`,
  :func:`schedule_recover` and :func:`schedule_partition` arrange crashes,
  recoveries and network partitions at chosen times.

Run-time scheduling is backend-agnostic: events route through the
deployment's :class:`~repro.env.api.Runtime` facade (``runtime.clock`` /
``runtime.transport``), so the same :class:`FaultPlan` runs unchanged on
the deterministic simulator and on the real-time asyncio runtime.  Times
are absolute on the runtime's clock (virtual seconds under simulation,
seconds since creation under real time); times already in the past fire
immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Type

from repro.bcast.replica import Replica
from repro.env.api import Clock


def _at(clock: Clock, at: float, callback: Callable[[], None]) -> None:
    """Schedule ``callback`` at absolute time ``at``, clamping past times.

    The real-time clock rejects negative delays, so an ``at`` that already
    passed (e.g. a plan applied slightly late on a wall clock) fires on the
    next tick instead of raising.
    """
    clock.schedule(max(0.0, at - clock.now), callback)


@dataclass
class FaultPlan:
    """Accumulates fault wiring for a ByzCast deployment.

    Usage::

        plan = FaultPlan()
        plan.byzantine_replica("h1", "h1/r0", EquivocatingLeaderReplica)
        plan.byzantine_app("h1", "h1/r1", SilentRelayApp)
        dep = ByzCastDeployment(tree, replica_classes=plan.replica_classes,
                                app_overrides=plan.app_overrides)
        plan.apply_runtime(dep)   # scheduled crashes/partitions
    """

    replica_classes: Dict[str, Dict[str, Type[Replica]]] = field(default_factory=dict)
    app_overrides: Dict[str, Dict[str, Callable]] = field(default_factory=dict)
    _runtime: List[Callable] = field(default_factory=list)

    def byzantine_replica(self, group_id: str, replica_name: str,
                          replica_cls: Type[Replica]) -> "FaultPlan":
        self.replica_classes.setdefault(group_id, {})[replica_name] = replica_cls
        return self

    def byzantine_app(self, group_id: str, replica_name: str,
                      app_cls: Callable) -> "FaultPlan":
        self.app_overrides.setdefault(group_id, {})[replica_name] = app_cls
        return self

    def crash(self, group_id: str, replica_name: str, at: float) -> "FaultPlan":
        self._runtime.append(
            lambda dep: schedule_crash(dep, group_id, replica_name, at)
        )
        return self

    def recover(self, group_id: str, replica_name: str, at: float) -> "FaultPlan":
        self._runtime.append(
            lambda dep: schedule_recover(dep, group_id, replica_name, at)
        )
        return self

    def partition(self, a: str, b: str, at: float,
                  heal_at: Optional[float] = None) -> "FaultPlan":
        self._runtime.append(
            lambda dep: schedule_partition(dep, a, b, at, heal_at)
        )
        return self

    # ------------------------------------------------------- membership churn

    def join(self, group_id: str, at: float,
             member: Optional[str] = None) -> "FaultPlan":
        """Swap a freshly spawned replica in for ``member`` at ``at``."""
        self._runtime.append(
            lambda dep: schedule_join(dep, group_id, at, member)
        )
        return self

    def leave(self, group_id: str, member: str, at: float) -> "FaultPlan":
        """Remove ``member`` (back-filled by a standby) at ``at``."""
        self._runtime.append(
            lambda dep: schedule_leave(dep, group_id, member, at)
        )
        return self

    def scale_up(self, group_id: str, at: float) -> "FaultPlan":
        """Grow ``group_id`` to ``f + 1`` (3 extra replicas) at ``at``."""
        self._runtime.append(
            lambda dep: schedule_scale(dep, group_id, at, up=True)
        )
        return self

    def scale_down(self, group_id: str, at: float) -> "FaultPlan":
        """Shrink ``group_id`` to ``f - 1`` at ``at`` (no-op at f == 1)."""
        self._runtime.append(
            lambda dep: schedule_scale(dep, group_id, at, up=False)
        )
        return self

    def apply_runtime(self, deployment) -> None:
        for arm in self._runtime:
            arm(deployment)


def schedule_crash(deployment, group_id: str, replica_name: str, at: float) -> None:
    """Crash ``replica_name`` of ``group_id`` at time ``at``."""
    replica = deployment.groups[group_id].replica(replica_name)
    _at(deployment.runtime.clock, at, replica.crash)


def schedule_recover(deployment, group_id: str, replica_name: str, at: float) -> None:
    """Recover a crashed replica (state transfer) at time ``at``."""
    replica = deployment.groups[group_id].replica(replica_name)
    _at(deployment.runtime.clock, at, replica.recover)


def schedule_partition(deployment, a: str, b: str, at: float,
                       heal_at: Optional[float] = None) -> None:
    """Partition endpoints ``a``/``b`` at ``at``; optionally heal later."""
    clock = deployment.runtime.clock
    transport = deployment.runtime.transport
    _at(clock, at, lambda: transport.partition(a, b))
    if heal_at is not None:
        _at(clock, heal_at, lambda: transport.heal(a, b))


def schedule_join(deployment, group_id: str, at: float,
                  member: Optional[str] = None) -> None:
    """Schedule a join (standby swapped in for ``member``) at ``at``."""
    from repro.faults.elasticity import elasticity_controller

    elasticity_controller(deployment).join(group_id, at=at, member=member)


def schedule_leave(deployment, group_id: str, member: str, at: float) -> None:
    """Schedule ``member`` leaving ``group_id`` at ``at``."""
    from repro.faults.elasticity import elasticity_controller

    elasticity_controller(deployment).leave(group_id, member=member, at=at)


def schedule_scale(deployment, group_id: str, at: float, up: bool) -> None:
    """Schedule a scale-up (f+1) or scale-down (f-1) at ``at``."""
    from repro.faults.elasticity import elasticity_controller

    controller = elasticity_controller(deployment)
    if up:
        controller.scale_up(group_id, at=at)
    else:
        controller.scale_down(group_id, at=at)
