"""Wiring faults into deployments.

Two kinds of injection:

* **Construction-time** (Byzantine code): pass ``replica_classes`` /
  ``app_overrides`` (group id → replica name → class, written as dict
  literals) to the deployment builders.
* **Run-time** (benign events and churn): :func:`schedule_ops` arms a list
  of :class:`~repro.faults.nemesis.NemesisOp`.  A hand-written plan is a
  literal op list; a seeded one is a
  :class:`~repro.faults.nemesis.NemesisSchedule`, whose ``apply`` arms its
  ops here and adds the final heal at its horizon.

Run-time scheduling is backend-agnostic: events route through the
deployment's :class:`~repro.env.api.Runtime` facade (``runtime.clock`` /
``runtime.transport``), so the same op list runs unchanged on the
deterministic simulator and on the real-time asyncio runtime.  Times are
absolute on the runtime's clock (virtual seconds under simulation, seconds
since creation under real time); times already in the past fire
immediately.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.env.api import Clock
from repro.env.chaos import ChaosTransport

if TYPE_CHECKING:
    from repro.faults.nemesis import NemesisOp


def _at(clock: Clock, at: float, callback: Callable[[], None]) -> None:
    """Schedule ``callback`` at absolute time ``at``, clamping past times.

    The real-time clock rejects negative delays, so an ``at`` that already
    passed (e.g. a plan applied slightly late on a wall clock) fires on the
    next tick instead of raising.
    """
    clock.schedule(max(0.0, at - clock.now), callback)


def schedule_crash(deployment, group_id: str, replica_name: str, at: float) -> None:
    """Crash ``replica_name`` of ``group_id`` at time ``at``."""
    replica = deployment.groups[group_id].replica(replica_name)
    _at(deployment.runtime.clock, at, replica.crash)


def schedule_ops(deployment, ops: Sequence["NemesisOp"]) -> None:
    """Arm every op on the deployment's runtime, in list order.

    ``crash``/``recover`` and ``partition``/``heal`` take a ``(group,
    replica)`` target; a partition isolates the replica from every peer of
    its group until the matching heal.  ``burst``, ``delay`` and ``flap``
    act on the deployment's transport, which must be a
    :class:`~repro.env.chaos.ChaosTransport` (``install_chaos`` before the
    deployment is built).  ``join``/``leave``/``scale_up``/``scale_down``
    call the method of the same name of the deployment's cached
    :func:`~repro.faults.elasticity.elasticity_controller` at the op's
    time, with the op's target as arguments; this is the only code that
    times a churn op.  A list that names an unknown group or needs a
    missing ChaosTransport raises before any op is armed.
    """
    from repro.faults.elasticity import elasticity_controller
    from repro.faults.nemesis import CHURN_KINDS

    clock = deployment.runtime.clock
    transport = deployment.runtime.transport
    needs_chaos = {"burst", "delay", "flap"} & {op.kind for op in ops}
    if needs_chaos and not isinstance(transport, ChaosTransport):
        raise ValueError(
            f"ops {sorted(needs_chaos)} need a ChaosTransport; install_chaos "
            f"on the runtime before building the deployment"
        )
    churn = [op for op in ops if op.kind in CHURN_KINDS]
    unknown = {op.target[0] for op in churn} - set(deployment.groups)
    if unknown:
        raise KeyError(f"unknown group(s) {sorted(unknown)}")
    controller = elasticity_controller(deployment) if churn else None

    def isolate(cut: Callable[[str, str], None], gid: str, victim: str) -> None:
        for peer in deployment.group_configs[gid].replicas:
            if peer != victim:
                cut(victim, peer)

    for op in ops:
        delay = max(0.0, op.time - clock.now)
        kind, target, length = op.kind, op.target, op.until - op.time
        if kind == "crash":
            schedule_crash(deployment, target[0], target[1], op.time)
        elif kind == "recover":
            replica = deployment.groups[target[0]].replica(target[1])
            clock.schedule(delay, replica.recover)
        elif kind in ("partition", "heal"):
            cut = transport.partition if kind == "partition" else transport.heal
            clock.schedule(delay, partial(isolate, cut, *target))
        elif kind == "burst":
            clock.schedule(delay, partial(transport.burst, length,
                                          **dict(op.detail)))
        elif kind == "delay":
            clock.schedule(delay, partial(transport.delay_endpoint, target[0],
                                          dict(op.detail)["extra"],
                                          duration=length))
        elif kind == "flap":
            detail = dict(op.detail)
            clock.schedule(delay, partial(transport.flap_link, *target,
                                          detail["period"], int(detail["cycles"])))
        elif kind in CHURN_KINDS:
            clock.schedule(delay, partial(getattr(controller, kind), *target))
        else:
            raise ValueError(f"unknown fault op kind {kind!r}")
