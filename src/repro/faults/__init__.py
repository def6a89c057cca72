"""Byzantine and benign fault injection.

:mod:`repro.faults.behaviors` provides replica classes and ByzCast
application classes exhibiting specific misbehaviours (equivocating leader,
mute replica, corrupted votes, silent/fabricating/duplicating/reordering/
withholding/equivocating/subset relays, lying/silent relay acks);
:mod:`repro.faults.injector` wires them into deployments and schedules
benign crashes and partitions.

:mod:`repro.faults.nemesis` generates seeded, randomized fault timelines
(the chaos-engineering counterpart of a hand-written :class:`FaultPlan`)
bounded by ``f`` faults per group.

:mod:`repro.faults.elasticity` makes membership churn a schedulable fault:
join/leave swaps and f-changing scale ops driven through each group's
ordered reconfiguration path, plus an optional gauge-driven autoscaler.

The test suite uses these to demonstrate the properties the paper claims:
with at most ``f`` faulty replicas per group, safety (agreement, integrity,
order) always holds, and liveness is restored after leader changes.
"""

from repro.faults.behaviors import (
    DelayingReplica,
    DuplicatingRelayApp,
    EquivocatingLeaderReplica,
    EquivocatingRelayApp,
    FabricatingRelayApp,
    LyingAckReplica,
    MuteReplica,
    ReorderingRelayApp,
    SilentAckReplica,
    SilentRelayApp,
    SubsetRelayApp,
    WithholdingRelayApp,
    WrongVoteReplica,
)
from repro.faults.elasticity import (
    AutoscalePolicy,
    ElasticityController,
    elasticity_controller,
)
from repro.faults.injector import (
    FaultPlan,
    schedule_crash,
    schedule_join,
    schedule_leave,
    schedule_partition,
    schedule_recover,
    schedule_scale,
)
from repro.faults.nemesis import (
    PROFILES,
    IntensityProfile,
    NemesisOp,
    NemesisSchedule,
)

__all__ = [
    "EquivocatingLeaderReplica",
    "MuteReplica",
    "DelayingReplica",
    "WrongVoteReplica",
    "SilentRelayApp",
    "FabricatingRelayApp",
    "DuplicatingRelayApp",
    "ReorderingRelayApp",
    "WithholdingRelayApp",
    "EquivocatingRelayApp",
    "SubsetRelayApp",
    "LyingAckReplica",
    "SilentAckReplica",
    "FaultPlan",
    "schedule_crash",
    "schedule_partition",
    "schedule_recover",
    "schedule_join",
    "schedule_leave",
    "schedule_scale",
    "ElasticityController",
    "AutoscalePolicy",
    "elasticity_controller",
    "NemesisOp",
    "NemesisSchedule",
    "IntensityProfile",
    "PROFILES",
]
