"""Byzantine and benign fault injection.

:mod:`repro.faults.behaviors` provides replica classes and ByzCast
application classes exhibiting specific misbehaviours (equivocating leader,
mute replica, corrupted votes, silent/fabricating/duplicating/reordering/
withholding/equivocating/subset relays, lying/silent relay acks);
:mod:`repro.faults.injector` arms a fault timeline on a deployment: a
list of :class:`NemesisOp` (crash, recover, partition, heal, burst, delay,
flap, join, leave, scale_up, scale_down), scheduled by
:func:`schedule_ops`.  A hand-written plan is a literal op list; Byzantine
code is the deployment's ``replica_classes`` / ``app_overrides`` dicts.

:mod:`repro.faults.nemesis` generates seeded, randomized timelines of the
same ops, bounded by ``f`` faults per group.

:mod:`repro.faults.elasticity` makes membership churn a fault: join/leave
swaps and f-changing scale ops driven through each group's ordered
reconfiguration path, each acting when called; :func:`schedule_ops` is
what times them.

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
from repro.faults.elasticity import ElasticityController, elasticity_controller
from repro.faults.injector import schedule_crash, schedule_ops
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
    "schedule_crash",
    "schedule_ops",
    "ElasticityController",
    "elasticity_controller",
    "NemesisOp",
    "NemesisSchedule",
    "IntensityProfile",
    "PROFILES",
]
