"""The elasticity controller: join/leave swaps and scale cycles.

Timed churn is a NemesisOp list armed by ``schedule_ops``, the one code
that times a churn op.  End-to-end on a simulated deployment: every
membership change flows
through the group's ordered reconfiguration, deployment bookkeeping and
client proxies follow, and neighbour groups learn the change through
ordered MembershipUpdate commands (exercised by global multicasts across
the churned group).
"""

from __future__ import annotations

import pytest

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.env import make_runtime
from repro.faults.elasticity import elasticity_controller
from repro.faults.injector import schedule_ops
from repro.faults.nemesis import NemesisOp
from repro.types import destination
from tests.helpers import FAST_COSTS


def make_deployment(seed: int = 3):
    runtime = make_runtime("sim", seed=seed)
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            runtime=runtime, costs=FAST_COSTS,
                            request_timeout=0.5)
    return runtime, dep


def drive_traffic(dep, client, count: int, until: float) -> None:
    for index in range(count):
        dst = (("g1",), ("g2",), ("g1", "g2"))[index % 3]
        client.amulticast(destination(*dst), payload=("m", index))
    dep.run(until=until)


def test_join_swaps_a_standby_for_the_last_member():
    runtime, dep = make_deployment()
    client = dep.add_client("c1", retransmit_timeout=0.5)
    controller = elasticity_controller(dep)
    assert elasticity_controller(dep) is controller  # cached per deployment
    schedule_ops(dep, [NemesisOp(0.5, "join", ("g1",), until=0.5)])
    drive_traffic(dep, client, 12, until=6.0)
    runtime.run_until(lambda: client.pending() == 0, timeout=30.0)

    expected = ("g1/r0", "g1/r1", "g1/r2", "g1/r4")
    assert dep.group_configs["g1"].replicas == expected
    assert [(kind, gid) for _, kind, gid, _ in controller.events] \
        == [("join", "g1")]
    joiner = dep.groups["g1"].replica("g1/r4")
    assert joiner.active and joiner.view.replicas == expected
    assert not dep.groups["g1"].replica("g1/r3").active
    # Multicasts spanning the churned group still agree everywhere.
    sequences = dep.delivered_sequences("g1")
    assert sequences and all(seq == sequences[0] for seq in sequences)
    runtime.close()


def test_leave_replaces_a_named_member():
    runtime, dep = make_deployment(seed=4)
    client = dep.add_client("c1", retransmit_timeout=0.5)
    schedule_ops(dep, [NemesisOp(0.4, "leave", ("g1", "g1/r1"), until=0.4)])
    drive_traffic(dep, client, 9, until=6.0)
    runtime.run_until(lambda: client.pending() == 0, timeout=30.0)

    assert dep.group_configs["g1"].replicas \
        == ("g1/r0", "g1/r4", "g1/r2", "g1/r3")  # same slot, new member
    assert not dep.groups["g1"].replica("g1/r1").active
    runtime.close()


def test_scale_cycle_returns_to_original_membership():
    runtime, dep = make_deployment(seed=5)
    client = dep.add_client("c1", retransmit_timeout=0.5)
    controller = elasticity_controller(dep)
    original = dep.group_configs["g2"].replicas
    schedule_ops(dep, [NemesisOp(0.3, "scale_up", ("g2",), until=3.0),
                       NemesisOp(3.0, "scale_down", ("g2",), until=3.0)])
    drive_traffic(dep, client, 12, until=8.0)
    runtime.run_until(lambda: client.pending() == 0, timeout=30.0)

    assert [kind for _, kind, _, _ in controller.events] \
        == ["scale_up", "scale_down"]
    up_members = controller.events[0][3].split(",")
    assert len(up_members) == 7  # f=1 -> f=2 adds exactly three
    assert dep.group_configs["g2"].replicas == original
    assert dep.group_configs["g2"].f == 1
    for name in set(up_members) - set(original):
        assert not dep.groups["g2"].replica(name).active
    assert controller.idle()
    runtime.close()


def test_scale_down_at_the_floor_is_skipped():
    runtime, dep = make_deployment(seed=6)
    controller = elasticity_controller(dep)
    # f=1 is the floor
    schedule_ops(dep, [NemesisOp(0.1, "scale_down", ("g1",), until=0.1)])
    dep.run(until=1.0)
    assert dep.group_configs["g1"].f == 1
    assert controller.events == []
    assert runtime.monitor.counters["elasticity.skipped"] == 1
    assert controller.idle()
    runtime.close()


def test_swap_of_unknown_member_is_skipped():
    runtime, dep = make_deployment(seed=7)
    schedule_ops(dep, [NemesisOp(0.1, "leave", ("g1", "g1/r9"), until=0.1)])
    dep.run(until=1.0)
    assert dep.group_configs["g1"].replicas \
        == ("g1/r0", "g1/r1", "g1/r2", "g1/r3")
    assert runtime.monitor.counters["elasticity.skipped"] == 1
    runtime.close()


def test_unknown_group_raises():
    runtime, dep = make_deployment(seed=8)
    controller = elasticity_controller(dep)
    with pytest.raises(KeyError):
        controller.join("nope")
    runtime.close()


def test_an_op_list_naming_an_unknown_group_raises_and_arms_nothing():
    runtime, dep = make_deployment(seed=8)
    ops = [NemesisOp(0.1, "crash", ("g1", "g1/r3"), until=0.1),
           NemesisOp(0.2, "join", ("nope",), until=0.2)]
    with pytest.raises(KeyError, match="nope"):
        schedule_ops(dep, ops)
    dep.run(until=1.0)
    # the crash listed before the bad op was not armed either
    assert not dep.groups["g1"].replica("g1/r3").crashed
    assert dep.group_configs["g1"].replicas \
        == ("g1/r0", "g1/r1", "g1/r2", "g1/r3")
    runtime.close()
