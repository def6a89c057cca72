"""Nemesis schedule generation and application.

Covers: seed-determinism of the expanded timeline, the per-group victim
budget (never more than ``f`` replicas targeted), crash/partition window
hygiene (every crash recovers and every partition heals before the
horizon), and applying a schedule to live deployments on both backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.env import make_runtime
from repro.env.chaos import install_chaos
from repro.faults.nemesis import (
    BYZANTINE_APPS,
    BYZANTINE_REPLICAS,
    PROFILES,
    NemesisOp,
    NemesisSchedule,
)
from tests.helpers import FAST_COSTS, replica_names

GROUPS = {gid: list(replica_names(gid)) for gid in ("g1", "g2", "h1")}


def test_same_seed_same_timeline():
    a = NemesisSchedule.generate(GROUPS, seed=42, duration=10.0)
    b = NemesisSchedule.generate(GROUPS, seed=42, duration=10.0)
    assert a.describe() == b.describe()
    assert a.ops == b.ops
    assert a.victims == b.victims
    c = NemesisSchedule.generate(GROUPS, seed=43, duration=10.0)
    assert a.describe() != c.describe()


def test_victim_budget_respects_f():
    schedule = NemesisSchedule.generate(GROUPS, seed=1, duration=10.0,
                                        profile="heavy", f=1)
    for gid, victims in schedule.victims.items():
        assert len(victims) <= 1
        assert set(victims) <= set(GROUPS[gid])
    # Every crash/partition op targets a designated victim of its group.
    for op in schedule.ops:
        if op.kind in ("crash", "recover", "partition", "heal"):
            gid, victim = op.target
            assert victim in schedule.victims[gid]
    # Byzantine assignments also stay inside the victim set.
    for gid, members in schedule.replica_classes.items():
        assert set(members) <= set(schedule.victims[gid])
        assert all(cls in BYZANTINE_REPLICAS for cls in members.values())
    for gid, members in schedule.app_overrides.items():
        assert set(members) <= set(schedule.victims[gid])
        assert all(cls in BYZANTINE_APPS for cls in members.values())


def test_small_groups_get_no_victims():
    # A 3-replica group cannot tolerate any fault (n >= 3f + 1).
    schedule = NemesisSchedule.generate({"g1": ["g1/r0", "g1/r1", "g1/r2"]},
                                        seed=5, duration=10.0, profile="heavy")
    assert schedule.victims["g1"] == ()
    assert not any(op.kind in ("crash", "partition") for op in schedule.ops)
    assert not schedule.replica_classes and not schedule.app_overrides


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_windows_close_before_horizon(profile):
    for seed in range(8):
        schedule = NemesisSchedule.generate(GROUPS, seed=seed, duration=12.0,
                                            profile=profile)
        crashes = {op.target for op in schedule.ops if op.kind == "crash"}
        recovers = {op.target for op in schedule.ops if op.kind == "recover"}
        assert crashes == recovers
        partitions = {op.target for op in schedule.ops if op.kind == "partition"}
        heals = {op.target for op in schedule.ops if op.kind == "heal"}
        assert partitions == heals
        for op in schedule.ops:
            assert op.time <= op.until <= schedule.horizon
        assert schedule.horizon <= schedule.duration
        # Ops arrive sorted by time.
        times = [op.time for op in schedule.ops]
        assert times == sorted(times)


def test_burst_windows_are_disjoint():
    for seed in range(8):
        schedule = NemesisSchedule.generate(GROUPS, seed=seed, duration=12.0,
                                            profile="heavy")
        bursts = sorted((op.time, op.until) for op in schedule.ops
                        if op.kind == "burst")
        for (_, end), (start, _) in zip(bursts, bursts[1:]):
            assert start >= end


def test_medium_profile_activates_many_fault_kinds():
    schedule = NemesisSchedule.generate(GROUPS, seed=7, duration=12.0,
                                        profile="medium")
    kinds = set(schedule.kinds())
    assert {"crash", "recover", "partition", "heal", "burst"} <= kinds
    assert len(kinds) >= 3  # acceptance floor: >= 3 distinct fault kinds


def test_generate_rejects_bad_duration():
    with pytest.raises(ValueError):
        NemesisSchedule.generate(GROUPS, seed=1, duration=0.0)


def test_describe_format():
    op = NemesisOp(0.583626, "crash", ("g1", "g1/r2"), until=1.583971)
    assert op.describe() == "t=0.583626 crash g1/r2 until=1.583971"
    instant = NemesisOp(1.0, "recover", ("g1", "g1/r2"), until=1.0)
    assert instant.describe() == "t=1.0 recover g1/r2"
    flap = NemesisOp(0.5, "flap", ("g1/r1", "g1/r2"), until=0.75,
                     detail=(("cycles", 2), ("period", 0.0625)))
    assert flap.describe() == (
        "t=0.5 flap g1/r1 g1/r2 until=0.75 cycles=2 period=0.0625")


@pytest.mark.parametrize("op", [
    NemesisOp(0.1, "crash", ("g1", "g1/r2"), until=0.3),
    NemesisOp(0.1, "crash", ("g1", "x/r2"), until=0.3),   # a foreign name
    NemesisOp(0.2, "join", ("g1",), until=0.2),
    NemesisOp(0.3, "burst", (), until=0.4, detail=(("drop_rate", 0.05),)),
    NemesisOp(0.4, "delay", ("h1/r0",), until=0.9, detail=(("extra", 0.01),)),
    NemesisOp(1 / 3, "scale_up", ("g2",), until=2 / 3),
])
def test_parse_reads_back_what_describe_wrote(op):
    assert NemesisOp.parse(op.describe()) == op


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       profile=st.sampled_from(sorted(PROFILES)))
@settings(max_examples=40, deadline=None)
def test_every_generated_op_round_trips_through_its_line(seed, profile):
    schedule = NemesisSchedule.generate(GROUPS, seed=seed, duration=10.0,
                                        profile=profile)
    lines = [op.describe() for op in schedule.ops]
    assert [NemesisOp.parse(line) for line in lines] == schedule.ops
    assert all(line.count(" g1/g1/") == 0 for line in lines)


def test_apply_requires_chaos_for_transport_ops():
    # burst/delay/flap act on the runtime's transport; without
    # install_chaos it is not a ChaosTransport, so nothing is armed.
    schedule = NemesisSchedule.generate(GROUPS, seed=7, duration=12.0,
                                        profile="medium")
    assert any(op.kind in ("burst", "delay", "flap") for op in schedule.ops)
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            costs=FAST_COSTS)
    armed = dep.runtime.clock.pending
    with pytest.raises(ValueError, match="ChaosTransport"):
        schedule.apply(dep)
    assert dep.runtime.clock.pending == armed


def test_apply_on_sim_deployment_runs_and_quiesces():
    runtime = make_runtime("sim", seed=3)
    chaos = install_chaos(runtime)
    tree = OverlayTree.two_level(["g1", "g2"])
    dep = ByzCastDeployment(tree, runtime=runtime, costs=FAST_COSTS)
    schedule = NemesisSchedule.for_deployment(dep, seed=3, duration=4.0)
    schedule.apply(dep)
    dep.run(until=schedule.horizon + 0.5)
    # Every crashed victim recovered by the horizon...
    for gid, victims in schedule.victims.items():
        for victim in victims:
            assert not dep.groups[gid].replica(victim).crashed
    # ...and the final heal calmed the chaos layer.
    assert runtime.monitor.counters["chaos.calm"] == 1
    assert chaos.config.drop_rate == 0.0
    runtime.close()
