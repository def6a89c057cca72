"""Churn generation in the nemesis: bounds, pairing, determinism.

The churn profile adds join/leave swaps and paired scale cycles to the
randomized schedule.  These tests pin the safety bounds (swaps never touch
victims or the regency-0 leader; cycles are strictly paired) and that the
pre-churn profiles are byte-identical to what they generated before churn
support landed (no extra rng draws).
"""

from __future__ import annotations

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.env import make_runtime
from repro.env.chaos import install_chaos
from repro.faults.elasticity import elasticity_controller
from repro.faults.nemesis import CHURN_KINDS, PROFILES, NemesisSchedule
from tests.helpers import FAST_COSTS, replica_names

GROUPS = {gid: list(replica_names(gid)) for gid in ("g1", "g2", "h1")}


def test_churn_profile_emits_membership_ops():
    profile = PROFILES["churn"]
    assert profile.join_ops > 0 and profile.leave_ops > 0
    assert profile.scale_cycles > 0
    found = set()
    for seed in range(8):
        schedule = NemesisSchedule.generate(GROUPS, seed=seed, duration=10.0,
                                            profile="churn")
        found |= CHURN_KINDS & set(schedule.kinds())
    assert found == CHURN_KINDS  # across a few seeds, every churn op appears


def test_swaps_spare_victims_and_the_leader():
    for seed in range(12):
        schedule = NemesisSchedule.generate(GROUPS, seed=seed, duration=10.0,
                                            profile="churn")
        for op in schedule.ops:
            if op.kind in ("join", "leave"):
                gid, member = op.target
                assert member != GROUPS[gid][0]  # regency-0 leader stays
                assert member in GROUPS[gid][1:]
                assert member not in schedule.victims[gid]


def test_scale_cycles_are_strictly_paired():
    for seed in range(12):
        schedule = NemesisSchedule.generate(GROUPS, seed=seed, duration=10.0,
                                            profile="churn")
        ups = [op for op in schedule.ops if op.kind == "scale_up"]
        downs = [op for op in schedule.ops if op.kind == "scale_down"]
        assert len(ups) == len(downs) == schedule.profile.scale_cycles
        # Each scale_up window closes exactly at its paired scale_down.
        assert sorted(op.until for op in ups) == sorted(op.time for op in downs)
        for up in ups:
            assert up.time < up.until <= schedule.horizon


def test_churn_timeline_is_seed_deterministic():
    a = NemesisSchedule.generate(GROUPS, seed=11, duration=8.0, profile="churn")
    b = NemesisSchedule.generate(GROUPS, seed=11, duration=8.0, profile="churn")
    assert a.describe() == b.describe()
    assert a.ops == b.ops
    c = NemesisSchedule.generate(GROUPS, seed=12, duration=8.0, profile="churn")
    assert a.describe() != c.describe()


def test_existing_profiles_emit_no_churn():
    # light/medium/heavy keep all churn counts at zero, so their timelines
    # (and the golden SHA in tests/properties/test_chaos_soak.py) are
    # unchanged by churn support.
    for name in ("light", "medium", "heavy"):
        profile = PROFILES[name]
        assert (profile.join_ops, profile.leave_ops, profile.scale_cycles) \
            == (0, 0, 0)
        schedule = NemesisSchedule.generate(GROUPS, seed=7, duration=10.0,
                                            profile=name)
        assert not CHURN_KINDS & set(schedule.kinds())


def test_apply_churn_arms_through_cached_controller():
    """Churn ops take no controller argument: they queue on the
    deployment's cached ``elasticity_controller``, so the controller a
    caller fetches afterwards is the one that confirms them."""
    schedule = NemesisSchedule.generate(GROUPS, seed=0, duration=10.0,
                                        profile="churn")
    churn = [op.kind for op in schedule.ops if op.kind in CHURN_KINDS]
    assert churn
    runtime = make_runtime("sim", seed=0)
    install_chaos(runtime)
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            runtime=runtime, costs=FAST_COSTS)
    schedule.apply(dep)
    controller = elasticity_controller(dep)
    dep.run(until=schedule.horizon + 1.0)
    assert sorted(kind for _, kind, _, _ in controller.events) == sorted(churn)
    runtime.close()
