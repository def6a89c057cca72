"""Property: tree switches never break delivery, order, or agreement.

Adaptive soaks drive cross-pair hotspot traffic so the planner provably
re-plans mid-run, while the nemesis injects crashes/partitions (and, in
the churn variant, membership swaps — so a regency change or a join can
land *mid-switch*).  For arbitrary seeds the run must quiesce with every
invariant intact: gap-free / duplicate-free delivery, identical relative
order of the messages common to any two correct replicas (checked before,
during and after the switch by construction — the order invariant spans
the whole run), view agreement, and the tree-switch agreement invariant
(every active replica of every group ends on the same tree epoch and
edges).  Small hypothesis budget: each example is a full simulated soak.

The rt backend runs the same seeded schedule on wall clock — once, fixed
seed — pinning that ordered TreeUpdates behave identically off-sim.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.runtime.chaos import run_chaos_soak
from repro.scenario import ScenarioSpec
from tests.helpers import SCENARIOS, soak_spec

#: the CI tree-switch soak (4 targets, balanced, fanout 2, light chaos)
#: with a planner quicker on the trigger, so short runs switch early
FAST_ADAPT = soak_spec(
    ScenarioSpec.load(SCENARIOS / "soak_adaptive_tree.json"),
    clients=2, max_in_flight=2, adapt_min_samples=12, adapt_cooldown=0.5,
)

#: membership churn rides along: joins/leaves + a scale cycle interleave
#: with the planner's switches, so reconfigurations and tree updates
#: contend for the same ordered admin path
CHURN_ADAPT = soak_spec(FAST_ADAPT, duration=8.0, intensity="churn", joins=1,
                        scale_cycles=1, checkpoint_interval=16)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=4, deadline=None)
def test_random_seeds_never_violate_invariants_across_switches(seed):
    report = run_chaos_soak(FAST_ADAPT.with_(seed=seed), messages=32)
    assert report.liveness_ok, report.summary()
    assert report.violations == [], report.summary()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=3, deadline=None)
def test_mid_switch_churn_and_regency_changes_hold_invariants(seed):
    report = run_chaos_soak(CHURN_ADAPT.with_(seed=seed), messages=32)
    assert report.liveness_ok, report.summary()
    assert report.violations == [], report.summary()


def test_joiner_spawned_after_a_switch_replays_pre_switch_relays():
    """Regression (seed 1, no checkpoints): a joiner spawned after a tree
    switch replays the whole history, so it must start on the tree the
    deployment was built with.  Built on the post-switch tree it denied
    the replayed pre-switch ``RelayBatch``es (their sender was neither its
    parent nor a drain) and diverged from the incumbents."""
    report = run_chaos_soak(
        soak_spec(CHURN_ADAPT, checkpoint_interval=0).with_(seed=1),
        messages=32)
    assert report.tree_switches >= 1, report.summary()
    assert report.joiners_activated >= 1, report.summary()
    assert report.liveness_ok, report.summary()
    assert report.violations == [], report.summary()


def test_adaptive_soak_actually_switches_and_is_deterministic():
    """The property above is vacuous if no switch ever fires — pin a seed
    that provably switches, and that the sim schedule is replayable."""
    first = run_chaos_soak(FAST_ADAPT, messages=32)  # the file's seed: 11
    assert first.tree_switches >= 1, first.summary()
    assert first.tree_epoch >= 1
    assert first.violations == [], first.summary()
    second = run_chaos_soak(FAST_ADAPT, messages=32)
    assert second == first  # dataclass equality: every post-mortem field


def test_rt_backend_survives_tree_switches():
    config = soak_spec(FAST_ADAPT, backend="rt", duration=4.0, settle=20.0)
    report = run_chaos_soak(config, messages=24)
    assert report.liveness_ok, report.summary()
    assert report.violations == [], report.summary()
    # same seed, same config: the sim expands the identical fault timeline
    sim = run_chaos_soak(config.with_(backend="sim"), messages=24)
    assert sim.schedule == report.schedule
