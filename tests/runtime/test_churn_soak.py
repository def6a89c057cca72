"""Churn chaos soaks: membership ops under faults, on both backends.

The churn soak layers join/leave swaps and a scale cycle on top of the
standard nemesis faults and checks two extra invariants after quiescence:
view agreement (every active correct replica holds the controller's
confirmed final membership) and joiner replay (every activated joiner
delivered the same sequence as an incumbent).  The sim run is pinned to a
seed and must be bit-reproducible.
"""

from __future__ import annotations

import pytest

from repro.runtime.chaos import run_chaos_soak
from repro.scenario import ScenarioSpec
from tests.helpers import CHURN_PIN, CHURN_SOAK, SCENARIOS, soak_spec


def test_churn_soak_passes_with_membership_invariants():
    report = run_chaos_soak(CHURN_SOAK)
    assert report.ok, report.summary()
    kinds = {kind for _, kind, _, _ in report.membership_events}
    assert kinds == {"join", "leave", "scale_up", "scale_down"}
    assert report.joiners_activated >= 1
    summary = report.summary()
    assert "churn    :" in summary
    assert "view agreement, joiner replay" in summary


def test_churn_soak_is_seed_deterministic():
    first = run_chaos_soak(CHURN_SOAK)
    second = run_chaos_soak(CHURN_SOAK)
    assert first == second  # dataclass equality: every post-mortem field
    assert first.ok


def test_churn_soak_boundary_decision_known_to_one_replica():
    # Regression (seed 238, checkpointed): a Reconfig decided by exactly one
    # correct replica raises that replica's STOP threshold past what the old
    # view can muster, and no second state-transfer voucher for the boundary
    # cid exists anywhere.  Recovery relies on write-certificate-matching
    # single-voucher adoption plus replies from catch-up execution so the
    # admin client can still confirm the view.
    report = run_chaos_soak(soak_spec(CHURN_SOAK, seed=238, **CHURN_PIN),
                            messages=24)
    assert report.ok, report.summary()


def test_churn_soak_instance_opened_across_scale_down_boundary():
    # Regression (seed 42): a pipelined instance opened while the view had 7
    # members kept quorum 5 after the scale-down back to 4 — 4 live members
    # could write but never accept, cycling through regencies forever.
    # ConsensusInstance.rescope at the reconfig boundary fixes the quorum.
    report = run_chaos_soak(
        soak_spec(CHURN_SOAK, seed=42, checkpoint_interval=0, **CHURN_PIN),
        messages=24)
    assert report.ok, report.summary()


def test_churn_soak_state_round_stays_open_for_straggler_vouchers():
    # Regression (seed 107): the first f+1 state responses were the wrong
    # mix — a departed member whose log stops before the boundary cid
    # answered ahead of the members that decided it — and the old code
    # closed the transfer round without adopting, wedging the joiner.
    # StateTransfer.offer now keeps the round open while any responder
    # proves we are behind, until every peer has answered.
    report = run_chaos_soak(soak_spec(CHURN_SOAK, seed=107, **CHURN_PIN),
                            messages=24)
    assert report.ok, report.summary()


@pytest.mark.parametrize("seed, interval", [(36, 0), (83, 16), (1326, 0),
                                            (1392, 16)])
def test_churn_soak_parent_reconfiguration_keeps_relay_streams_live(
        seed, interval):
    # Regression pins for relay certificates: each cell scales or shrinks a
    # *parent* group under drop bursts.  A certificate checked only at
    # execution against a parent membership changed in between used up its
    # index unreleased (ops left outstanding, or views diverging), and a
    # certificate lost from a pool came back only with a new copy.
    # ByzCastApplication.vouch holds the proposal until the update
    # executed, and Application.reoffer pools a lost certificate again.
    report = run_chaos_soak(
        soak_spec(CHURN_SOAK, seed=seed, checkpoint_interval=interval,
                  **CHURN_PIN),
        messages=24)
    assert report.ok, report.summary()


@pytest.mark.xfail(strict=True, reason="open: the controller and a replica "
                   "end on different views (ROADMAP P0)")
def test_churn_soak_unconfirmed_scale_up_view_agreement():
    # Known failure (seed 180): h1 scales up to 7 members at 1.17 s, swaps
    # h1/r3 for h1/r7 and scales back down to 4 at 2.81 s; the controller
    # confirms all three.  h1/r0, a member of every view, never installs
    # the scale_down, so at quiesce it still holds the 7-member view and the
    # view-agreement invariant fails.  Workload liveness is fine (ROADMAP
    # P0); which seeds fail moves with the proposal schedule: this pin was
    # seed 1235 until requests and replies went to the 2f+1 replicas of a
    # quorum, which moved the failing cells (the same symptom each time).
    # Strict: the fix must flip this pin to a plain regression test.
    report = run_chaos_soak(
        soak_spec(CHURN_SOAK, seed=180, checkpoint_interval=0, **CHURN_PIN),
        messages=24)
    assert report.ok, report.summary()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open: churn over WAN-spread sites stalls a "
                   "replica and leaves ops outstanding (ROADMAP P0)")
def test_wan_churn_soak_at_its_own_seed():
    # Known failure (elastic_wan_churn.json, its seed 11): 13 of 60 ops stay
    # outstanding after 239 regency changes, and agreement fails in g2: its
    # replica 3 delivered 21 ops, its first replica only the first 17 of
    # them.  Seeds 8, 10 and 19 of the file fail too (10 with the P0's
    # view-agreement symptom).
    # ``raises=AssertionError``: only the soak's verdict may fail it; an
    # exception (a KeyError from a client site with no latency entry, say)
    # fails the test.
    spec = ScenarioSpec.load(SCENARIOS / "elastic_wan_churn.json")
    report = run_chaos_soak(spec)
    assert report.ok, report.summary()


def test_churn_soak_passes_on_realtime_backend():
    report = run_chaos_soak(
        soak_spec(CHURN_SOAK, backend="rt", duration=4.0,
                  checkpoint_interval=0), messages=24)
    assert report.ok, report.summary()
    assert report.membership_events
