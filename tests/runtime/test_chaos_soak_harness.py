"""Acceptance: the invariant-checked chaos soak passes on both backends.

The issue's bar: a seeded soak that activates at least three distinct
fault types against a two-level tree must complete with all five
invariants and the liveness check green on the simulated *and* the
real-time backend, and the same seed must expand to the same schedule.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.runtime.chaos import ChaosReport, run_chaos_soak
from tests.helpers import soak_spec

SIM_SOAK = soak_spec(seed=7, duration=6.0, clients=2)
#: the rt soak runs on the wall clock — keep the horizon tight
RT_SOAK = soak_spec(backend="rt", seed=7, duration=3.0, clients=2,
                    settle=20.0)


def check(report: ChaosReport) -> None:
    assert report.liveness_ok, report.summary()
    assert report.violations == [], report.summary()
    assert report.ok
    assert report.completed == report.sent
    assert len(report.fault_kinds) >= 3
    assert report.recoveries >= 1          # at least one crash recovered
    assert any(k.startswith("chaos.") for k in report.injected)


def test_sim_soak_runs_with_clients_spread_over_wan_sites():
    # The soak places its clients as the drivers do (client_site): in the
    # regions, round-robin.  At a single default site, the first send of a
    # client had no latency entry on the WAN matrix (KeyError).
    spec = soak_spec(SIM_SOAK, latency="wan", sites="wan_spread")
    report = run_chaos_soak(spec, messages=24)
    assert isinstance(report, ChaosReport)
    assert report.sent == 24


def test_sim_soak_passes_invariants_and_liveness():
    report = run_chaos_soak(SIM_SOAK, messages=40)
    check(report)
    # The sim backend consumed virtual, not wall, time.
    assert report.elapsed >= SIM_SOAK.workload.duration * 0.85
    assert "PASS" in report.summary()


def test_rt_soak_passes_invariants_and_liveness():
    report = run_chaos_soak(RT_SOAK, messages=24)
    check(report)
    # Same seed, same config: both backends expand the same fault timeline.
    sim = run_chaos_soak(RT_SOAK.with_(backend="sim"), messages=24)
    assert sim.schedule == report.schedule
    assert sim.fault_kinds == report.fault_kinds


def test_unknown_intensity_rejected():
    with pytest.raises(ConfigurationError, match="apocalyptic"):
        run_chaos_soak(soak_spec(SIM_SOAK, intensity="apocalyptic"))


def test_soak_and_run_scenario_arm_the_same_schedule(monkeypatch):
    """Both entry points arm through ``build_armed_deployment``: same timeline."""
    from repro.faults.nemesis import NemesisSchedule
    from repro.scenario import run_scenario

    timelines = []
    generate = NemesisSchedule.generate

    def recording(**kwargs):
        schedule = generate(**kwargs)
        timelines.append(schedule.describe())
        return schedule

    monkeypatch.setattr(NemesisSchedule, "generate", recording)
    report = run_chaos_soak(SIM_SOAK, messages=8)
    run_scenario(SIM_SOAK)
    assert timelines == [report.schedule] * 2 and "\n" in report.schedule
