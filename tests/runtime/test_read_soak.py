"""Read-tier conformance: the read-safety soak passes on both backends.

A soak with ``read_ratio > 0`` interleaves optimistic reads with the
write budget and activates the read-safety invariants: no
accepted read without a correct voter's journal entry, and per-session
monotone cids.  The same config must come out green on the simulated and
the real-time backend, and every issued read must resolve (accepted or
fallen back) before the soak ends.
"""

from __future__ import annotations

from repro.runtime.chaos import ChaosReport, run_chaos_soak
from repro.scenario import ScenarioSpec
from tests.helpers import SCENARIOS, soak_spec

#: the CI read-soak files, shortened for tier 1
SIM_READS = soak_spec(ScenarioSpec.load(SCENARIOS / "soak_reads.json"),
                      duration=5.0, clients=2)
#: the rt soak runs on the wall clock — keep the horizon tight
RT_READS = soak_spec(SIM_READS, backend="rt", duration=2.5, settle=20.0)


def check_reads(report: ChaosReport) -> None:
    assert report.liveness_ok, report.summary()
    assert report.violations == [], report.summary()
    assert report.ok
    assert report.reads_issued > 0
    # Exactly-once resolution: accepted and fallback partition the reads.
    assert report.reads_accepted + report.read_fallbacks == report.reads_issued
    assert "read safety" in report.summary()


def test_sim_soak_with_optimistic_reads():
    check_reads(run_chaos_soak(SIM_READS, messages=30))


def test_rt_soak_with_optimistic_reads():
    report = run_chaos_soak(RT_READS, messages=16)
    check_reads(report)
    # Same seed, same config: both backends expand the same fault timeline.
    sim = run_chaos_soak(RT_READS.with_(backend="sim"), messages=16)
    assert sim.schedule == report.schedule


def test_read_free_soak_reports_no_read_machinery():
    report = run_chaos_soak(soak_spec(seed=7, duration=4.0, clients=2),
                            messages=24)
    assert report.ok
    assert report.reads_issued == 0
    assert "read safety" not in report.summary()
