"""``scripts/profile_workload.py``: the share timer, the run window, and
one run per backend end to end."""

from __future__ import annotations

import gc
import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "profile_workload.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("profile_workload", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_share_counts_outermost_calls_and_names_must_resolve(tool):
    share = tool.Share("tests.helpers:replica_names")

    def countdown(n):
        return n if n == 0 else timed(n - 1)

    timed = share.wrap(countdown)
    assert timed(3) == 0 and timed(0) == 0
    assert share.calls == 2 and share.total > 0.0
    assert "tests.helpers:replica_names" in share.row(run_wall_s=1.0)
    with pytest.raises(SystemExit):
        tool.Share("no_colon_here").install()
    with pytest.raises(AttributeError):
        tool.Share("repro.core.tree:OverlayTree.no_such_method").install()


def test_run_window_books_only_what_happens_while_the_backend_runs(tool):
    window = tool.RunWindow()

    class Runner:
        def run(self, passes):
            for _ in range(passes):
                gc.collect()
            return passes

    gc.callbacks.append(window.on_gc)
    try:
        gc.collect()                      # before the window opens
        run = window.around(Runner.run)
        assert run(Runner(), 3) == 3
        gc.collect()                      # after it closed
    finally:
        gc.callbacks.remove(window.on_gc)
    assert window.collections == [0, 0, 3]
    assert window.pauses[2] > 0.0 and window.pauses[:2] == [0.0, 0.0]
    assert window.wall >= window.pauses[2]
    report = window.report(completed=10)
    assert [line.split()[:2] for line in report.splitlines()[2:6]] == [
        ["gen0", "0"], ["gen1", "0"], ["gen2", "3"], ["total", "3"]]
    assert "select" not in report         # no asyncio loop ran


def gc_rows(out):
    """``{"gen0": (collections, pause ms, share), ...}`` of a --gc report."""
    return {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line.startswith(("gen", "total"))}


def test_one_workload_end_to_end_prints_profile_rows_and_shares():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "leader_crash", "--seconds", "3",
         "--top", "5", "--gc",
         "--share", "repro.bcast.replica:Replica._take_checkpoint",
         "--share", "repro.crypto.digest:digest"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "leader_crash seed 11 under cProfile" in out
    assert "-- top 5 by self time" in out
    assert "-- top 5 by cumulative time" in out
    assert "leader_crash seed 11 un-profiled" in out and "0 failed" in out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line.startswith("repro.")}
    assert set(rows) == {"repro.bcast.replica:Replica._take_checkpoint",
                         "repro.crypto.digest:digest"}
    for calls, total_ms, per_call_ms, share in rows.values():
        assert int(calls) > 0 and float(total_ms) > 0.0
        assert share.endswith("%")
    # --gc on a sim workload: GC rows only, no asyncio loop to report on
    assert out.count("leader_crash seed 11 un-profiled") == 2
    collections = gc_rows(out)
    assert set(collections) == {"gen0", "gen1", "gen2", "total"}
    assert int(collections["total"][0]) == sum(
        int(collections[f"gen{g}"][0]) for g in range(3)) > 0
    assert "asyncio handles" not in out


def test_gc_phase_on_an_asyncio_workload_reports_cpu_idle_and_handles():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "rt_mixed", "--seconds", "3",
         "--top", "0", "--gc"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "under cProfile" not in out
    assert "rt_mixed seed 11 un-profiled" in out and "0 failed" in out
    assert int(gc_rows(out)["total"][0]) > 0
    values = {}
    for label in ("process CPU per completed op",
                  "loop idle (inside the selector)",
                  "asyncio handles created per op"):
        (line,) = [row for row in out.splitlines() if row.startswith(label)]
        values[label] = float(line[len(label):].split()[0].rstrip("%"))
    assert values["process CPU per completed op"] > 0.0
    assert 0.0 < values["loop idle (inside the selector)"] < 100.0
    # deliveries and CPU jobs ride the runtime's ready queue: a handful of
    # handles per op (drain wake-ups, timers), not two per message
    assert 0.0 < values["asyncio handles created per op"] < 15.0
