"""``scripts/profile_workload.py``: the share timer, and one run end to end."""

from __future__ import annotations

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


def test_one_workload_end_to_end_prints_profile_rows_and_shares():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "leader_crash", "--seconds", "3",
         "--top", "5",
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
