"""``scripts/soak_digests.py``: the cells, the digest lines over a two-seed
sweep, and the strict exit status."""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
from types import SimpleNamespace

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "soak_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("soak_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cells_are_the_soak_files_the_pins_and_the_sweep(tool):
    names = list(tool.cells([42, 180]))
    assert names[:4] == ["soak_adaptive_tree", "soak_churn", "soak_reads",
                         "soak_retention"]
    assert names[4] == "soak_retention_heavy"
    assert names[5:13] == ["238@8", "42@0", "107@8", "180@0",
                           "36@0", "83@16", "1326@0", "1392@16"]
    # a sweep cell equal to a pin runs once
    assert names[13:] == ["42@16", "180@16"]
    assert len(tool.SWEEP_SEEDS) * len(tool.SWEEP_INTERVALS) == 800


def test_a_two_seed_sweep_prints_reproducible_digests(tool, capsys):
    chosen = tool.cells([0, 1])
    assert tool.run(chosen, {"180@0"}) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13 + 4 + 1
    digest, verdict, name = lines[-2].split()
    assert len(digest) == 16 and verdict == "ok" and name == "1@16"
    assert lines[8].split()[1:] == ["FAIL", "180@0"]
    assert lines[-1].endswith("combined over 17 cells, failing: 180@0")
    # the same cell run again gives the same post-mortem
    again = hashlib.sha256(repr(chosen["1@16"]()).encode()).hexdigest()
    assert again[:16] == digest


def test_the_exit_status_is_strict_both_ways(tool, capsys):
    cells = {"good": lambda: SimpleNamespace(ok=True),
             "bad": lambda: SimpleNamespace(ok=False)}
    assert tool.run(cells, {"bad"}) == 0
    assert tool.run(cells, set()) == 1
    assert "unexpected failures: bad" in capsys.readouterr().out
    assert tool.run(cells, {"bad", "good"}) == 1
    assert "expected to fail but passed: good" in capsys.readouterr().out
    assert tool.run(cells, {"bad", "elsewhere"}) == 0   # named, not run
