"""``scripts/bench_pairs.py``: the claim rule, and one real pair end to end."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(values):
    return [{"metrics": {"m": value}, "attempted": 10, "failed": 0,
             "correct": True} for value in values]


def claim_line(pairs, capsys, parent, change, direction="higher"):
    pairs.report("w", "ref", {"m": direction},
                 {"parent": runs(parent), "change": runs(change)})
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("m "))
    return line.split()


def test_claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_parent_iqr(
        pairs, capsys):
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    faster = [value + 20 for value in parent]
    assert claim_line(pairs, capsys, parent, faster)[-2:] == ["10/10", "yes"]
    # eight wins of ten is not enough, whatever the medians say
    mixed = faster[:8] + [50, 50]
    assert claim_line(pairs, capsys, parent, mixed)[-2:] == ["8/10", "no"]
    # every pair won, but by less than the parent's own spread
    barely = [value + 1 for value in parent]
    assert claim_line(pairs, capsys, parent, barely)[-2:] == ["10/10", "no"]
    # lower-is-better metrics win downwards
    slower = claim_line(pairs, capsys, parent, faster, direction="lower")
    assert slower[-2:] == ["0/10", "no"]


def test_ties_count_for_neither_side(pairs, capsys):
    parent = [100.0] * 10
    assert claim_line(pairs, capsys, parent, parent)[-2:] == ["0/0", "no"]
    nine_ties = [100.0] * 9 + [150.0]
    assert claim_line(pairs, capsys, parent, nine_ties)[-2] == "1/1"


def test_one_pair_end_to_end_writes_result_sets_compare_reads(tmp_path):
    in_git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True)
    if in_git.returncode != 0:
        pytest.skip("not a git checkout: no parent to extract")
    prefix = tmp_path / "pairs"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", "--workload", "rt_tcp_fanout",
         "--pairs", "1", "--seconds", "0.5", "--out", str(prefix)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "throughput_msgs_per_s" in done.stdout
    assert "0 run(s) with a failed check" in done.stdout
    for side in ("parent", "change"):
        records = json.loads(
            (tmp_path / f"pairs.{side}.json").read_text())["records"]
        assert [(r["workload"], r["seed"], r["trace"]) for r in records] == [
            ("rt_tcp_fanout", 11, 0)]
        assert records[0]["failed"] == 0 and records[0]["correct"]
    compared = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"),
         f"{prefix}.parent.json", f"{prefix}.change.json"],
        capture_output=True, text=True, timeout=60)
    assert "rt_tcp_fanout  throughput_msgs_per_s" in compared.stdout


def layer_rows(pairs, capsys, parent, change, direction="lower"):
    traced = {side: [{"metrics": {"m": value, "gone": None}}
                     for value in values]
              for side, values in (("parent", parent), ("change", change))}
    pairs.layer_report("w", {"m": direction, "gone": "lower"}, traced)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("w: layer metrics over 3 traced runs per side")
    assert not any(line.startswith("gone ") for line in out)
    (line,) = [line for line in out if line.startswith("m ")]
    return line.split()


def test_a_layer_row_is_unresolved_while_the_sides_ranges_overlap(
        pairs, capsys):
    parent = [3.0, 2.9, 3.5]
    # one noisy run on either side is enough to leave the row open
    assert layer_rows(pairs, capsys, parent, [2.5, 3.0, 2.6])[-1] == (
        "unresolved")
    row = layer_rows(pairs, capsys, parent, [2.5, 2.6, 2.4])
    # median and range per side, then the ratio of the medians
    assert row[1:9] == ["3.0000", "[", "2.9000,", "3.5000]",
                        "2.5000", "[", "2.4000,", "2.6000]"]
    assert row[9] == "0.83"
    assert row[-1] == "better"
    assert layer_rows(pairs, capsys, parent, [2.5, 2.6, 2.4],
                      direction="higher")[-1] == "worse"
    assert layer_rows(pairs, capsys, parent, [3.5, 2.9, 3.0])[-1] == "same"


def test_first_seed_moves_every_pair_to_held_out_seeds(tmp_path):
    """``--first-seed`` re-checks a claim on seeds it was not sized on:
    the pairs, the header and the result sets all start there."""
    in_git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True)
    if in_git.returncode != 0:
        pytest.skip("not a git checkout: no parent to extract")
    prefix = tmp_path / "held"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", "--workload", "rt_tcp_fanout",
         "--pairs", "2", "--seconds", "0.5", "--first-seed", "31",
         "--out", str(prefix)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "rt_tcp_fanout: 2 pairs, seeds 31-32, parent HEAD" in done.stdout
    for side in ("parent", "change"):
        stored = json.loads((tmp_path / f"held.{side}.json").read_text())
        assert stored["seed"] == 31
        assert [r["seed"] for r in stored["records"]] == [31, 32]
