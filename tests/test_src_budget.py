"""The ``src/`` line budget: ``src/**/*.py`` holds exactly :data:`BUDGET`
lines (ROADMAP item 5).

A change that deletes lines lowers the number in the same commit; one that
must grow ``src/`` raises it by exactly its growth and says why in
CHANGES.md.  The check is exact both ways, so a deletion that forgets to
lower the number fails too and the ratchet never slackens.
"""

from __future__ import annotations

import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
BUDGET = 17230


def src_lines() -> int:
    """Lines of every ``.py`` file under ``src/`` (what ``wc -l`` counts)."""
    return sum(len(path.read_bytes().splitlines())
               for path in SRC.rglob("*.py"))


def test_src_stays_within_its_line_budget():
    lines = src_lines()
    assert lines <= BUDGET, (
        f"src/ has {lines} lines, {lines - BUDGET} over its budget of "
        f"{BUDGET}: delete as many, or raise BUDGET by exactly this "
        f"change's growth and say why in CHANGES.md")
    assert lines == BUDGET, (
        f"src/ has {lines} lines, {BUDGET - lines} under its budget of "
        f"{BUDGET}: lower BUDGET to {lines} in this change")
