"""The command must exit non-zero when an output check fails.

Each case corrupts one *expectation* (``--corrupt``), never the program:
a reversed delivery order fed to the agreement checker, a stray key planted
in one KV replica before the consistency check, fan-out batches compared
against a stream generated from another seed, and a repeat whose virtual
throughput is nudged so the sim repeats no longer agree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")


def run(workload: str, corrupt: str):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "5",
               "--seconds", "1", "--trace", "0"]
    if corrupt:
        command += ["--corrupt", corrupt]
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=180, cwd=ROOT)


@pytest.mark.parametrize("workload, corrupt, needle", [
    ("local_lan", "invariant", "invariants:"),
    ("kv_read90", "kv", "kv_consistency:"),
    ("rt_tcp_fanout", "payload", "payload_equality:"),
    ("local_lan", "determinism", "determinism:"),
])
def test_corrupted_expectation_fails_the_command(workload, corrupt, needle):
    done = run(workload, corrupt)
    assert done.returncode != 0
    assert needle in done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False


def test_the_same_runs_pass_uncorrupted():
    for workload in ("kv_read90", "rt_tcp_fanout"):
        done = run(workload, "")
        assert done.returncode == 0, done.stderr
