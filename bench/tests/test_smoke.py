"""Smoke test of the benchmark itself (not part of tier-1; run with
``python -m pytest bench/tests -q``).

Runs ``bench/run.py --smoke`` once and checks the plumbing: every workload
and metric named in ``BENCHMARK.json`` is reported with its unit, the
output checks ran, sim runs repeat exactly, and every traced entry point
fired.
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


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as f:
        return done.stdout, json.load(f)["records"]


def test_every_workload_and_metric_is_reported_with_its_unit(contract, smoke):
    stdout, records = smoke
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        for workload in contract["workloads"]:
            found = [r for r in records if r["workload"] == workload["name"]
                     and r["trace"] == trace]
            assert found, (workload["name"], section)
            for metric in contract[section]:
                assert metric["name"] in found[0]["metrics"], metric["name"]
    lines = stdout.splitlines()
    for metric in contract["end_to_end"] + contract["per_layer"]:
        rows = [line for line in lines if line.split()[:1] == [metric["name"]]]
        assert len(rows) == len(contract["workloads"]), metric["name"]
        assert all(row.split()[-1] == metric["unit"] for row in rows)


def test_output_checks_ran(smoke):
    _, records = smoke
    for record in records:
        assert not record["problems"], record["problems"]
        for repeat in record["repeats"]:
            if record["workload"] == "rt_tcp_fanout":
                assert repeat["equality_sample"] > 0
                assert set(repeat["checks"]) == {"fifo_and_mac",
                                                 "payload_equality"}
            else:
                assert repeat["order_sample"] > 0
                assert "invariants" in repeat["checks"]
            if record["workload"] == "kv_read90":
                assert "kv_consistency" in repeat["checks"]


def test_sim_runs_repeat_exactly(smoke):
    _, records = smoke
    for record in records:
        if record["trace"] != 1 or record["workload"].startswith("rt_"):
            continue
        plain, traced = record["repeats"]
        for key in ("throughput_msgs_per_s", "latency_p50_ms",
                    "latency_p95_ms", "latency_p99_ms", "completed"):
            assert plain[key] == traced[key], (record["workload"], key)


def test_every_traced_entry_point_fired(smoke):
    _, records = smoke
    for record in records:
        if record["trace"] != 1:
            continue
        assert not [p for p in record["problems"] if "entry point" in p]
        assert record["metrics"]["trace.overhead_ratio"] > 0
        assert abs(record["metrics"]["trace.self_time_coverage"] - 1) <= 0.05
        span_file = os.path.join(ROOT, record["span_file"])
        with open(span_file, encoding="utf-8") as f:
            header = json.loads(f.readline())
            first = json.loads(f.readline())
        assert header["spans"] > 0
        assert {"id", "parent", "layer", "name", "start", "end"} <= set(first)


def test_single_workload_prints_the_contract_line(contract):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "local_lan", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    for metric in contract["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
