#!/usr/bin/env python3
"""The benchmark command.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

measures one workload and prints, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  Without ``--workload`` it runs every workload, both
passes, prints every metric by name with its unit and (``--out``) writes
the result set ``bench/compare.py`` reads.  ``--smoke`` does that at a
fraction of the length.  See ``bench/README.md``.

Each repeat runs in a fresh subprocess (this file with ``--child``), one
at a time, single-threaded.  The exit code is non-zero when an invariant,
the KV consistency check, the sim determinism check, the fan-out payload
check or a layer prediction fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

#: end-to-end metrics that are read off the clock the workload runs on —
#: on sim they are virtual, so repeats must agree exactly
CLOCK_METRICS = ("throughput_msgs_per_s", "latency_p50_ms", "latency_p95_ms",
                 "latency_mean_ms")
SMOKE_SCALE = 0.2
#: Monitor trace ring of the traced pass (stage times read its tail)
TRACE_CAPACITY = 300_000
CHILD_TIMEOUT = 150
#: yardstick samples of a repeat that only sets up (about 0.3 s)
SETUP_ONLY_SAMPLES = 20


def load_contract() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- one repeat, in this process (--child) ---------------------------------------

def child(args) -> int:
    from bench.hostspeed import HostSpeed
    from bench.workloads import BY_NAME

    workload = BY_NAME[args.workload]
    tracer = None
    if args.trace:
        from bench import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    def mark_setup() -> float:
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            raise SetupOnly(setup_s)
        return setup_s

    warmup, duration = workload.window(args.seconds)
    try:
        result = run_repeat(args, workload, warmup, duration, mark_setup,
                            tracer)
    except SetupOnly as done:
        # no run follows whose yardstick samples could be borrowed
        speed = HostSpeed()
        speed.sample(times=SETUP_ONLY_SAMPLES)
        result = {"setup_s": done.args[0], "host_speed": speed.factor()}
    to_reference_time(result, workload.clock)
    print(json.dumps(result, sort_keys=True))
    return 0


def to_reference_time(result: Dict, clock: str) -> None:
    """Re-express the wall-clock numbers in reference-host time (see
    ``bench/hostspeed.py``); the measured values move under ``raw``."""
    speed = result["host_speed"]
    scaled = {"setup_s": speed}
    if "host_msgs_per_s" in result:
        scaled["host_msgs_per_s"] = 1.0 / speed
    if clock == "wall" and "latency_p50_ms" in result:
        scaled["throughput_msgs_per_s"] = 1.0 / speed
        for name in ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
                     "latency_mean_ms", "latency_global_p50_ms"):
            scaled[name] = speed
    result["raw"] = {name: result[name] for name in scaled}
    for name, factor in scaled.items():
        result[name] *= factor


class SetupOnly(Exception):
    """Raised at the first submit of a ``--setup-only`` repeat."""


def run_repeat(args, workload, warmup, duration, mark_setup, tracer) -> Dict:
    deployment = None
    if workload.kind == "fanout":
        from bench import fanout

        expect = None
        if args.corrupt == "payload":
            from bench.probes import batch_factory

            expect = batch_factory(args.seed + 1)
        result = fanout.run(args.seed, warmup, duration, mark_setup,
                            tracer=tracer, expect=expect)
    else:
        from bench import deploy

        result, deployment = deploy.run(
            workload, args.seed, warmup, duration, mark_setup,
            trace_capacity=TRACE_CAPACITY if tracer else 0)
        if args.corrupt == "determinism":
            result["throughput_msgs_per_s"] += os.getpid() * 1e-9
        if args.corrupt == "invariant":
            result["checks"]["invariants"] = _corrupted_invariants(deployment)
        if args.corrupt == "kv":
            machine = deployment.kv.machines(deployment.kv.shards[0])[0]
            machine.data["corrupted"] = 1
            result["checks"]["kv_consistency"] = (
                deployment.kv.check_consistency())
    if tracer is not None:
        result["spans"] = {
            "calls": dict(tracer.calls),
            "self_time_s": dict(tracer.self_time),
            "events_scheduled": tracer.events_scheduled,
            "heap_peak": tracer.heap_peak,
        }
        if deployment is not None:
            from bench.ledger import stage_times

            result["stages"] = stage_times(deployment.monitor)
        if args.span_file:
            os.makedirs(os.path.dirname(args.span_file), exist_ok=True)
            tracer.dump(args.span_file)
    return result


def _corrupted_invariants(deployment) -> List[str]:
    """Re-check with one replica's delivery order swapped (tests only)."""
    from repro.core.invariants import check_agreement

    gid = sorted(deployment.tree.targets)[0]
    sequences = {gid: deployment.delivered_sequences(gid)}
    sequences[gid][0] = list(reversed(sequences[gid][0]))
    return check_agreement(sequences)


# -- the parent: spawn repeats, reduce, check ------------------------------------

def spawn(workload: str, seed: int, seconds: float, trace: bool = False,
          setup_only: bool = False, span_file: str = "",
          corrupt: str = "") -> Dict:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "1" if trace else "0",
               "--spawned-at", repr(time.time())]
    if setup_only:
        command.append("--setup-only")
    if span_file:
        command += ["--span-file", span_file]
    if corrupt:
        command += ["--corrupt", corrupt]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(
            f"{workload}: repeat exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def problems_of(repeat: Dict) -> List[str]:
    return [f"{check}: {text}"
            for check, found in repeat["checks"].items() for text in found]


def determinism_problems(first: Dict, other: Dict, label: str) -> List[str]:
    """Sim repeats of one (workload, seed) must agree exactly."""
    problems = []
    for key in (*CLOCK_METRICS, "latency_p99_ms", "latency_global_p50_ms",
                "attempted", "completed"):
        if first[key] != other[key]:
            problems.append(f"determinism: {key} {first[key]!r} != "
                            f"{other[key]!r} ({label})")
    a, b = (dict(r["counters"]) for r in (first, other))
    for counters in (a, b):
        counters.pop("trace.dropped", None)   # only the traced pass has it
    if a != b:
        moved = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        problems.append(f"determinism: counters differ ({label}): {moved}")
    return problems


def measure(workload, seed: int, seconds: float, repeats: int,
            corrupt: str = "") -> Tuple[Dict, List[Dict]]:
    """The end-to-end pass: fresh untraced repeats, reduced to medians.

    Returns the record and the raw repeats.  ``setup_s`` is a median of at
    least three: with fewer repeats, one more process sets up and exits.
    """
    raw = [spawn(workload.name, seed, seconds, corrupt=corrupt)
           for _ in range(repeats)]
    setups = [r["setup_s"] for r in raw]
    if len(setups) < 3:
        setups.append(spawn(workload.name, seed, seconds,
                            setup_only=True)["setup_s"])
    problems = [p for r in raw for p in problems_of(r)]
    if workload.kind == "sim":
        for other in raw[1:]:
            problems += determinism_problems(raw[0], other, "repeats")
    metrics = {name: median(r[name] for r in raw)
               for name in (*CLOCK_METRICS, "host_msgs_per_s", "peak_rss_mb")}
    metrics["setup_s"] = median(setups)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": 0, "metrics": metrics, "problems": problems,
        "attempted": sum(r["attempted"] for r in raw),
        "failed": sum(r["failed"] for r in raw),
        "repeats": [_slim(r) for r in raw],
    }, raw


def measure_layers(workload, seed: int, seconds: float,
                   probes: Dict[str, float],
                   plain: Optional[Dict] = None) -> Dict:
    """The traced pass: an untraced repeat (``plain``, run here unless the
    caller has one of the same scenario) beside a traced one."""
    from bench import ledger

    span_file = os.path.join(HERE, "out", f"{workload.name}.spans.jsonl")
    if plain is None:
        plain = spawn(workload.name, seed, seconds)
    traced = spawn(workload.name, seed, seconds, trace=True,
                   span_file=span_file)
    problems = problems_of(plain) + problems_of(traced)
    if workload.kind == "sim":
        problems += determinism_problems(plain, traced, "traced vs untraced")
    metrics = ledger.layer_metrics(plain, traced, probes)
    problems += ledger.prediction_problems(workload, metrics, plain, traced)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": 1, "metrics": metrics, "problems": problems,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "span_file": os.path.relpath(span_file, ROOT),
        "repeats": [_slim(plain), _slim(traced)],
    }


def _slim(repeat: Dict) -> Dict:
    """A repeat without its bulky counter/gauge maps (for result files)."""
    return {k: v for k, v in repeat.items()
            if k not in ("counters", "gauges", "cache", "spans")}


def with_units(record: Dict, contract: Dict) -> Dict[str, Dict]:
    """The record's metrics as the contract names them, with units."""
    section = "per_layer" if record["trace"] else "end_to_end"
    return {m["name"]: {"value": record["metrics"][m["name"]],
                        "unit": m["unit"]}
            for m in contract[section]}


# -- command line ---------------------------------------------------------------

def run_one(args, contract: Dict) -> int:
    from bench.probes import run as run_probes
    from bench.workloads import BY_NAME

    workload = BY_NAME[args.workload]
    if args.trace:
        record = measure_layers(workload, args.seed, args.seconds,
                                run_probes(args.seed))
    else:
        record, _ = measure(workload, args.seed, args.seconds,
                            workload.repeats, args.corrupt)
    for problem in record["problems"]:
        print(f"FAILED {workload.name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": with_units(record, contract),
    }))
    return 1 if record["problems"] else 0


def run_suite(args, contract: Dict) -> int:
    """Every workload, both passes.  ``--smoke`` runs each scenario once
    untraced and once traced (which is also the sim determinism check)."""
    from bench.probes import run as run_probes
    from bench.workloads import WORKLOADS

    probes = run_probes(args.seed)
    records = []
    for workload in WORKLOADS:
        plain = None
        for run_index in range(args.runs):
            record, raw = measure(workload, args.seed + run_index,
                                  args.seconds,
                                  1 if args.smoke else workload.repeats)
            records.append(record)
            _print_record(record, contract)
            if args.smoke:
                plain = raw[0]
        records.append(measure_layers(workload, args.seed, args.seconds,
                                      probes, plain))
        _print_record(records[-1], contract)
    failed = [r for r in records if r["problems"] or r["failed"]]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump({"seconds": args.seconds, "seed": args.seed,
                       "records": records}, out, indent=1, sort_keys=True)
            out.write("\n")
    print(f"{len(records)} records, {len(failed)} with problems or failed ops")
    return 1 if failed else 0


def _print_record(record: Dict, contract: Dict) -> None:
    kind = "per-layer" if record["trace"] else "end-to-end"
    print(f"== {record['workload']} seed={record['seed']} {kind} "
          f"(attempted {record['attempted']}, failed {record['failed']})")
    for name, entry in with_units(record, contract).items():
        print(f"   {name:36s} {entry['value']:16.4f} {entry['unit']}")
    for problem in record["problems"]:
        print(f"   FAILED: {problem}")
    sys.stdout.flush()


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a fraction of the length")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: end-to-end runs per workload, on "
                             "consecutive seeds")
    parser.add_argument("--out", help="suite: write the result set here")
    parser.add_argument("--corrupt", default="",
                        choices=("", "invariant", "kv", "payload", "determinism"),
                        help="tests: corrupt one expectation")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--span-file", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds *= SMOKE_SCALE
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    if args.workload:
        return run_one(args, contract)
    return run_suite(args, contract)


if __name__ == "__main__":
    sys.exit(main())
