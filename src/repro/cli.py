"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — run the quickstart scenario and print deliveries;
* ``table3``    — regenerate the paper's Table III;
* ``plan``      — optimize an overlay tree for a demand matrix;
* ``capacity``  — probe group capacities (the K(x) methodology of §V-C);
* ``experiment``— run one of the paper's figure scenarios;
* ``chaos``     — soak a scenario under its seeded nemesis faults with
  invariant checks, on the sim and/or real-time backend;
* ``scenario``  — validate or run a declarative scenario spec file
  (see ``docs/SCENARIOS.md`` and ``examples/scenarios/``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.scenario.spec import BACKENDS, INTENSITIES
from repro.types import destination


def _cmd_demo(args: argparse.Namespace) -> int:
    tree = OverlayTree.paper_tree()
    deployment = ByzCastDeployment(tree)
    client = deployment.add_client("cli-client")
    client.amulticast(destination("g3"), payload=("local", 1))
    client.amulticast(destination("g2", "g3"), payload=("global", 2))
    deployment.run(until=5.0)
    for group in sorted(tree.targets):
        sequence = deployment.delivered_sequences(group)[0]
        print(f"{group}: {[m.payload for m in sequence]}")
    for message, latency in client.completions:
        print(f"{message.payload} -> {sorted(message.dst)}: {latency * 1000:.2f} ms")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.optimizer.report import format_table3, table3_report

    print(format_table3(table3_report(capacity=args.capacity)))
    return 0


def _parse_demand(text: str):
    """Demand matrix from JSON: {"g1,g2": 1200, ...} (msgs/s)."""
    raw = json.loads(text)
    demand = {}
    for key, rate in raw.items():
        groups = [g.strip() for g in key.split(",")]
        demand[destination(*groups)] = float(rate)
    return demand


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.optimizer.enumerate import MAX_TARGETS, optimize_exhaustive
    from repro.optimizer.heuristic import optimize_heuristic
    from repro.optimizer.model import OptimizationInput

    demand = _parse_demand(args.demand)
    targets = sorted({g for dst in demand for g in dst})
    auxiliaries = [f"h{i + 1}" for i in range(args.auxiliaries)]
    problem = OptimizationInput(
        targets=tuple(targets),
        auxiliaries=tuple(auxiliaries),
        demand=demand,
        capacity=args.capacity,
    )
    if len(targets) <= MAX_TARGETS and not args.heuristic:
        result = optimize_exhaustive(problem)
    else:
        result = optimize_heuristic(problem)
    print(f"objective sum-of-heights = {result.objective}")
    for group in sorted(result.tree.nodes):
        parent = result.tree.parent(group) or "(root)"
        load = result.loads[group]
        print(f"  {group:<10} parent={parent:<8} load={load:8.0f} m/s")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.runtime.capacity import (
        estimate_relay_capacity,
        estimate_target_capacity,
    )

    target = estimate_target_capacity(clients=args.clients)
    relay = estimate_relay_capacity(clients=args.clients)
    print(f"target-group capacity  (local msgs): {target:10.0f} msgs/s")
    print(f"auxiliary capacity (global relays):  {relay:10.0f} msgs/s")
    print("(paper-scale estimates; the paper's model used K(h) = 9500 m/s)")
    return 0


EXPERIMENTS = {
    "table1": "table1_wan_latency",
    "fig3": "fig3_tree_layouts",
    "fig4a": ("fig4_scalability", {"message_kind": "local"}),
    "fig4b": ("fig4_scalability", {"message_kind": "global"}),
    "fig5a": ("fig5_throughput_latency", {"message_kind": "local"}),
    "fig5b": ("fig5_throughput_latency", {"message_kind": "global"}),
    "fig6": "fig6_mixed_lan",
    "fig7": "fig7_latency_lan",
    "fig8": "fig8_latency_wan",
    "fig9": "fig9_fig10_mixed_wan",
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.runtime import scenarios

    spec = EXPERIMENTS[args.name]
    kwargs = {}
    if isinstance(spec, tuple):
        spec, kwargs = spec
    results = getattr(scenarios, spec)(**kwargs)
    if args.name == "table1":
        for (a, b), row in sorted(results.items()):
            print(f"{a}-{b}: paper {row['paper_ms']:.0f} ms, "
                  f"measured {row['measured_ms']:.1f} ms")
        return 0
    for _, value in sorted(results.items()):
        for result in (value if isinstance(value, list) else [value]):
            print(result.row())  # fig5 maps each protocol to a curve
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.errors import ConfigurationError
    from repro.runtime.chaos import DEFAULT_SOAK, run_chaos_soak, soakable
    from repro.scenario import ScenarioSpec

    try:
        spec = ScenarioSpec.load(args.file) if args.file else DEFAULT_SOAK
        if args.seed is not None:
            spec = spec.with_(seed=args.seed)
        if args.duration is not None:
            spec = spec.with_(
                workload=replace(spec.workload, duration=args.duration))
        if args.intensity is not None and spec.faults is not None:
            spec = spec.with_(
                faults=replace(spec.faults, intensity=args.intensity))
        if args.backend == "both":
            # a spec written for rt may name a codec the sim leg cannot take
            legs = [spec.with_(backend="sim",
                               protocol=replace(spec.protocol, wire="auto")),
                    spec.with_(backend="rt")]
        else:
            legs = [spec.with_(backend=args.backend or spec.backend)]
        for leg in legs:
            soakable(leg)
    except (OSError, ConfigurationError) as exc:
        print(f"cannot soak {args.file or 'the default scenario'}: {exc}")
        return 2
    budget = {} if args.messages is None else {"messages": args.messages}
    failures = 0
    for leg in legs:
        report = run_chaos_soak(leg, **budget)
        print(report.summary())
        if args.timeline:
            print(report.schedule)
        if not report.ok:
            failures += 1
    if failures:
        replay = ["python -m repro chaos"] + ([args.file] if args.file else [])
        for flag in ("backend", "seed", "intensity", "duration", "messages"):
            if getattr(args, flag) is not None:
                replay += [f"--{flag}", str(getattr(args, flag))]
        if args.timeline:
            replay.append("--timeline")
        print(f"{failures} backend(s) FAILED — replay with: "
              + " ".join(replay))
    return 2 if failures else 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.scenario import ScenarioSpec, run_scenario

    try:
        spec = ScenarioSpec.load(args.file)
    except (OSError, ConfigurationError) as exc:
        print(f"cannot load {args.file}: {exc}")
        return 2
    problems = spec.validate()
    if problems:
        print(f"scenario {spec.name!r}: INVALID")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    if args.action == "validate":
        tree = spec.build_tree()
        auxiliaries = len(tree.nodes) - len(tree.targets)
        print(f"scenario {spec.name!r}: OK")
        print(f"  topology : {len(tree.targets)} target group(s) + "
              f"{auxiliaries} auxiliary ({spec.topology.layout}), "
              f"f={spec.topology.f}, latency {spec.topology.latency}")
        print(f"  workload : {spec.workload.clients} {spec.workload.loop}-loop "
              f"client(s), {spec.workload.destinations} destinations, "
              f"horizon {spec.horizon:g}s")
        print(f"  protocol : {spec.protocol.kind}   app: {spec.app}   "
              f"backend: {spec.backend}   costs: {spec.protocol.costs}")
        print(f"  faults   : "
              f"{spec.faults.intensity if spec.faults else 'none'}")
        return 0
    result = run_scenario(spec)
    print(result.row())
    print(f"  local  p95 = {result.local_latency.p95 * 1000:8.2f} ms "
          f"({result.local_latency.count} in window)")
    print(f"  global p95 = {result.global_latency.p95 * 1000:8.2f} ms "
          f"({result.global_latency.count} in window)")
    print(f"  completed {result.completed}/{result.sent} sent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ByzCast (DSN 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the quickstart scenario")

    table3 = sub.add_parser("table3", help="regenerate the paper's Table III")
    table3.add_argument("--capacity", type=float, default=9500.0,
                        help="group capacity K(x) in msgs/s (default 9500)")

    plan = sub.add_parser("plan", help="optimize an overlay tree")
    plan.add_argument("demand",
                      help='demand JSON, e.g. \'{"g1,g2": 9000, "g3,g4": 9000}\'')
    plan.add_argument("--capacity", type=float, default=9500.0)
    plan.add_argument("--auxiliaries", type=int, default=3)
    plan.add_argument("--heuristic", action="store_true",
                      help="force the clustering heuristic")

    capacity = sub.add_parser("capacity", help="probe group capacities")
    capacity.add_argument("--clients", type=int, default=150)

    experiment = sub.add_parser("experiment", help="run a paper scenario")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))

    chaos = sub.add_parser(
        "chaos", help="run a seeded chaos soak with invariant checks",
        description="The flags are per-run overrides; every other setting "
                    "is a field of the scenario file (docs/SCENARIOS.md, "
                    "examples/scenarios/soak_*.json).")
    chaos.add_argument("file", nargs="?",
                       help="scenario JSON with a faults section (default: "
                            "repro.runtime.chaos.DEFAULT_SOAK)")
    chaos.add_argument("--backend", choices=[*BACKENDS, "both"],
                       help="execution backend(s) to soak")
    chaos.add_argument("--seed", type=int,
                       help="scenario seed (same seed = same fault timeline)")
    chaos.add_argument("--intensity", choices=INTENSITIES,
                       help="nemesis profile (faults.intensity)")
    chaos.add_argument("--duration", type=float,
                       help="nemesis horizon scale in runtime seconds "
                            "(workload.duration)")
    chaos.add_argument("--messages", type=int,
                       help="total multicasts in the soak workload")
    chaos.add_argument("--timeline", action="store_true",
                       help="print the expanded nemesis timeline")

    scenario = sub.add_parser(
        "scenario",
        help="validate or run a declarative scenario spec "
             "(docs/SCENARIOS.md)")
    scenario.add_argument("action", choices=["validate", "run"],
                          help="validate: lint the spec; run: execute it "
                               "and print throughput/latency")
    scenario.add_argument("file",
                          help="scenario JSON file (see examples/scenarios/)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "table3": _cmd_table3,
        "plan": _cmd_plan,
        "capacity": _cmd_capacity,
        "experiment": _cmd_experiment,
        "chaos": _cmd_chaos,
        "scenario": _cmd_scenario,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
