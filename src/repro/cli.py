"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — run the quickstart scenario and print deliveries;
* ``table3``    — regenerate the paper's Table III;
* ``plan``      — optimize an overlay tree for a demand matrix;
* ``capacity``  — probe group capacities (the K(x) methodology of §V-C);
* ``experiment``— run one of the paper's figure scenarios;
* ``chaos``     — run a seeded chaos soak (nemesis faults + invariant
  checks) on the sim and/or real-time backend;
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
    from repro.runtime.chaos import run_chaos_soak

    backends = ["sim", "rt"] if args.backend == "both" else [args.backend]
    targets = tuple(g.strip() for g in args.groups.split(",") if g.strip())
    failures = 0
    for backend in backends:
        report = run_chaos_soak(
            backend=backend,
            seed=args.seed,
            intensity=args.intensity,
            duration=args.duration,
            settle=args.settle,
            messages=args.messages,
            targets=targets,
            checkpoint_interval=args.checkpoint_interval,
            max_in_flight=args.max_in_flight,
            joins=args.joins,
            leaves=args.leaves,
            scale_cycles=args.scale_cycles,
            read_ratio=args.read_ratio,
            read_mode=args.read_mode,
            wire=args.wire,
            layout=args.layout,
            fanout=args.fanout,
            adaptive_tree=args.adaptive_tree,
            adapt_interval=args.adapt_interval,
            adapt_hysteresis=args.adapt_hysteresis,
        )
        print(report.summary())
        if args.timeline:
            print(report.schedule)
        if not report.ok:
            failures += 1
    if failures:
        print(f"{failures} backend(s) FAILED — reproduce with "
              f"--seed {args.seed} --intensity {args.intensity}")
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
        "chaos", help="run a seeded chaos soak with invariant checks")
    chaos.add_argument("--backend", choices=["sim", "rt", "both"],
                       default="sim", help="execution backend(s) to soak")
    chaos.add_argument("--seed", type=int, default=7,
                       help="nemesis seed (same seed = same fault timeline)")
    chaos.add_argument("--intensity",
                       choices=["light", "medium", "heavy", "churn"],
                       default="medium")
    chaos.add_argument("--duration", type=float, default=6.0,
                       help="nemesis horizon scale in runtime seconds")
    chaos.add_argument("--settle", type=float, default=30.0,
                       help="max extra seconds to quiesce after the final heal")
    chaos.add_argument("--messages", type=int, default=60,
                       help="total multicasts in the soak workload")
    chaos.add_argument("--checkpoint-interval", type=int, default=0,
                       dest="checkpoint_interval",
                       help="executed cids between application checkpoints "
                            "(0 disables); also asserts retention stays "
                            "within 2x the interval")
    chaos.add_argument("--max-in-flight", type=int, default=4,
                       dest="max_in_flight",
                       help="consensus pipeline depth (1 = unpipelined; "
                            "see docs/PIPELINE.md)")
    chaos.add_argument("--joins", type=int, default=0,
                       help="extra join (replica swap-in) churn ops on top "
                            "of the intensity profile")
    chaos.add_argument("--leaves", type=int, default=0,
                       help="extra leave (replica swap-out) churn ops")
    chaos.add_argument("--scale-cycles", type=int, default=0,
                       dest="scale_cycles",
                       help="extra paired scale_up/scale_down cycles "
                            "(f -> f+1 -> f)")
    chaos.add_argument("--read-ratio", type=float, default=0.0,
                       help="extra read-tier probes per write (docs/READS.md); "
                            "also arms the read-safety invariants")
    chaos.add_argument("--read-mode", choices=["optimistic", "snapshot"],
                       default="optimistic",
                       help="how riding-along reads are served")
    chaos.add_argument("--wire", choices=["auto", "json", "binary"],
                       default="auto",
                       help="wire codec for rt-backend TCP links "
                            "(docs/WIRE.md); ignored by the sim backend, "
                            "auto = the measured-fastest codec (binary) on rt")
    chaos.add_argument("--layout", choices=["two_level", "balanced"],
                       default="two_level",
                       help="overlay layout over the target groups; "
                            "adaptive-tree soaks want 'balanced'")
    chaos.add_argument("--fanout", type=int, default=8,
                       help="targets per auxiliary of a balanced layout")
    chaos.add_argument("--adaptive-tree", choices=["off", "observe", "on"],
                       default="off",
                       help="workload-adaptive overlay trees (docs/TREES.md): "
                            "observe traffic, or also re-plan + switch via "
                            "ordered TreeUpdate under chaos")
    chaos.add_argument("--adapt-interval", type=float, default=1.0,
                       help="seconds between planner decisions")
    chaos.add_argument("--adapt-hysteresis", type=float, default=1.2,
                       help="required cost ratio before a tree switch")
    chaos.add_argument("--groups", default="g1,g2",
                       help="comma-separated target groups of the overlay")
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
