"""The per-layer ledger: every layer metric, computed from outside.

Inputs are one untraced repeat (counts, utilisation, tail latency — what a
wrapper would disturb), one traced repeat of the same scenario (calls and
self times per entry point, stage times from the ``Monitor`` trace) and the
fixed-input probes.  Self times are in reference-host time, like every
other wall-clock number of the benchmark.  Names are ``<repro package>.<metric>``; ``_per_op``
divides by the ops the run completed (warm-up and drain included, because
the counters cover them too).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.metrics.stats import mean
from repro.runtime.tracing import extract_timelines

#: span names that are wire or socket work; they must stay silent on every
#: workload except ``rt_tcp_fanout``
WIRE_TCP_SPANS = ("env.wire.encode", "env.wire.decode",
                  "env.TcpTransport.send")

#: entry points that must have fired in a traced run, by workload kind
#: (``local`` = no op has two destination groups, so nothing is relayed)
EXPECTED_SPANS = {
    "sim": ("sim.EventLoop.run", "sim.Network.send"),
    "rt": ("env.RealtimeRuntime.run", "env.InProcessTransport.send"),
    "deployment": (
        "bcast.Replica.on_message", "bcast.Replica.work",
        "bcast.GroupProxy.submit", "bcast.GroupProxy.handle_reply",
        "core.ByzCastApplication.execute", "core.MulticastClient.amulticast",
        "core.MulticastClient.on_message", "crypto.digest",
        "crypto.canonical_bytes", "crypto.sign", "crypto.verify",
        "workload.Driver.send"),
    "relaying": ("core.QuorumMerge.push",),
    "kv": ("apps.ShardStateMachine.apply", "apps.ShardStateMachine.read",
           "core.MulticastClient.aread"),
    "fanout": ("env.asyncio_loop", "crypto.mac_vector",
               "crypto.verify_mac_vector", *WIRE_TCP_SPANS),
}


def expected_spans(workload) -> Iterable[str]:
    if workload.kind == "fanout":
        return EXPECTED_SPANS["fanout"]
    names = list(EXPECTED_SPANS[workload.kind] + EXPECTED_SPANS["deployment"])
    if workload.load.destinations != "local" or workload.app == "sharded_kv":
        names += EXPECTED_SPANS["relaying"]
    if workload.app == "sharded_kv":
        names += EXPECTED_SPANS["kv"]
    return names


def stage_times(monitor) -> Dict[str, float]:
    """Mean time per stage over the messages the trace ring still holds.

    submit -> first ordering of a copy anywhere (the entry group is the
    lca) -> last destination group's first a-deliver -> client completion.
    """
    ordered: Dict[tuple, float] = {}
    for record in monitor.records("byzcast.executed_wire"):
        key = (record.get("origin"), record.get("seq"))
        ordered.setdefault(key, record.time)
    lca, relay, reply = [], [], []
    for line in extract_timelines(monitor):
        first = ordered.get((line.sender, line.seq))
        delivers = [hop.time for hop in line.hops if hop.kind == "a-deliver"]
        if first is None or line.completed_at is None or not delivers:
            continue
        last = max(delivers)
        lca.append(first - line.submitted_at)
        relay.append(last - first)
        reply.append(line.completed_at - last)
    return {
        "core.stage_lca_order_ms": mean(lca) * 1e3,
        "core.stage_relay_ms": mean(relay) * 1e3,
        "core.stage_reply_ms": mean(reply) * 1e3,
        "stage_samples": len(lca),
    }


def layer_metrics(plain: Dict, traced: Dict, probes: Dict[str, float],
                  ) -> Dict[str, float]:
    """Every per-layer metric of one workload."""
    counters = plain.get("counters", {})
    spans = traced["spans"]
    calls, self_s = spans["calls"], spans["self_time_s"]
    ops = plain["completed"]
    traced_ops = traced["completed"]

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    def self_us_per_op(*names: str) -> float:
        """Reference-host microseconds (see ``bench/hostspeed.py``)."""
        seconds = sum(self_s.get(n, 0.0) for n in names)
        return seconds * traced["host_speed"] * 1e6 / traced_ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cache = plain.get("cache", {})
    hits = sum(cache.get(c, {}).get("hits", 0)
               for c in ("canonical", "digest", "verify"))
    lookups = hits + sum(cache.get(c, {}).get("misses", 0)
                         for c in ("canonical", "digest", "verify"))
    cpu = plain.get("cpu", {})
    stages = traced.get("stages", {})
    tcp_sends = calls.get("env.TcpTransport.send", 0)
    plain_wall = plain["run_wall_s"] * plain["host_speed"]
    peaks = [v for k, v in traced.get("gauges", {}).items()
             if k.startswith("consensus.in_flight.") and k.endswith(".peak")]
    metrics = {
        "sim.events_per_op": spans["events_scheduled"] / traced_ops,
        "sim.events_per_s": spans["events_scheduled"] / plain_wall,
        "sim.kernel_self_us_per_op": self_us_per_op("sim.EventLoop.run"),
        "sim.net_send_self_us_per_op": self_us_per_op("sim.Network.send"),
        "sim.heap_peak": float(spans["heap_peak"]),
        "env.net_msgs_per_op": count("net.sent") / ops,
        "env.net_dropped": count("net.dropped"),
        "env.net_blackholed": count("net.blackholed"),
        "env.net_reconnect": count("net.reconnect"),
        "env.rt_loop_lag_p99_ms": plain.get("loop_lag_p99_ms", 0.0),
        "env.rt_loop_self_us_per_op": self_us_per_op(
            "env.RealtimeRuntime.run", "env.asyncio_loop",
            "env.InProcessTransport.send"),
        "env.tcp_send_self_us_per_frame": ratio(
            self_us_per_op("env.TcpTransport.send") * traced_ops, tcp_sends),
        "env.tcp_frames_per_s": plain.get("frames_per_s", 0.0),
        "env.wire_tcp_calls": float(sum(calls.get(n, 0)
                                        for n in WIRE_TCP_SPANS)),
        "crypto.self_us_per_op": self_us_per_op(
            *(n for n in self_s if n.startswith("crypto."))),
        "crypto.digest_calls_per_op": calls.get("crypto.digest", 0)
                                      / traced_ops,
        "crypto.cache_hit_ratio": ratio(hits, lookups),
        "bcast.proposes_per_op": count("consensus.propose") / ops,
        "bcast.decided_per_op": count("consensus.decided") / ops,
        "bcast.batch_size_mean": ratio(count("replica.executed"),
                                       count("consensus.decided")),
        "bcast.in_flight_peak": max(peaks, default=0.0),
        "bcast.leader_cpu_util_max": cpu.get("leader_max", 0.0),
        "bcast.leader_cpu_util_aux_max": cpu.get("leader_aux_max", 0.0),
        "bcast.follower_cpu_util_mean": cpu.get("follower_mean", 0.0),
        "bcast.receive_calls_per_op":
            calls.get("bcast.Replica.on_message", 0) / traced_ops,
        "bcast.receive_self_us_per_op": self_us_per_op(
            "bcast.Replica.on_message", "bcast.Replica.work",
            "bcast.Replica.set_timer"),
        "bcast.proxy_self_us_per_op": self_us_per_op(
            "bcast.GroupProxy.submit", "bcast.GroupProxy.handle_reply"),
        "bcast.regency_installed": count("regency.installed"),
        "bcast.regency_stop": count("regency.stop"),
        "bcast.checkpoints_taken": count("checkpoint.taken"),
        "bcast.max_retained": float(plain.get("max_retained", 0)),
        "bcast.reads_served_optimistic": count("read.served.optimistic"),
        "bcast.read_fallbacks": count("client.read_fallback"),
        "bcast.client_retransmits": count("proxy.retransmit"),
        "bcast.outage_ms": plain.get("outage_ms", 0.0),
        "core.relays_per_global_op": ratio(
            count("byzcast.relay"), plain.get("global_completed", 0)),
        "core.a_delivers_per_op": count("byzcast.a_deliver") / ops,
        "core.executed_wire_per_op": count("byzcast.executed_wire") / ops,
        "core.hops_mean": plain.get("hops_mean", 0.0),
        "core.stage_lca_order_ms": stages.get("core.stage_lca_order_ms", 0.0),
        "core.stage_relay_ms": stages.get("core.stage_relay_ms", 0.0),
        "core.stage_reply_ms": stages.get("core.stage_reply_ms", 0.0),
        "core.execute_self_us_per_op": self_us_per_op(
            "core.ByzCastApplication.execute", "core.QuorumMerge.push"),
        "core.client_self_us_per_op": self_us_per_op(
            "core.MulticastClient.amulticast", "core.MulticastClient.aread",
            "core.MulticastClient.on_message", "core.MulticastClient.work",
            "core.MulticastClient.set_timer"),
        "apps.kv_execute_self_us_per_op": self_us_per_op(
            "apps.ShardStateMachine.apply"),
        "apps.kv_read_self_us_per_op": self_us_per_op(
            "apps.ShardStateMachine.read"),
        "workload.offered_per_s": plain["attempted"] / plain["offered_s"],
        "workload.generate_self_us_per_op": self_us_per_op(
            "workload.Driver.send"),
        "client.latency_p99_ms": plain["latency_p99_ms"],
        "client.samples_beyond_p99": float(plain["samples_beyond_p99"]),
        "client.latency_global_p50_ms": plain["latency_global_p50_ms"],
        "client.failed_ratio": plain["failed"] / plain["attempted"],
        "trace.overhead_ratio":
            traced["run_wall_s"] * traced["host_speed"] / plain_wall,
        "trace.self_time_coverage": ratio(
            sum(self_s.values()), traced["driven_wall_s"]),
    }
    metrics.update(probes)
    return metrics


def prediction_problems(workload, metrics: Dict[str, float], plain: Dict,
                        traced: Dict) -> List[str]:
    """What the layer table says must hold on any run of this workload."""
    problems = []
    calls = traced["spans"]["calls"]
    for name in expected_spans(workload):
        if not calls.get(name):
            problems.append(f"entry point {name} recorded no call")
    if workload.kind != "fanout" and metrics["env.wire_tcp_calls"]:
        problems.append("wire/TCP entry points fired outside rt_tcp_fanout")
    relays = plain.get("counters", {}).get("byzcast.relay", 0)
    if workload.load is not None and workload.app == "none":
        if workload.load.destinations == "local" and relays:
            problems.append(f"{relays} relays on single-group destinations "
                            "(partial genuineness broken)")
        if workload.load.destinations == "global" and not relays:
            problems.append("multi-group destinations relayed nothing")
    crashed = workload.crash is not None
    if bool(metrics["bcast.regency_installed"]) != crashed:
        problems.append(
            f"bcast.regency_installed = {metrics['bcast.regency_installed']:g}"
            f" on a workload {'with' if crashed else 'without'} a crash")
    coverage = metrics["trace.self_time_coverage"]
    if abs(coverage - 1.0) > 0.05:
        problems.append(f"layer self times sum to {coverage:.3f} of the "
                        "traced run's wall time (must be within 5%)")
    return problems
