"""One repeat of a deployment workload (sim or rt), measured from outside.

Builds the scenario through ``repro.scenario.build``, drives it for the
window plus a drain interval, checks the outputs, and returns plain
numbers.  Nothing here reaches into the program: timing is
``perf_counter`` around public calls, counts are ``Monitor.snapshot()``,
utilisation is ``actor.cpu.busy_time``.
"""

from __future__ import annotations

import resource
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.invariants import check_agreement, check_all, check_integrity
from repro.crypto.cache import cache_stats
from repro.env import make_runtime
from repro.faults.injector import schedule_crash
from repro.metrics.stats import mean, quantiles
from repro.scenario.build import build_deployment, build_drivers

from bench.hostspeed import HostSpeed, Ticker
from bench.workloads import Workload

#: how long past the window unfinished ops may still complete (clock
#: seconds) before they count as failed
DRAIN = {"sim": 6.0, "rt": 3.0}
#: after the clients are quiet: one more beat so every replica, not just
#: the f+1 that confirmed each op, finishes its trailing a-deliveries
SETTLE = {"sim": 1.0, "rt": 0.3}
#: sim runs advance in this many slices, a yardstick sample after each
SLICES = 32
#: the quadratic order checkers run over a projection of at most this many
#: messages; agreement and integrity run over everything (linear)
ORDER_SAMPLE = 500


class OpLog:
    """Duck-typed ``LatencyCollector``: keeps every (completion, latency)."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def record(self, completion_time: float, latency: float) -> None:
        self.samples.append((completion_time, latency))


def latency_stats(latencies: List[float]) -> Dict[str, float]:
    """p50/p95/p99/mean in ms, plus the count beyond p99."""
    p50, p95, p99 = quantiles(latencies, (50, 95, 99))
    return {
        "latency_p50_ms": p50 * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "latency_mean_ms": mean(latencies) * 1e3,
        "samples": len(latencies),
        "samples_beyond_p99": sum(1 for x in latencies if x > p99),
    }


def run(workload: Workload, seed: int, warmup: float, duration: float,
        mark_setup: Callable[[], float], trace_capacity: int = 0):
    """Run one repeat; ``mark_setup()`` is called at the first submit.

    Returns the measurements and the (finished) deployment, whose monitor
    trace the traced pass reads.
    """
    spec = workload.spec(seed, warmup, duration)
    ops, global_ops = OpLog(), OpLog()
    runtime = None
    if trace_capacity and spec.backend == "rt":
        # build_deployment sizes the trace only of the sim runtime it makes
        # itself; an rt runtime with a trace has to be handed in
        runtime = make_runtime(
            "rt", seed=seed, trace_capacity=trace_capacity,
            wire=spec.protocol.resolved_wire("rt"))
    deployment = build_deployment(spec, runtime=runtime,
                                  trace_capacity=trace_capacity)
    try:
        drivers = build_drivers(spec, deployment, collector=ops,
                                global_collector=global_ops)
        crashed: Optional[str] = None
        if workload.crash is not None:
            root = deployment.tree.root
            crashed = deployment.groups[root].leader().name
            crash_at = workload.crash.at(warmup, duration)
            schedule_crash(deployment, root, crashed, at=crash_at)
        clock = deployment.runtime.clock
        driven = time.perf_counter()
        deployment.start()
        for driver in drivers:
            driver.start()
        setup_s = mark_setup()

        # The run advances in slices.  On sim a yardstick sample sits
        # between slices (virtual time does not see it, and the wall clock
        # is stopped for it); on rt the ticker samples from inside the loop.
        sim = workload.kind == "sim"
        ticker = None if sim else Ticker(clock.schedule, lambda: clock.now)
        speed = HostSpeed() if sim else ticker.speed
        step = spec.horizon / SLICES if sim else spec.horizon
        drain_step = 0.25 if sim else 0.05
        limit = spec.horizon + DRAIN[workload.kind]
        run_wall = 0.0
        while True:
            target = (min(clock.now + step, spec.horizon)
                      if clock.now < spec.horizon
                      else clock.now + drain_step)
            started = time.perf_counter()
            deployment.run(until=target)
            run_wall += time.perf_counter() - started
            if sim:
                speed.sample()
            if clock.now >= spec.horizon and (
                    clock.now >= limit
                    or not any(c.pending() for c in deployment.clients)):
                break
        if ticker is not None:
            ticker.stop()
        elapsed = clock.now
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        deployment.run(until=clock.now + SETTLE[workload.kind])
        driven_wall = time.perf_counter() - driven

        attempted = sum(d.sent for d in drivers)
        completed = sum(d.completed for d in drivers)
        lo, hi = spec.workload.warmup, spec.horizon
        window = [lat for t, lat in ops.samples if lo <= t <= hi]
        window_global = [lat for t, lat in global_ops.samples
                         if lo <= t <= hi]
        result = {
            "setup_s": setup_s,
            "run_wall_s": run_wall,
            "driven_wall_s": driven_wall,
            "clock": workload.clock,
            "window_s": duration,
            "offered_s": spec.horizon,
            "attempted": attempted,
            "completed": completed,
            "failed": attempted - completed,
            "ops_in_window": len(window),
            "throughput_msgs_per_s": len(window) / duration,
            "host_msgs_per_s": completed / run_wall,
            "peak_rss_mb": peak_rss_mb,
            "loop_lag_p99_ms": (quantiles(ticker.lags, (99,))[0] * 1e3
                                if ticker is not None else 0.0),
            "host_speed": speed.factor(),
            "global_completed": len(global_ops.samples),
            "latency_global_p50_ms":
                quantiles(window_global, (50,))[0] * 1e3,
            "global_ops_in_window": len(window_global),
            **latency_stats(window),
        }
        if workload.crash is not None:
            result["outage_ms"] = outage_ms(global_ops, crash_at)
        result["counters"] = deployment.monitor.snapshot()
        result["gauges"] = dict(deployment.monitor.gauges)
        if workload.kind == "sim":
            result["cpu"] = cpu_utilisation(deployment, elapsed)
        result["hops_mean"] = mean([
            deployment.tree.destination_height(message.dst)
            for client in deployment.clients
            for message, _ in client.completions])
        result["max_retained"] = max(
            replica.log.max_retained
            for group in deployment.groups.values()
            for replica in group.replicas)
        result["cache"] = cache_stats()
        result["checks"], result["order_sample"] = check_outputs(
            deployment, crashed)
        return result, deployment
    finally:
        if workload.kind == "rt":
            deployment.runtime.close()


def outage_ms(global_ops: OpLog, crash_at: float) -> float:
    """Crash instant -> first completion of an op submitted after it that
    needed the crashed (root) group's ordering, i.e. a global op."""
    after = [t for t, lat in global_ops.samples if t - lat >= crash_at]
    if not after:
        raise RuntimeError("no global op completed after the crash")
    return (min(after) - crash_at) * 1e3


def cpu_utilisation(deployment, elapsed: float) -> Dict[str, float]:
    """Virtual CPU busy share of leaders and followers (sim only: the rt
    executor books the cost model's service times, not host time)."""
    targets = deployment.tree.targets
    leader_target, leader_aux, followers = [], [], []
    for gid, group in deployment.groups.items():
        for replica in group.correct_replicas():
            share = replica.cpu.busy_time / elapsed
            if replica.is_leader:
                (leader_target if gid in targets else leader_aux).append(share)
            else:
                followers.append(share)
    return {
        "leader_max": max(leader_target),
        "leader_aux_max": max(leader_aux),
        "follower_mean": mean(followers),
    }


def check_outputs(deployment, crashed: Optional[str],
                  ) -> Tuple[Dict[str, List[str]], int]:
    """Atomic-multicast invariants (and KV agreement) over the run.

    Agreement and integrity are linear and run over every delivery; the
    order checkers are quadratic, so ``check_all`` runs over the projection
    of all sequences onto an evenly strided sample of the sent messages
    that takes global messages first (only they can be ordered differently
    by two groups).
    """
    sent = [message for client in deployment.clients
            for message, _ in client.completions]
    sequences = {
        gid: [replica.app.delivered_messages()
              for replica in deployment.groups[gid].replicas
              if replica.name != crashed]
        for gid in deployment.tree.targets
    }
    quiet = not any(c.pending() for c in deployment.clients)
    problems = check_agreement(sequences)
    if quiet:
        # an op still in flight may be delivered without having completed,
        # which integrity would misread as a never-multicast message
        problems += check_integrity(sequences, sent)

    globals_ = [m for m in sent if m.is_global][:ORDER_SAMPLE]
    locals_ = [m for m in sent if m.is_local]
    room = ORDER_SAMPLE - len(globals_)
    stride = max(1, len(locals_) // max(room, 1))
    sample = globals_ + locals_[::stride][:room]
    keys = {(m.mid.sender, m.mid.seq) for m in sample}
    projected = {
        gid: [[m for m in seq if (m.mid.sender, m.mid.seq) in keys]
              for seq in replicas]
        for gid, replicas in sequences.items()
    }
    problems += check_all(projected, sample, quiescent=quiet)
    checks = {"invariants": problems}
    if deployment.kv is not None:
        checks["kv_consistency"] = deployment.kv.check_consistency()
    return checks, len(sample)
