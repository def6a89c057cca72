"""Tracing observes a run and changes nothing in it.

The per-op records (a multicast's submit and completion, a read's issue
and acceptance, each ordered request's execution, each decision, and the
ByzCast admit, relay and a-deliver steps) build their detail only when the
:class:`~repro.env.Monitor` keeps a trace; an untraced run bumps their
counters and nothing else.  A scenario shaped like the benchmark's
``kv_read90`` (sharded KV, zipfian keys, open loop, 90 % optimistic reads
beside ordered writes) must therefore run identically either way.
"""

from __future__ import annotations

from repro.env import Monitor
from repro.scenario.build import build_deployment, build_drivers
from repro.scenario.spec import (
    ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
)

SPEC = ScenarioSpec(
    name="kv_read90_small",
    topology=TopologySpec(groups=2, layout="two_level", latency="lan"),
    workload=WorkloadSpec(clients=6, loop="open", rate=100.0,
                          key_dist="zipfian", read_ratio=0.9,
                          read_mode="optimistic", warmup=0.2,
                          duration=0.8),
    protocol=ProtocolSpec(adaptive_batching=True, max_in_flight=4,
                          checkpoint_interval=64, costs="bench"),
    app="sharded_kv", backend="sim", seed=11,
).check()

#: the record kinds whose detail is built only on a traced run
GUARDED = frozenset({
    "client.amulticast", "client.delivered", "client.aread",
    "client.read_accepted", "replica.executed", "consensus.decided",
    "byzcast.executed_wire", "byzcast.relay", "byzcast.a_deliver",
})


def run(trace_capacity: int = 0):
    """The scenario to its horizon plus a settling beat; the deployment
    and its clients."""
    deployment = build_deployment(SPEC, trace_capacity=trace_capacity)
    drivers = build_drivers(SPEC, deployment)
    deployment.start()
    for driver in drivers:
        driver.start()
    deployment.run(until=SPEC.horizon)
    for driver in drivers:
        driver.stop()
    deployment.run(until=SPEC.horizon + 2.0)
    return deployment, [driver.client for driver in drivers]


def deliveries(deployment):
    """Every replica's a-delivery sequence, by group."""
    return {gid: [[message.mid for message in app.delivered_messages()]
                  for app in deployment.apps(gid)]
            for gid in sorted(deployment.groups)}


def test_a_traced_run_is_the_untraced_run_plus_its_records():
    plain, plain_clients = run()
    traced, traced_clients = run(trace_capacity=1 << 20)
    counters = plain.monitor.snapshot()
    assert traced.monitor.snapshot() == counters
    assert "trace.dropped" not in counters
    assert deliveries(traced) == deliveries(plain)
    assert [c.read_log for c in traced_clients] == [
        c.read_log for c in plain_clients]
    assert [c.completions for c in traced_clients] == [
        c.completions for c in plain_clients]
    assert sum(len(c.read_log) for c in plain_clients) > 100
    # every guarded kind fired, and each firing left one record behind
    for kind in GUARDED:
        assert counters.get(kind, 0) > 0, kind
        assert len(traced.monitor.records(kind)) == counters[kind], kind
    assert plain.monitor.trace == type(plain.monitor.trace)()


def test_an_untraced_run_never_builds_a_guarded_record(monkeypatch):
    record = Monitor.record

    def strict(self, component, kind, **detail):
        assert kind not in GUARDED, f"{kind} record built untraced"
        record(self, component, kind, **detail)

    monkeypatch.setattr(Monitor, "record", strict)
    deployment, clients = run()
    counters = deployment.monitor.snapshot()
    assert all(counters.get(kind, 0) > 0 for kind in GUARDED)
    assert all(client.pending() == 0 for client in clients)
