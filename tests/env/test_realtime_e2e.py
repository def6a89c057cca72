"""End-to-end ByzCast on the real-time asyncio backend.

Boots a 2-group overlay tree on :class:`~repro.env.rtbackend.RealtimeRuntime`,
pushes 100+ mixed local/global multicasts through closed-loop callback
chains, then checks every atomic multicast invariant on the resulting
delivery records.  The run is wall-clock — the point of the test is that
the *same protocol stack* that runs under the simulator executes correctly
in real time.
"""

from __future__ import annotations

import asyncio
import time

from repro.core import OverlayTree
from repro.core.deployment import ByzCastDeployment
from repro.core.invariants import check_all
from repro.core.messages import RelayBatch
from repro.core.node import ByzCastApplication
from repro.env import make_runtime
from repro.env.tcp import TcpTransport

TOTAL = 120
WINDOW = 8  # concurrently outstanding multicasts
DESTS = [("g1",), ("g2",), ("g1", "g2")]  # mixed local + global traffic


def test_realtime_two_group_tree_delivers_100_messages():
    started = time.monotonic()
    runtime = make_runtime("asyncio", seed=11)
    tree = OverlayTree.two_level(["g1", "g2"])
    dep = ByzCastDeployment(tree, runtime=runtime)
    assert dep.runtime is runtime and not runtime.deterministic

    sent = []
    completed = []
    client = dep.add_client("c1")

    def send_next():
        index = len(sent)
        mid = client.amulticast(
            DESTS[index % len(DESTS)], payload=("tx", index), callback=on_done
        )
        sent.append(mid)

    def on_done(message, latency):
        completed.append((message, latency))
        if len(sent) < TOTAL:
            send_next()
        elif len(completed) == TOTAL:
            # Quiesce: give trailing replicas a beat to a-deliver, then stop.
            runtime.clock.schedule(0.1, runtime.stop)

    runtime.clock.schedule(0.0, lambda: [send_next() for _ in range(WINDOW)])
    dep.start()
    try:
        dep.run(until=25.0)
    finally:
        elapsed = time.monotonic() - started
        runtime.close()

    assert len(completed) >= 100, f"only {len(completed)} completions"
    assert len(completed) == TOTAL
    assert all(latency >= 0.0 for _, latency in completed)
    assert elapsed < 30.0, f"e2e run took {elapsed:.1f}s"

    sent_messages = [message for message, _ in completed]
    assert {m.dst for m in sent_messages} == {
        frozenset(d) for d in DESTS
    }  # mixed local and global traffic actually ran
    sequences = {gid: dep.delivered_sequences(gid) for gid in ("g1", "g2")}
    violations = check_all(sequences, sent_messages, quiescent=True)
    assert violations == []


class HostPerGroup:
    """One :class:`TcpTransport` host per group (and one per client), so
    every message between groups is encoded onto a loopback socket."""

    def __init__(self, aloop, clock, config=None, rng=None, monitor=None,
                 wire="json"):
        self.directory, self.sites, self.hosts = {}, {}, {}
        self._new_host = lambda: TcpTransport(
            aloop, clock, config, rng, monitor, directory=self.directory,
            site_directory=self.sites, wire=wire)

    def register(self, actor, site="site0"):
        group = actor.name.split("/")[0]
        if group not in self.hosts:
            self.hosts[group] = self._new_host()
        self.hosts[group].register(actor, site)

    async def start(self):
        for host in self.hosts.values():
            await host.start()

    def shutdown(self):
        for host in self.hosts.values():
            host.shutdown()


class RelayRecordingApp(ByzCastApplication):
    """Keeps the ``RelayBatch`` commands it executes, as decoded."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.relay_batches = []

    def execute(self, request, ctx):
        if isinstance(request.command, RelayBatch):
            self.relay_batches.append(request.command)
        return super().execute(request, ctx)


def test_global_multicast_round_trips_a_relay_batch_over_tcp_binary():
    runtime = make_runtime("asyncio", seed=5, transport_factory=HostPerGroup,
                           wire="binary")
    tree = OverlayTree.two_level(["g1", "g2"])
    recording = {f"g1/r{i}": RelayRecordingApp for i in range(4)}
    dep = ByzCastDeployment(tree, runtime=runtime,
                            app_overrides={"g1": recording})
    completed = []
    client = dep.add_client("c1")
    runtime.asyncio_loop.run_until_complete(runtime.transport.start())

    def on_done(message, latency):
        completed.append(message)
        runtime.clock.schedule(0.1, runtime.stop)

    payload = ("tx", 7, b"\x00raw", ("nested", 1.5))
    runtime.clock.schedule(
        0.0, lambda: client.amulticast(("g1", "g2"), payload=payload,
                                       callback=on_done))
    try:
        dep.run(until=15.0)
    finally:
        runtime.transport.shutdown()
        # let the cancelled pumps and readers unwind before the loop closes
        runtime.asyncio_loop.run_until_complete(asyncio.sleep(0.05))
        runtime.close()

    assert [m.payload for m in completed] == [payload]
    for gid in ("g1", "g2"):
        for sequence in dep.delivered_sequences(gid):
            assert [m.payload for m in sequence] == [payload]
    for app in dep.apps("g1"):
        # f+1 copies suffice to act; each arrived as a decoded RelayBatch
        # of one wire whose fields kept their types across the socket.
        assert len(app.relay_batches) >= 2
        for batch in app.relay_batches:
            assert isinstance(batch.wires, tuple) and len(batch.wires) == 1
            assert batch.wires[0].payload == payload
            assert batch.wires[0].to_message() == completed[0]
    assert dep.monitor.counters["byzcast.relay_batch"] >= 2 * 3
    assert dep.monitor.counters.get("net.bad_frame", 0) == 0
