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

from repro.bcast.messages import AuthenticatedPropose, Propose, Request, Write
from repro.canonical import MEMO
from repro.core import OverlayTree
from repro.core.deployment import ByzCastDeployment
from repro.core.invariants import check_all
from repro.core.messages import RelayBatch, RelayCertificate
from repro.core.node import ByzCastApplication
from repro.crypto import cache as crypto_cache
from repro.crypto.digest import digest
from repro.crypto.mac import mac_vector
from repro.env import make_runtime, wire
from repro.env.tcp import TcpTransport

TOTAL = 120
WINDOW = 8  # concurrently outstanding multicasts
DESTS = [("g1",), ("g2",), ("g1", "g2")]  # mixed local + global traffic


def run_closed_loop(runtime, total, when_done):
    """``total`` mixed multicasts from one client on a 2-group tree,
    ``WINDOW`` outstanding; ``when_done()`` runs at the last completion.
    Returns the deployment and the ``(message, latency)`` completions."""
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            runtime=runtime)
    assert dep.runtime is runtime and not runtime.deterministic
    client = dep.add_client("c1")
    sent = []
    completed = []

    def send_next():
        index = len(sent)
        sent.append(client.amulticast(
            DESTS[index % len(DESTS)], payload=("tx", index),
            callback=on_done))

    def on_done(message, latency, results):
        completed.append((message, latency))
        if len(sent) < total:
            send_next()
        elif len(completed) == total:
            when_done()

    runtime.clock.schedule(0.0, lambda: [send_next() for _ in range(WINDOW)])
    dep.start()
    try:
        dep.run(until=25.0)
    finally:
        runtime.close()
    return dep, completed


def test_realtime_two_group_tree_delivers_100_messages():
    started = time.monotonic()
    runtime = make_runtime("rt", seed=11)
    # Quiesce: give trailing replicas a beat to a-deliver, then stop.
    dep, completed = run_closed_loop(
        runtime, TOTAL, lambda: runtime.clock.schedule(0.1, runtime.stop))
    elapsed = time.monotonic() - started

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


def test_asyncio_wakeups_scale_with_bursts_not_messages():
    """200 closed-loop ops: every delivery and every CPU job rides the
    runtime's ready queue, so asyncio sees one ``call_soon`` per burst —
    far fewer than messages sent, let alone one or two per message."""
    runtime = make_runtime("rt", seed=11)
    total = 200
    wakeups = []
    call_soon = runtime.asyncio_loop.call_soon

    def counting_call_soon(callback, *args, **kwargs):
        wakeups.append(callback)
        return call_soon(callback, *args, **kwargs)

    runtime.asyncio_loop.call_soon = counting_call_soon
    dep, completed = run_closed_loop(runtime, total, runtime.stop)
    messages = dep.monitor.counters["net.sent"]
    assert len(completed) == total
    assert messages > 20 * total
    assert len(wakeups) < messages / 10
    assert len(wakeups) < 5 * total


class HostPerGroup:
    """One :class:`TcpTransport` host per group (and one per client), so
    every message between groups is encoded onto a loopback socket."""

    def __init__(self, aloop, monitor=None, wire="json"):
        self.directory, self.sites, self.hosts = {}, {}, {}
        self._new_host = lambda: TcpTransport(
            aloop, monitor, directory=self.directory,
            site_directory=self.sites, wire=wire)

    @staticmethod
    def host_of(actor):
        return actor.name.split("/")[0]

    def register(self, actor, site="site0"):
        key = self.host_of(actor)
        if key not in self.hosts:
            self.hosts[key] = self._new_host()
        self.hosts[key].register(actor, site)

    async def start(self):
        for host in self.hosts.values():
            await host.start()

    def shutdown(self):
        for host in self.hosts.values():
            host.shutdown()


class RelayRecordingApp(ByzCastApplication):
    """Keeps the relay certificates it executes, as decoded."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.certificates = []

    def execute(self, request, ctx):
        if isinstance(request.command, RelayCertificate):
            self.certificates.append(request.command)
        return super().execute(request, ctx)


def test_global_multicast_round_trips_a_relay_batch_over_tcp_binary():
    runtime = make_runtime("rt", seed=5, transport_factory=HostPerGroup,
                           wire="binary")
    tree = OverlayTree.two_level(["g1", "g2"])
    recording = {f"g1/r{i}": RelayRecordingApp for i in range(4)}
    dep = ByzCastDeployment(tree, runtime=runtime,
                            app_overrides={"g1": recording})
    completed = []
    client = dep.add_client("c1")
    runtime.asyncio_loop.run_until_complete(runtime.transport.start())

    def on_done(message, latency, results):
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
        # One certificate of f+1 signed copies, ordered once; each copy
        # arrived as a decoded RelayBatch of one wire whose fields kept
        # their types across the socket.
        (certificate,) = app.certificates
        assert len(certificate.copies) == 2
        for copy in certificate.copies:
            batch = copy.command
            assert isinstance(batch, RelayBatch) and batch.index == 0
            assert isinstance(batch.wires, tuple) and len(batch.wires) == 1
            assert batch.wires[0].payload == payload
            assert batch.wires[0].to_message() == completed[0]
    assert dep.monitor.counters["byzcast.relay_batch"] >= 2 * 3
    assert dep.monitor.counters.get("net.bad_frame", 0) == 0


# -- batch authentication over sockets: one byte form ------------------------------


class HostPerActor(HostPerGroup):
    """One host per replica, so proposals reach followers as frames."""

    @staticmethod
    def host_of(actor):
        return actor.name


def authenticated_tcp_deployment():
    runtime = make_runtime("rt", seed=5, transport_factory=HostPerActor,
                           wire="binary")
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            runtime=runtime, authenticate_batches=True)
    return runtime, dep


def run_and_close(runtime, dep, first, until=15.0):
    """Start the hosts, schedule ``first`` (a started loop would run it
    before every host is listening), run, and unwind pumps and readers."""
    runtime.asyncio_loop.run_until_complete(runtime.transport.start())
    runtime.clock.schedule(0.0, first)
    try:
        dep.run(until=until)
    finally:
        runtime.transport.shutdown()
        runtime.asyncio_loop.run_until_complete(asyncio.sleep(0.05))
        runtime.close()


def test_follower_writes_a_received_batch_without_walking_it_again():
    """A follower checks its link tag, validates and WRITEs a decoded
    ``AuthenticatedPropose`` off the bytes that arrived: every canonical
    walk during the handler belongs to a message the follower itself
    created (its Write/Accept), none to a decoded one."""
    runtime, dep = authenticated_tcp_deployment()
    follower = dep.group("g1").replicas[1]
    handle, send = follower._handle_authenticated_propose, follower.send
    handled = []
    outgoing = []

    def recording_send(dst, payload):
        outgoing.append(payload)
        send(dst, payload)

    def recording_handle(src, wrapped):
        proposal = wrapped.proposal
        decoded = [wrapped, proposal, *proposal.batch,
                   *(r.command for r in proposal.batch),
                   *(r.signature for r in proposal.batch)]
        seeded = all(MEMO in message.__dict__ for message in decoded)
        outgoing.clear()
        before = crypto_cache.cache_stats()["canonical"]
        handle(src, wrapped)
        after = crypto_cache.cache_stats()["canonical"]
        created = {id(payload) for payload in outgoing}
        handled.append({
            "seeded": seeded,
            "walks_of_decoded": after["misses"] - before["misses"]
                                - len(created),
            "hits": after["hits"] - before["hits"],
            "wrote": [p for p in outgoing if isinstance(p, Write)],
            "digest": digest(proposal.batch),
        })

    follower._handle_authenticated_propose = recording_handle
    follower.send = recording_send
    completed = []
    client = dep.add_client("c1")

    def on_done(message, latency, results):
        completed.append(message)
        runtime.clock.schedule(0.1, runtime.stop)

    crypto_cache.configure(True)
    run_and_close(runtime, dep, lambda: client.amulticast(
        ("g1",), payload=("tx", b"\x00" * 64), callback=on_done))

    assert len(completed) == 1
    assert handled, "the follower never received a proposal over its socket"
    for record in handled:
        assert record["seeded"]
        assert record["walks_of_decoded"] == 0
        assert record["hits"] > 0
    first = handled[0]
    assert [w.digest for w in first["wrote"][:1]] == [first["digest"]]
    assert dep.monitor.counters.get("propose.bad_link_mac", 0) == 0
    assert dep.monitor.counters.get("net.bad_frame", 0) == 0


def test_mac_over_a_non_canonical_frame_dies_at_the_link():
    """A Byzantine leader encodes a valid batch non-canonically (the cid
    under the big-int tag) and MACs *those* bytes.  Were the frame decoded,
    the follower's seeded memo would make the tag verify and its WRITE
    digest differ from that of a replica that got the canonical frame of
    the equal batch.  Strict decoding drops it as ``net.bad_frame`` before
    any handler runs; the canonical frame of the same batch gets through."""
    runtime, dep = authenticated_tcp_deployment()
    group = dep.group("g1")
    leader, follower = group.replicas[0], group.replicas[1]
    batch = (Request("g1", "c9", 0, ("op", 1)),)
    honest = Propose("g1", 0, 7, batch, leader.name)
    canonical = wire.encode(honest)
    before_cid = wire.encode(Propose("g1", 0, 0, (), ""))[:3] + b"".join(
        wire.encode(field) for field in ("g1", 0))
    assert canonical.startswith(before_cid + wire.encode(7))
    evil = Propose("g1", 0, 7, batch, leader.name)
    evil.__dict__[MEMO] = (before_cid + b"\x04\x00\x00\x00\x01\x07"
                           + canonical[len(before_cid) + 9:])
    assert evil == honest and digest(evil) != digest(honest)

    def frame(proposal):
        vector = mac_vector(dep.registry, leader.name, leader.peers(),
                            proposal)
        return wire.frame_route(
            leader.name, follower.name,
            AuthenticatedPropose(proposal, tuple(sorted(vector.items()))))

    reached = []
    follower._handle_authenticated_propose = (
        lambda src, wrapped: reached.append(wrapped.proposal))
    tasks = []

    async def inject():
        port = runtime.transport.hosts[follower.name].port
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(frame(evil))
        writer.write(frame(honest))
        await writer.drain()
        await asyncio.sleep(0.2)
        writer.close()
        runtime.stop()

    run_and_close(runtime, dep, lambda: tasks.append(
        runtime.asyncio_loop.create_task(inject())), until=10.0)

    assert tasks[0].done() and tasks[0].exception() is None
    assert dep.monitor.counters.get("net.bad_frame", 0) == 1
    assert len(reached) == 1
    assert reached[0].__dict__[MEMO] == canonical
    assert digest(reached[0]) == digest(honest)
