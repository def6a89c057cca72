"""Wire codec roundtrips and the real-TCP transport of the rt backend."""

from __future__ import annotations

import asyncio
import dataclasses
import gc

import pytest

from repro.bcast.messages import (
    Accept, CheckpointData, Propose, Reply, Request, StateResponse,
)
from repro.bcast.reconfig import View
from repro.canonical import MEMO
from repro.core.messages import (
    RelayAck, RelayBatch, RelayCertificate, WireMulticast,
)
from repro.crypto.cache import caching_disabled
from repro.crypto.digest import digest
from repro.crypto.signatures import Signature
from repro.env import codec, wire
from repro.env.tcp import TcpTransport
from repro.errors import NetworkError
from repro.types import ClientId, MessageId, MulticastMessage
from tests.helpers import Harness, make_config


def roundtrip(obj):
    return codec.decode(codec.encode(obj))


def test_codec_roundtrips_scalars_and_containers():
    for value in (None, True, 7, 3.25, "hé", b"\x00\xffraw",
                  (1, ("a", b"b")), frozenset({"g1", "g2"}),
                  [1, 2, [3]], {"k": 1, 2: (3,)}):
        assert roundtrip(value) == value
    assert isinstance(roundtrip((1, 2)), tuple)
    assert isinstance(roundtrip(frozenset({"x"})), frozenset)


def test_codec_roundtrips_protocol_messages():
    signature = Signature(signer="c1", tag=b"\x01\x02")
    request = Request("g1", "c1", 4, ("put", "k", "v"), signature)
    assert roundtrip(request) == request

    message = MulticastMessage(
        mid=MessageId(ClientId("c1"), 9),
        dst=frozenset({"g1", "g2"}),
        payload=("tx", 1),
    )
    wire = WireMulticast.from_message(message)
    decoded = roundtrip(wire)
    assert decoded == wire
    assert decoded.to_message() == message
    relay = Request("g1", "h1/r0", 2, RelayBatch((wire, wire), 3), signature)
    assert roundtrip(relay) == relay

    accept = Accept("g1", 0, 3, b"digest", "r0")
    assert roundtrip(accept) == accept
    reply = Reply("g1", "r0", "c1", 4, ("ok",))
    assert roundtrip(reply) == reply


def test_codec_rejects_unregistered_dataclass():
    @dataclasses.dataclass(frozen=True)
    class Mystery:
        x: int

    with pytest.raises(NetworkError):
        codec.encode(Mystery(1))


def test_register_wire_type_rejects_name_collisions():
    @dataclasses.dataclass(frozen=True)
    class Request:  # same name as the protocol's Request
        x: int

    with pytest.raises(NetworkError):
        codec.register_wire_type(Request)


def test_frames_stream_across_partial_reads():
    objs = [("msg", i, b"x" * i) for i in range(5)]
    stream = b"".join(codec.frame(obj) for obj in objs)
    decoded = []
    buffer = b""
    # Feed the byte stream in awkward 7-byte chunks.
    for offset in range(0, len(stream), 7):
        buffer += stream[offset:offset + 7]
        frames, buffer = codec.read_frames(buffer)
        decoded.extend(frames)
    assert decoded == objs
    assert buffer == b""


def test_frame_length_guard():
    bogus = codec._LENGTH.pack(codec.MAX_FRAME + 1) + b"x"
    with pytest.raises(NetworkError):
        codec.read_frames(bogus)


def test_frame_route_is_byte_identical_to_generic_framing():
    signature = Signature(signer="c1", tag=b"\x01\x02")
    payloads = [
        Request("g1", "c1", 4, ("put", "k", "v"), signature),
        Accept("g1", 0, 7, b"\xde\xad", "g1/r2"),
        ("plain", ["tuple", 1]),
        None,
    ]
    for payload in payloads:
        for src, dst in (("g1/r0", "g1/r1"), ("hé-src", "dst\"quoted\"")):
            spliced = codec.frame_route(src, dst, payload)
            assert spliced == codec.frame((src, dst, payload))
            frames, rest = codec.read_frames(spliced)
            assert rest == b""
            assert frames == [(src, dst, payload)]


def test_frame_route_reuses_the_memoised_payload_body():
    request = Request("g1", "c1", 9, ("op",), Signature("c1", b"\x03"))
    codec.encode(request)  # populate the identity-keyed encode cache
    # Splicing to two different destinations yields two distinct frames
    # around the same payload bytes.
    a = codec.frame_route("g1/r0", "g1/r1", request)
    b = codec.frame_route("g1/r0", "g1/r2", request)
    assert a != b
    body = codec.encode(request)
    assert body in a and body in b


def test_frame_route_respects_the_frame_limit():
    with pytest.raises(NetworkError):
        codec.frame_route("s", "d", "x" * (codec.MAX_FRAME + 1))


# -- TCP transport ----------------------------------------------------------


class Probe:
    """Minimal endpoint: a name and a mailbox (no runtime needed)."""

    def __init__(self, name):
        self.name = name
        self.network = None
        self.got = []

    def receive(self, src, payload):
        self.got.append((src, payload))


def test_tcp_transport_delivers_fifo_between_hosts():
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory)
    host_b = TcpTransport(aloop, directory=directory)
    a = Probe("a")
    b = Probe("b")
    host_a.register(a)
    host_b.register(b)

    signature = Signature(signer="a", tag=b"\x99")
    payloads = [Request("g1", "a", i, ("cmd", i), signature) for i in range(12)]

    async def scenario():
        await host_a.start()
        await host_b.start()
        # local short-circuit: a -> a never touches the socket
        host_a.send("a", "a", ("loopback",))
        for payload in payloads:
            host_a.send("a", "b", payload)
        for _ in range(500):
            if len(b.got) >= len(payloads) and a.got:
                break
            await asyncio.sleep(0.01)
        # reply path opens the reverse connection
        host_b.send("b", "a", ("ack",))
        for _ in range(500):
            if len(a.got) >= 2:
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert b.got == [("a", payload) for payload in payloads]
        assert a.got == [("a", ("loopback",)), ("b", ("ack",))]
        with pytest.raises(NetworkError):
            host_a.send("a", "ghost", "x")
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_tcp_bad_frame_is_counted_and_server_survives():
    """A connection feeding garbage is dropped (net.bad_frame), after which
    the listener still accepts and delivers well-formed traffic."""
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory)
    host_b = TcpTransport(aloop, directory=directory)
    a = Probe("a")
    b = Probe("b")
    host_a.register(a)
    host_b.register(b)

    async def scenario():
        await host_a.start()
        await host_b.start()
        # Raw rogue connection: an oversized length prefix.
        _, writer = await asyncio.open_connection("127.0.0.1", host_b.port)
        writer.write(codec._LENGTH.pack(codec.MAX_FRAME + 1) + b"junk")
        await writer.drain()
        for _ in range(200):
            if host_b.monitor.counters.get("net.bad_frame"):
                break
            await asyncio.sleep(0.01)
        writer.close()
        # The listener must still serve a fresh, well-formed connection.
        host_a.send("a", "b", ("still-alive",))
        for _ in range(500):
            if b.got:
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert host_b.monitor.counters["net.bad_frame"] == 1
        assert b.got == [("a", ("still-alive",))]
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


@pytest.mark.parametrize("wire_name", ["binary", "json"])
def test_tcp_frame_failing_its_class_validation_is_skipped(wire_name):
    """A Byzantine peer forges a frame that decodes field by field but
    that the dataclass's own constructor rejects (a ``View`` with ``f``
    rewritten 1 -> 5 is not 3f+1 wide).  It is one ``net.bad_frame``: the
    handler never sees it, and the valid frame behind it on the same
    connection is delivered."""
    wire_codec = codec.get_codec(wire_name)
    view = View(("r0", "r1", "r2", "r3"), 1)
    valid = wire_codec.frame_route("a", "b", view)
    if wire_name == "binary":
        assert valid[-9:] == b"\x03" + (1).to_bytes(8, "big")  # f, as >q
        forged = valid[:-1] + b"\x05"
    else:
        assert valid.count(b'"f":1') == 1
        forged = valid.replace(b'"f":1', b'"f":5')
    with pytest.raises(NetworkError, match="3f\\+1"):
        wire_codec.decode(forged[codec._LENGTH.size:])

    aloop = asyncio.new_event_loop()
    host_b = TcpTransport(aloop, directory={}, wire=wire_name)
    b = Probe("b")
    host_b.register(b)

    async def scenario():
        await host_b.start()
        _, writer = await asyncio.open_connection("127.0.0.1", host_b.port)
        writer.write(forged + valid)
        await writer.drain()
        for _ in range(200):
            if b.got:
                break
            await asyncio.sleep(0.01)
        writer.close()

    try:
        aloop.run_until_complete(scenario())
        assert host_b.monitor.counters["net.bad_frame"] == 1
        assert b.got == [("a", view)]
    finally:
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def relay_certificate():
    """Two relayers' signed copies of one batch, as a child pools them."""
    wire = WireMulticast("c1", 1, ("g1", "g2"), ("tx", b"\x00"))
    copies = tuple(Request("g1", f"h1/r{i}", 3, RelayBatch((wire,), 2),
                           Signature(f"h1/r{i}", bytes([i])))
                   for i in range(2))
    return Request("g1", "relay@h1", 3, RelayCertificate("h1", 2, copies))


def test_tcp_transport_round_trips_a_relay_certificate():
    """A proposal carrying a certificate crosses a socket whole: each copy
    decodes as a new ``Request`` equal to the one the relayer signed."""
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory, wire="binary")
    host_b = TcpTransport(aloop, directory=directory, wire="binary")
    a, b = Probe("g1/r0"), Probe("g1/r1")
    host_a.register(a)
    host_b.register(b)
    certificate = relay_certificate()
    proposal = Propose("g1", 0, 5, (certificate,), "g1/r0")

    async def scenario():
        await host_a.start()
        await host_b.start()
        host_a.send("g1/r0", "g1/r1", proposal)
        for _ in range(500):
            if b.got:
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        ((src, got),) = b.got
        assert src == "g1/r0" and got == proposal
        (decoded,) = got.batch
        assert decoded.signature is None
        for copy, sent in zip(decoded.command.copies,
                              certificate.command.copies):
            assert isinstance(copy, Request) and copy is not sent
            assert copy == sent and copy.command.wires[0].payload[1] == b"\x00"
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_decoded_messages_forwarded_over_tcp_arrive_byte_identical():
    """The forward and relay paths re-send what they decoded: a ``Propose``
    and the ``RelayCertificate`` request inside it, whose memos are views
    of the frame they arrived in.  The next hop receives the very bytes
    the first sender encoded."""
    aloop = asyncio.new_event_loop()
    directory = {}
    hosts = [TcpTransport(aloop, directory=directory, wire="binary")
             for _ in range(3)]
    probes = [Probe(f"g1/r{i}") for i in range(3)]
    for host, probe in zip(hosts, probes):
        host.register(probe)
    certificate = relay_certificate()
    proposal = Propose("g1", 0, 5, (certificate,), "g1/r0")
    sent = {"proposal": wire.encode(proposal),
            "certificate": wire.encode(certificate)}

    async def until(probe, count):
        for _ in range(500):
            if len(probe.got) >= count:
                return
            await asyncio.sleep(0.01)

    async def scenario():
        for host in hosts:
            await host.start()
        hosts[0].send("g1/r0", "g1/r1", proposal)
        await until(probes[1], 1)
        ((__, decoded),) = probes[1].got
        forwarded = (decoded, decoded.batch[0])
        for message in forwarded:
            assert type(message.__dict__[MEMO]) is memoryview
            hosts[1].send("g1/r1", "g1/r2", message)
        await until(probes[2], 2)

    try:
        aloop.run_until_complete(scenario())
        (__, got_proposal), (__, got_certificate) = probes[2].got
        assert got_proposal == proposal and got_certificate == certificate
        with caching_disabled():
            assert wire.encode(got_proposal) == sent["proposal"]
            assert wire.encode(got_certificate) == sent["certificate"]
        assert bytes(got_proposal.__dict__[MEMO]) == sent["proposal"]
        assert bytes(got_certificate.__dict__[MEMO]) == sent["certificate"]
    finally:
        for host in hosts:
            host.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_a_checkpoint_taken_over_from_decoded_answers_keeps_no_frame():
    """f+1 peers' decoded ``StateResponse`` frames install a checkpoint
    whose view differs from the replica's.  Once the state round lets go of
    the answers, nothing the replica keeps — the checkpoint, its state, the
    new ``View`` — holds a view of either frame: no memory view of a frame
    body is left anywhere (``gc.get_referrers``)."""
    h = Harness(config=make_config("g1", checkpoint_interval=4))
    r0 = h.group.replicas[0]
    r0.send = lambda dst, payload, **kw: None
    r0._broadcast = lambda payload, **kw: None
    state = (("op", 0), ("op", 1))
    tracker = (("c0", 2),)
    members = ("g1/r0", "g1/r1", "g1/r2", "g1/r4")
    checkpoint = CheckpointData(
        cid=7, state_digest=digest(("ckpt", 7, state, tracker, members, 1)),
        state=state, tracker=tracker, view_replicas=members, view_f=1)
    frames = []
    r0._request_state()
    for sender in ("g1/r1", "g1/r2"):
        frames.append(wire.encode(StateResponse(
            group="g1", sender=sender, from_cid=0, next_cid=8, regency=0,
            batches=(), checkpoint=checkpoint, horizon=8)))
        decoded = wire.decode(frames[-1])
        assert decoded.checkpoint.__dict__[MEMO].obj is frames[-1]
        r0._handle_state_response(sender, decoded)
    del decoded
    assert r0.log.next_execute == 8 and r0.view.replicas == members
    assert r0.log.checkpoint == checkpoint
    assert MEMO not in r0.log.checkpoint.__dict__
    r0.state_transfer.abandon()     # the round's answers are let go
    gc.collect()
    for frame in frames:
        holders = [type(holder).__name__ for holder in gc.get_referrers(frame)
                   if holder is not frames]
        assert holders == [], f"a frame is still referenced by {holders}"


@pytest.mark.parametrize("wire_name", ["binary", "json"])
def test_a_certificate_whose_copies_are_not_requests_does_not_decode(
        wire_name):
    """The strict decoder rebuilds a certificate through its constructor,
    which takes signed requests only: a frame whose copies are anything
    else is a ``NetworkError``, never a certificate."""
    wire_codec = codec.get_codec(wire_name)
    certificate = relay_certificate().command
    assert wire_codec.decode(wire_codec.encode(certificate)) == certificate
    for copies in ((Reply("g1", "h1/r0", "c1", 1, ("ack",)),),
                   (certificate.copies[0], ("not", "a", "request")),
                   ((certificate.copies[0].command,))):
        forged = object.__new__(RelayCertificate)
        for name, value in (("parent", "h1"), ("index", 2), ("copies", copies)):
            object.__setattr__(forged, name, value)
        with pytest.raises(NetworkError, match="RelayCertificate"):
            wire_codec.decode(wire_codec.encode(forged))


def test_tcp_transport_round_trips_a_relay_ack():
    """A child replica's stream ack crosses a socket as a ``RelayAck``
    equal to the one sent (type id 26)."""
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory, wire="binary")
    host_b = TcpTransport(aloop, directory=directory, wire="binary")
    a, b = Probe("g1/r0"), Probe("h1/r0")
    host_a.register(a)
    host_b.register(b)
    ack = RelayAck("g1", "h1", "g1/r0", 41)

    async def scenario():
        await host_a.start()
        await host_b.start()
        host_a.send("g1/r0", "h1/r0", ack)
        for _ in range(500):
            if b.got:
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert b.got == [("g1/r0", ack)]
        assert isinstance(b.got[0][1], RelayAck)
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


@pytest.mark.parametrize("wire_name", ["binary", "json"])
def test_a_relay_ack_without_a_natural_index_does_not_decode(wire_name):
    """The strict decoder rebuilds a ``RelayAck`` through its constructor,
    which takes a natural next index only: a frame carrying a negative, a
    boolean or a non-integer index is a ``NetworkError``."""
    wire_codec = codec.get_codec(wire_name)
    ack = RelayAck("g1", "h1", "g1/r0", 3)
    assert wire_codec.decode(wire_codec.encode(ack)) == ack
    for index in (-1, True, 2.0, "3", None):
        with pytest.raises(TypeError):
            RelayAck("g1", "h1", "g1/r0", index)
        forged = object.__new__(RelayAck)
        for name, value in (("group", "g1"), ("parent", "h1"),
                            ("sender", "g1/r0"), ("next_index", index)):
            object.__setattr__(forged, name, value)
        with pytest.raises(NetworkError, match="RelayAck"):
            wire_codec.decode(wire_codec.encode(forged))


@pytest.mark.parametrize("wire_name", ["binary", "json"])
def test_a_signature_that_is_not_a_str_signer_and_bytes_tag_does_not_decode(
        wire_name):
    """The strict decoder rebuilds a ``Signature`` through its constructor,
    which takes a ``str`` signer and a ``bytes`` tag only: a request whose
    signature carries anything else is a ``NetworkError`` (one
    ``net.bad_frame`` on a socket), never a request the verifier chokes
    on."""
    wire_codec = codec.get_codec(wire_name)
    request = Request("g1", "c1", 1, ("op",), Signature("c1", b"t"))
    assert wire_codec.decode(wire_codec.encode(request)) == request
    for signer, tag in (("c1", "not-bytes"), (7, b"t"), ("c1", None),
                        (None, b"t"), ("c1", 5)):
        with pytest.raises(TypeError):
            Signature(signer, tag)
        forged = object.__new__(Signature)
        object.__setattr__(forged, "signer", signer)
        object.__setattr__(forged, "tag", tag)
        with pytest.raises(NetworkError, match="Signature"):
            wire_codec.decode(wire_codec.encode(
                dataclasses.replace(request, signature=forged)))


def test_tcp_pump_reconnects_after_connection_loss():
    """When the server side kills the connection mid-stream, the outbound
    pump reconnects (net.reconnect) and later traffic still arrives."""
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory)
    host_b = TcpTransport(aloop, directory=directory)
    a = Probe("a")
    b = Probe("b")
    host_a.register(a)
    host_b.register(b)

    async def scenario():
        await host_a.start()
        await host_b.start()
        host_a.send("a", "b", ("before",))
        for _ in range(500):
            if b.got:
                break
            await asyncio.sleep(0.01)
        # Poison the established connection from inside the pump's own
        # queue: host_b's reader sees a bad frame and closes the socket.
        address = directory["b"]
        host_a._outbound(address).put_nowait(
            codec._LENGTH.pack(codec.MAX_FRAME + 1) + b"junk")
        for _ in range(200):
            if host_b.monitor.counters.get("net.bad_frame"):
                break
            await asyncio.sleep(0.01)
        # Keep sending until the pump notices the dead socket, reconnects
        # and a post-reconnect message lands.
        for i in range(200):
            host_a.send("a", "b", ("after", i))
            await asyncio.sleep(0.02)
            if host_a.monitor.counters.get("net.reconnect") and len(b.got) >= 2:
                break

    try:
        aloop.run_until_complete(scenario())
        assert host_b.monitor.counters["net.bad_frame"] >= 1
        assert host_a.monitor.counters["net.reconnect"] >= 1
        after = [payload for _, payload in b.got[1:]]
        assert after, "no traffic delivered after reconnect"
        # Per-link FIFO must hold across the reconnect.
        indices = [payload[1] for payload in after]
        assert indices == sorted(indices)
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_tcp_shutdown_drains_queued_frames():
    """shutdown() flushes frames still queued behind the pump before
    cancelling it, so a just-sent message is not lost on teardown."""
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory)
    host_b = TcpTransport(aloop, directory=directory)
    a = Probe("a")
    b = Probe("b")
    host_a.register(a)
    host_b.register(b)

    async def scenario():
        await host_a.start()
        await host_b.start()
        # Queue without yielding: the pump has not run when scenario returns.
        host_a.send("a", "b", ("parting-shot",))

    try:
        aloop.run_until_complete(scenario())
        host_a.shutdown()  # drains the outbound queue before cancelling
        aloop.run_until_complete(asyncio.sleep(0.05))
        assert b.got == [("a", ("parting-shot",))]
    finally:
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_tcp_site_partition_blocks_cross_host_traffic():
    """Regression: ``send`` never consulted ``_blocked_sites``, so site
    partitions silently did not apply to the TCP transport.  Both
    endpoints' sites resolve through the shared site directory even when
    the destination lives on a remote host."""
    aloop = asyncio.new_event_loop()
    directory = {}
    sites = {}
    host_a = TcpTransport(aloop, directory=directory, site_directory=sites)
    host_b = TcpTransport(aloop, directory=directory, site_directory=sites)
    a = Probe("a")
    b = Probe("b")
    host_a.register(a, site="dc1")
    host_b.register(b, site="dc2")

    async def scenario():
        await host_a.start()
        await host_b.start()
        host_a.partition("dc1", "dc2", sites=True)
        host_a.send("a", "b", ("blocked",))
        await asyncio.sleep(0.05)
        host_a.heal("dc1", "dc2", sites=True)
        host_a.send("a", "b", ("healed",))
        for _ in range(500):
            if b.got:
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert host_a.monitor.counters["net.partitioned"] == 1
        assert b.got == [("a", ("healed",))]
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_tcp_dead_pump_respawns_on_next_send(monkeypatch):
    """Regression: a pump that exhausted its connect retries died, but the
    queue it served stayed in ``_out_queues`` — every later frame to that
    address was enqueued into a blackhole forever.  The next send must
    respawn the pump with a fresh backoff cycle, and the swallowed frames
    must be accounted as ``net.blackholed``."""
    import socket

    from repro.env import tcp as tcp_mod

    monkeypatch.setattr(tcp_mod, "CONNECT_RETRIES", 3)
    monkeypatch.setattr(tcp_mod, "CONNECT_BACKOFF", 0.001)
    # Reserve a port that is closed now but bindable later.
    probe_sock = socket.socket()
    probe_sock.bind(("127.0.0.1", 0))
    port = probe_sock.getsockname()[1]
    probe_sock.close()

    aloop = asyncio.new_event_loop()
    directory = {"b": ("127.0.0.1", port)}
    host_a = TcpTransport(aloop, directory=directory)
    host_b = TcpTransport(aloop, directory=directory)
    a = Probe("a")
    b = Probe("b")
    host_a.register(a)
    host_b.register(b)

    async def scenario():
        await host_a.start()
        # Peer not listening yet: the pump gives up and dies.
        host_a.send("a", "b", ("lost-1",))
        host_a.send("a", "b", ("lost-2",))
        for _ in range(500):
            if host_a.monitor.counters.get("net.blackholed"):
                break
            await asyncio.sleep(0.01)
        address = ("127.0.0.1", port)
        assert host_a._out_tasks[address].done()
        # Peer comes up on the advertised address; the next send must
        # respawn the pump instead of feeding the dead queue.
        await host_b.start(port)
        host_a.send("a", "b", ("after-respawn",))
        for _ in range(500):
            if b.got:
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert host_a.monitor.counters["net.blackholed"] == 2
        assert host_a.monitor.counters["net.connect_failed"] == 1
        assert b.got == [("a", ("after-respawn",))]
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_drain_frames_consumes_in_place_without_rescanning():
    """Regression: the reader re-sliced the buffer per frame and grew it
    with repeated concatenation — O(n²) on bursts.  ``drain_frames``
    consumes every complete frame in one offset-based pass and compacts
    the buffer to exactly the trailing partial frame."""
    objs = [("burst", i, b"y" * (i * 3)) for i in range(20)]
    stream = b"".join(codec.frame(obj) for obj in objs)
    half = codec.frame(("partial",))
    buffer = bytearray(stream + half[:5])
    frames, ok = codec.drain_frames(buffer)
    assert ok
    assert frames == objs
    assert bytes(buffer) == half[:5]
    # The remainder completes on the next feed.
    buffer += half[5:]
    frames, ok = codec.drain_frames(buffer)
    assert ok
    assert frames == [("partial",)]
    assert buffer == bytearray()


def test_drain_frames_isolates_bad_body_and_resyncs():
    """A frame whose body will not decode is skipped via ``on_bad`` —
    framing stays intact, the frames around it still arrive."""
    good_before = codec.frame(("ok", 1))
    poison_body = b"this is not json"
    poison = codec._LENGTH.pack(len(poison_body)) + poison_body
    good_after = codec.frame(("ok", 2))
    buffer = bytearray(good_before + poison + good_after)
    bad = []
    frames, ok = codec.drain_frames(buffer, on_bad=bad.append)
    assert ok
    assert frames == [("ok", 1), ("ok", 2)]
    assert len(bad) == 1 and isinstance(bad[0], NetworkError)
    assert buffer == bytearray()


def test_tcp_connect_gives_up_after_retries(monkeypatch):
    """An unreachable peer exhausts the capped backoff and is counted."""
    from repro.env import tcp as tcp_mod

    monkeypatch.setattr(tcp_mod, "CONNECT_RETRIES", 3)
    monkeypatch.setattr(tcp_mod, "CONNECT_BACKOFF", 0.001)
    aloop = asyncio.new_event_loop()
    host_a = TcpTransport(aloop, directory={"ghost": ("127.0.0.1", 1)})
    a = Probe("a")
    host_a.register(a)

    async def scenario():
        host_a.send("a", "ghost", ("lost",))
        for _ in range(200):
            if host_a.monitor.counters.get("net.connect_failed"):
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert host_a.monitor.counters["net.connect_failed"] == 1
    finally:
        host_a.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.02))
        aloop.close()
