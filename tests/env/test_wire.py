"""The binary wire codec: roundtrips, strictness, TCP parity with JSON."""

from __future__ import annotations

import asyncio
import dataclasses
import struct

import pytest

from repro.bcast.messages import Accept, Propose, Reply, Request
from repro.core.messages import RelayBatch, WireMulticast
from repro.crypto.signatures import Signature
from repro import canonical
from repro.env import codec, wire
from repro.env.codec import get_codec
from repro.env.tcp import TcpTransport
from repro.errors import NetworkError
from repro.types import ClientId, MessageId, MulticastMessage


def roundtrip(obj):
    return wire.decode(wire.encode(obj))


def test_binary_roundtrips_scalars_and_containers():
    for value in (None, True, False, 0, -1, 2**63 - 1, -(2**63),
                  2**80, -(2**90), 3.25, -0.0, "", "hé☃",
                  b"", b"\x00\xffraw", (), (1, ("a", b"b")),
                  frozenset({"g1", "g2"}), [1, 2, [3]],
                  {"k": 1, 2: (3,)}):
        assert roundtrip(value) == value
    assert isinstance(roundtrip((1, 2)), tuple)
    assert isinstance(roundtrip(frozenset({"x"})), frozenset)
    assert isinstance(roundtrip([1]), list)
    assert roundtrip(True) is True
    assert roundtrip(False) is False


def test_binary_roundtrips_protocol_messages():
    signature = Signature(signer="c1", tag=b"\x01\x02")
    request = Request("g1", "c1", 4, ("put", "k", "v"), signature)
    assert roundtrip(request) == request

    message = MulticastMessage(
        mid=MessageId(ClientId("c1"), 9),
        dst=frozenset({"g1", "g2"}),
        payload=("tx", 1),
    )
    wired = WireMulticast.from_message(message)
    decoded = roundtrip(wired)
    assert decoded == wired
    assert decoded.to_message() == message
    relay = Request("g1", "h1/r0", 2, RelayBatch((wired, wired), 3), signature)
    assert roundtrip(relay) == relay

    accept = Accept("g1", 0, 3, b"digest", "r0")
    assert roundtrip(accept) == accept
    reply = Reply("g1", "r0", "c1", 4, ("ok",))
    assert roundtrip(reply) == reply
    batch = tuple(
        Request("g1", f"c{i}", i, ("put", f"k{i}", b"v" * i),
                Signature(f"c{i}", bytes(16)))
        for i in range(8))
    propose = Propose("g1", 0, 3, batch, "g1/r0")
    assert roundtrip(propose) == propose


def test_binary_frames_are_smaller_than_json():
    batch = tuple(
        Request("g1", f"c{i}", i, ("put", f"key-{i}", b"\x00" * 64),
                Signature(f"c{i}", bytes(16)))
        for i in range(16))
    propose = Propose("g1", 0, 3, batch, "g1/r0")
    assert len(wire.frame(propose)) < len(codec.frame(propose))


def test_binary_rejects_unregistered_dataclass():
    @dataclasses.dataclass(frozen=True)
    class Mystery:
        x: int

    with pytest.raises(NetworkError):
        wire.encode(Mystery(1))


def test_binary_decode_is_strict():
    body = wire.encode(("ab", 7))
    # truncations at every split point
    for cut in range(len(body)):
        with pytest.raises(NetworkError):
            wire.decode(body[:cut])
    # trailing garbage
    with pytest.raises(NetworkError):
        wire.decode(body + b"\x00")
    # unknown tag
    with pytest.raises(NetworkError):
        wire.decode(b"\xfe")
    # unknown dataclass type id
    with pytest.raises(NetworkError):
        wire.decode(bytes((0x0C,)) + struct.pack(">H", 65535))
    # string length pointing past the end of the body
    with pytest.raises(NetworkError):
        wire.decode(bytes((0x06,)) + struct.pack(">I", 100) + b"short")
    # invalid UTF-8 payload
    with pytest.raises(NetworkError):
        wire.decode(bytes((0x06,)) + struct.pack(">I", 2) + b"\xff\xfe")
    with pytest.raises(NetworkError):
        wire.decode(b"")


#: the type-id table (docs/WIRE.md): ids are registration indexes, so a
#: moved id changes every frame and digest that names the type
WIRE_TYPE_IDS = (
    "bcast.messages.Request", "bcast.messages.Propose",
    "bcast.messages.Write", "bcast.messages.Accept", "bcast.messages.Reply",
    "bcast.messages.Stop", "bcast.messages.StopData", "bcast.messages.Sync",
    "bcast.messages.Heartbeat", "bcast.messages.CertReport",
    "bcast.messages.StateRequest", "bcast.messages.StateResponse",
    "core.messages.WireMulticast", "core.messages.MulticastReply",
    "bcast.reconfig.Reconfig", "bcast.reconfig.View",
    "crypto.signatures.Signature", "types.MessageId",
    "types.MulticastMessage", None, "core.messages.MembershipUpdate",
    "core.messages.TreeUpdate", "bcast.messages.AuthenticatedPropose",
    "core.messages.RelayBatch", "core.messages.DeliveryQuery",
    "core.messages.RelayCertificate", "core.messages.RelayAck",
    "bcast.messages.CheckpointData",
)


def test_type_ids_are_pinned_and_the_retired_id_19_is_refused():
    for type_id, name in enumerate(WIRE_TYPE_IDS):
        if name is None:
            continue
        cls = canonical.wire_type_by_id(type_id)
        assert f"{cls.__module__}.{cls.__qualname__}" == f"repro.{name}"
    # an encoded frame names its type by that id, either side of 19
    for value, type_id in ((Signature("c1", b"\x01"), 16),
                           (RelayBatch((), 3), 23)):
        assert bytes(wire.encode(value)[:3]) == (
            bytes((0x0C,)) + struct.pack(">H", type_id))
    with pytest.raises(NetworkError):
        canonical.wire_type_by_id(19)
    with pytest.raises(NetworkError):
        canonical.wire_type_by_id(len(WIRE_TYPE_IDS))
    # a frame naming id 19 with any fields after it
    for body in (b"", wire.encode("x"), wire.encode(("t", 0.0))):
        with pytest.raises(NetworkError):
            wire.decode(bytes((0x0C,)) + struct.pack(">H", 19) + body)


def test_binary_decode_rejects_field_count_mismatch():
    # A Signature frame with its second field chopped off: the dataclass
    # constructor sees too few values and the error surfaces as a
    # NetworkError, not a TypeError crash.
    good = wire.encode(Signature("c1", b"\x01"))
    with pytest.raises(NetworkError):
        wire.decode(good[:-7])


def test_binary_frame_route_matches_generic_framing():
    signature = Signature(signer="c1", tag=b"\x01\x02")
    payloads = [
        Request("g1", "c1", 4, ("put", "k", "v"), signature),
        Accept("g1", 0, 7, b"\xde\xad", "g1/r2"),
        ("plain", ["tuple", 1]),
        None,
    ]
    for payload in payloads:
        for src, dst in (("g1/r0", "g1/r1"), ("hé-src", 'dst"quoted"')):
            parts = wire.frame_route_parts(src, dst, payload)
            spliced = b"".join(parts)
            assert spliced == wire.frame((src, dst, payload))
            assert spliced == wire.frame_route(src, dst, payload)
            frames, rest = wire.read_frames(spliced)
            assert rest == b""
            assert frames == [(src, dst, payload)]


def test_binary_frames_stream_across_partial_reads():
    objs = [("msg", i, b"x" * i) for i in range(5)]
    stream = b"".join(wire.frame(obj) for obj in objs)
    decoded = []
    buffer = b""
    for offset in range(0, len(stream), 7):
        buffer += stream[offset:offset + 7]
        frames, buffer = wire.read_frames(buffer)
        decoded.extend(frames)
    assert decoded == objs
    assert buffer == b""


def test_binary_drain_isolates_bad_frame_bodies():
    good_before = wire.frame(("ok", 1))
    poison = wire._LENGTH.pack(4) + b"\xfe\xfe\xfe\xfe"
    good_after = wire.frame(("ok", 2))
    buffer = bytearray(good_before + poison + good_after)
    bad = []
    frames, ok = wire.drain_frames(buffer, on_bad=bad.append)
    assert ok
    assert frames == [("ok", 1), ("ok", 2)]
    assert len(bad) == 1 and isinstance(bad[0], NetworkError)
    # corrupt length prefix is unresyncable
    buffer = bytearray(wire._LENGTH.pack(wire.MAX_FRAME + 1) + b"junk")
    frames, ok = wire.drain_frames(buffer, on_bad=bad.append)
    assert not ok and frames == []


def test_binary_encode_is_memoised_on_the_message():
    from repro.canonical import MEMO
    from repro.crypto import cache as _cache

    _cache.configure(True)
    request = Request("g1", "c1", 9, ("op",), Signature("c1", b"\x03"))
    first = wire.encode(request)
    assert wire.encode(request) is first
    assert request.__dict__[MEMO] is first
    assert _cache.cache_stats()["canonical"]["hits"] >= 1
    # a decoded message arrives with the slice it was decoded from
    wrapped = wire.encode(("route", [request, request]))
    decoded = wire.decode(wrapped)[1][0]
    assert decoded == request and decoded is not request
    assert decoded.__dict__[MEMO] == first
    assert decoded.signature.__dict__[MEMO] == wire.encode(request.signature)


def test_binary_decode_accepts_canonical_encodings_only():
    """Anything the encoder would have written differently is refused —
    the receiver's memo is the frame slice, so a second encoding of one
    value would let a sender choose the bytes a correct replica digests."""
    u32 = struct.Struct(">I").pack

    def big(raw: bytes) -> bytes:
        return b"\x04" + u32(len(raw)) + raw

    def small(value: int) -> bytes:
        return b"\x03" + struct.pack(">q", value)

    def container(tag: int, *parts: bytes, count=None) -> bytes:
        count = len(parts) if count is None else count
        return bytes((tag,)) + u32(count) + b"".join(parts)

    assert wire.decode(big((2**63).to_bytes(9, "big"))) == 2**63
    assert wire.decode(container(0x0A, small(1), small(2))) == {1, 2}
    assert wire.decode(
        container(0x0B, small(1), b"\x00", small(2), b"\x00",
                  count=2)) == {1: None, 2: None}
    rejected = {
        "big-int tag on a value that fits int64": big(b"\x07"),
        "big-int tag on int64 min": big((-2**63).to_bytes(8, "big", signed=True)),
        "big-int with a redundant sign byte": big((2**63).to_bytes(10, "big")),
        "empty big-int": big(b""),
        "set items out of order": container(0x0A, small(2), small(1)),
        "set item repeated": container(0x0A, small(1), small(1)),
        "set items equal but encoded apart (1, True)":
            container(0x0A, b"\x02", small(1)),
        "dict keys out of order":
            container(0x0B, small(2), b"\x00", small(1), b"\x00", count=2),
        "dict key repeated":
            container(0x0B, small(1), b"\x00", small(1), b"\x01", count=2),
        "dict keys equal but encoded apart (1, 1.0)":
            container(0x0B, small(1), b"\x00",
                      b"\x05" + struct.pack(">d", 1.0), b"\x00", count=2),
        "unhashable dict key":
            container(0x0B, container(0x09), b"\x00", count=1),
        "unhashable set item": container(0x0A, container(0x09)),
        "unregistered-dataclass header": b"\x0d" + u32(1) + b"P" + u32(0),
    }
    for why, body in rejected.items():
        with pytest.raises(NetworkError):
            wire.decode(body)
            pytest.fail(f"accepted: {why}")


def test_get_codec_resolves_both_wires():
    assert get_codec("json") is codec
    assert get_codec("binary") is wire
    with pytest.raises(NetworkError):
        get_codec("carrier-pigeon")


# -- TCP transport with the binary codec ------------------------------------


class Probe:
    def __init__(self, name):
        self.name = name
        self.network = None
        self.got = []

    def receive(self, src, payload):
        self.got.append((src, payload))


@pytest.mark.parametrize("wire_name", ["json", "binary"])
def test_tcp_delivers_protocol_messages_under_either_codec(wire_name):
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory, wire=wire_name)
    host_b = TcpTransport(aloop, directory=directory, wire=wire_name)
    a = Probe("a")
    b = Probe("b")
    host_a.register(a)
    host_b.register(b)
    signature = Signature(signer="a", tag=b"\x99")
    payloads = [Request("g1", "a", i, ("cmd", i, b"\x00" * i), signature)
                for i in range(10)]

    async def scenario():
        await host_a.start()
        await host_b.start()
        for payload in payloads:
            host_a.send("a", "b", payload)
        for _ in range(500):
            if len(b.got) >= len(payloads):
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert b.got == [("a", payload) for payload in payloads]
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_tcp_broadcast_of_a_tuple_wrapped_message_encodes_it_once():
    """The fan-out payload shape — ``(batch, vector, stamp)`` — used to be
    walked once per destination, because only a top-level dataclass was
    memoised.  The memo is on the message, whatever wraps it."""
    from repro.crypto import cache as _cache

    aloop = asyncio.new_event_loop()
    directory = {}
    sender = TcpTransport(aloop, directory=directory, wire="binary")
    source = Probe("src")
    sender.register(source)
    peers = []
    for k in range(3):
        host = TcpTransport(aloop, directory=directory, wire="binary")
        probe = Probe(f"peer{k}")
        host.register(probe)
        peers.append((host, probe))
    batch = tuple(
        Request("g1", f"c{i}", i, ("put", f"k{i}", b"v" * 64),
                Signature(f"c{i}", bytes(16)))
        for i in range(4))
    propose = Propose("g1", 0, 3, batch, "g1/r0")
    payload = (propose, {"peer0": b"tag"}, 1.25)
    walked = []

    async def scenario():
        await sender.start()
        for host, _ in peers:
            await host.start()
        _cache.configure(True)
        for _, probe in peers:
            sender.send("src", probe.name, payload)
            walked.append(_cache.cache_stats()["canonical"]["misses"])
        for _ in range(500):
            if all(probe.got for _, probe in peers):
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        # one walk: the Propose, its 4 requests, their 4 signatures
        assert walked == [9, 9, 9]
        for _, probe in peers:
            assert probe.got == [("src", payload)]
    finally:
        sender.shutdown()
        for host, _ in peers:
            host.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


@pytest.mark.parametrize("wire_name,rogue_frames", [
    # truncated-looking body (intact framing, undecodable content)
    ("json", [codec._LENGTH.pack(7) + b"garbage"]),
    ("binary", [wire._LENGTH.pack(7) + b"\xfe" * 7]),
    # valid frame body that is not a routing tuple — decodes fine, but
    # must not crash the reader on unpacking
    ("binary", [wire.frame(("not", "routable"))]),
    ("json", [codec.frame(("not", "routable"))]),
])
def test_tcp_bad_frames_are_isolated_under_either_codec(
        wire_name, rogue_frames):
    """Garbage with intact framing is counted (net.bad_frame) and skipped;
    well-formed traffic on the same connection still arrives."""
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory, wire=wire_name)
    host_b = TcpTransport(aloop, directory=directory, wire=wire_name)
    a = Probe("a")
    b = Probe("b")
    host_a.register(a)
    host_b.register(b)
    mod = get_codec(wire_name)

    async def scenario():
        await host_a.start()
        await host_b.start()
        _, writer = await asyncio.open_connection("127.0.0.1", host_b.port)
        # bad frame(s) followed by a good one in the same burst
        for rogue in rogue_frames:
            writer.write(rogue)
        writer.write(mod.frame_route("a", "b", ("good", 1)))
        await writer.drain()
        for _ in range(500):
            if b.got:
                break
            await asyncio.sleep(0.01)
        writer.close()

    try:
        aloop.run_until_complete(scenario())
        assert host_b.monitor.counters["net.bad_frame"] >= 1
        assert b.got == [("a", ("good", 1))]
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_tcp_oversized_prefix_drops_connection_but_not_listener():
    """A corrupt length prefix cannot be resynced: the connection is
    dropped (counted), yet the listener keeps serving fresh sockets."""
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory, wire="binary")
    host_b = TcpTransport(aloop, directory=directory, wire="binary")
    a = Probe("a")
    b = Probe("b")
    host_a.register(a)
    host_b.register(b)

    async def scenario():
        await host_a.start()
        await host_b.start()
        _, writer = await asyncio.open_connection("127.0.0.1", host_b.port)
        writer.write(wire._LENGTH.pack(wire.MAX_FRAME + 1) + b"junk")
        await writer.drain()
        for _ in range(200):
            if host_b.monitor.counters.get("net.bad_frame"):
                break
            await asyncio.sleep(0.01)
        writer.close()
        host_a.send("a", "b", ("alive",))
        for _ in range(500):
            if b.got:
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert host_b.monitor.counters["net.bad_frame"] >= 1
        assert b.got == [("a", ("alive",))]
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()
