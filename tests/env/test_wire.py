"""The binary wire codec: roundtrips, strictness, TCP parity with JSON."""

from __future__ import annotations

import asyncio
import dataclasses
import struct

import pytest

from repro.bcast.messages import Accept, Propose, Reply, Request
from repro.core.messages import RelayBatch, WireMulticast
from repro.crypto.signatures import Signature
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
    wired = WireMulticast.from_message(message, signature)
    decoded = roundtrip(wired)
    assert decoded == wired
    assert decoded.to_message() == message
    relay = Request("g1", "h1/r0", 2, RelayBatch((wired, wired)), signature)
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


def test_binary_encode_is_memoised_by_identity():
    from repro.crypto import cache as _cache

    _cache.configure(True)
    _cache.clear_caches()
    request = Request("g1", "c1", 9, ("op",), Signature("c1", b"\x03"))
    first = wire.encode(request)
    assert wire.encode(request) is first
    assert _cache.cache_stats()["wire_encode"]["hits"] >= 1


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
