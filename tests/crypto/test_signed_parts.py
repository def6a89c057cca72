"""What a signature covers: a signed message's canonical bytes, memoised.

``Request.signed_part()`` is the canonical bytes of the tuple the
signature covers, kept on the request and handed to its signed copy; a
multicast is signed only as the command of the request that submits it.  These tests pin what makes that memo safe: it
always equals the bytes of the message's own fields, a message that
arrives over a socket or is rebuilt carries none and encodes its fields,
a changed field never verifies under the original signature, and the
memos step aside under ``caching_disabled()``.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.bcast.messages import BATCH_DIGEST_MEMO, Propose, Request
from repro.core.messages import WireMulticast
from repro.crypto.cache import caching_disabled
from repro.crypto.digest import canonical_bytes, digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import (
    SIGNED_MEMO, VERDICT_MEMO, sign, verify, verify_signed)
from repro.env.tcp import TcpTransport

REGISTRY = KeyRegistry()

names = st.text(min_size=1, max_size=6)
seqs = st.integers(min_value=0, max_value=2**63 - 1)
leaves = st.one_of(st.none(), st.booleans(), st.integers(), names,
                   st.binary(max_size=8))
values = st.recursive(leaves, lambda inner: st.tuples(inner, inner),
                      max_leaves=6)


def wire_of(sender="c1", seq=1, dst=("g1", "g2"), payload=("x",)):
    return WireMulticast(sender, seq, tuple(sorted(dst)), payload)


def signed_request(command, sender="c1", seq=1, group="g1"):
    bare = Request(group, sender, seq, command)
    return bare.with_signature(sign(REGISTRY, sender, bare.signed_part()))


def fields_of(message):
    """The tuple ``message``'s signature covers, built from its fields."""
    return ("req", message.group, message.sender, message.seq,
            message.command)


@given(sender=names, seq=seqs, dst=st.lists(names, min_size=1, max_size=3),
       payload=st.tuples(values, values), group=names, relayed=st.booleans())
def test_the_memo_is_the_canonical_form_of_the_signed_tuple(
        sender, seq, dst, payload, group, relayed):
    command = wire_of(sender, seq, dst, payload) if relayed else payload
    request = signed_request(command, sender, seq, group)
    with caching_disabled():
        walked = canonical_bytes(fields_of(request))
    part = request.signed_part()
    assert part == walked and type(part) is bytes
    assert request.__dict__[SIGNED_MEMO] is part
    # the tuple and its bytes are one signature
    assert sign(REGISTRY, sender, fields_of(request)) == request.signature
    assert verify_signed(REGISTRY, request)


@pytest.mark.parametrize("field, value", [
    ("group", "g2"), ("sender", "c2"), ("seq", 2), ("command", ("y",))])
def test_a_request_with_a_field_changed_is_refused(field, value):
    honest = signed_request(("x",))
    assert verify_signed(REGISTRY, honest)
    tampered = dataclasses.replace(honest, **{field: value})
    assert SIGNED_MEMO not in tampered.__dict__
    assert not verify_signed(REGISTRY, tampered)
    assert not verify(REGISTRY, tampered.signed_part(), honest.signature)


@pytest.mark.parametrize("field, value", [
    ("sender", "c2"), ("seq", 2), ("dst", ("g1",)), ("payload", ("y",))])
def test_a_multicast_with_a_field_changed_is_refused(field, value):
    """The request's signature covers the multicast it carries."""
    honest = signed_request(wire_of())
    assert verify_signed(REGISTRY, honest)
    tampered = dataclasses.replace(honest, command=dataclasses.replace(
        honest.command, **{field: value}))
    assert SIGNED_MEMO not in tampered.__dict__
    assert not verify_signed(REGISTRY, tampered)


class Probe:
    def __init__(self, name):
        self.name = name
        self.network = None
        self.got = []

    def receive(self, src, payload):
        self.got.append(payload)


@pytest.mark.parametrize("wire_name", ["binary", "json"])
def test_a_signed_message_over_tcp_verifies_from_its_fields(wire_name):
    """What arrives is decoded, not shared: no signed-part memo, no
    verdict, and the check encodes the fields it came with — so the
    honest messages verify and the tampered copies do not."""
    wire = wire_of()
    request = signed_request(wire)
    sent = [request,
            dataclasses.replace(request, seq=2),
            dataclasses.replace(request, command=dataclasses.replace(
                wire, payload=("y",))),
            dataclasses.replace(request, command=dataclasses.replace(
                wire, dst=("g1",)))]
    assert SIGNED_MEMO in request.__dict__
    aloop = asyncio.new_event_loop()
    directory = {}
    host_a = TcpTransport(aloop, directory=directory, wire=wire_name)
    host_b = TcpTransport(aloop, directory=directory, wire=wire_name)
    a, b = Probe("a"), Probe("b")
    host_a.register(a)
    host_b.register(b)

    async def scenario():
        await host_a.start()
        await host_b.start()
        for message in sent:
            host_a.send("a", "b", message)
        for _ in range(500):
            if len(b.got) == len(sent):
                break
            await asyncio.sleep(0.01)

    try:
        aloop.run_until_complete(scenario())
        assert b.got == sent
        for got in b.got:
            assert SIGNED_MEMO not in got.__dict__
            assert VERDICT_MEMO not in got.__dict__
        # the last two requests' signature covers the wire they carried
        assert [verify_signed(REGISTRY, got) for got in b.got] == [
            True, False, False, False]
        assert b.got[0].command == wire
    finally:
        host_a.shutdown()
        host_b.shutdown()
        aloop.run_until_complete(asyncio.sleep(0.05))
        aloop.close()


def test_caching_disabled_neither_reads_nor_writes_the_new_memos():
    request = signed_request(wire_of())
    planted = b"planted"
    proposal = Propose("g1", 0, 1, (request,), "g1/r0")
    with caching_disabled():
        bare = Request("g1", "c1", 1, ("x",))
        part = bare.signed_part()
        assert SIGNED_MEMO not in bare.__dict__
        signed = bare.with_signature(sign(REGISTRY, "c1", part))
        assert SIGNED_MEMO not in signed.__dict__
        request.__dict__[SIGNED_MEMO] = planted
        assert request.signed_part() == canonical_bytes(fields_of(request))
        assert proposal.batch_digest() == digest(proposal.batch)
        assert BATCH_DIGEST_MEMO not in proposal.__dict__
        proposal.__dict__[BATCH_DIGEST_MEMO] = planted
        assert proposal.batch_digest() == digest(proposal.batch)
    assert request.signed_part() is planted
    assert proposal.batch_digest() is planted


def test_a_proposal_digests_its_batch_once():
    proposal = Propose("g1", 0, 1, (signed_request(("x",)),), "g1/r0")
    first = proposal.batch_digest()
    assert first == digest(proposal.batch)
    assert proposal.batch_digest() is first
    assert dataclasses.replace(proposal).batch_digest() == first

