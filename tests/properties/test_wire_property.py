"""Property: both wire codecs are lossless inverses over message values.

``decode(encode(x)) == x`` must hold for every value either codec can
carry — arbitrary nestings of the scalar/container vocabulary and the
registered protocol dataclasses — and arbitrary *bytes* fed to the binary
decoder must either decode or raise :class:`NetworkError`, never anything
else (the transport maps NetworkError to ``net.bad_frame`` isolation; any
other exception would crash the reader task).

The binary body is also the canonical byte form that is digested and
signed, and decoding seeds each message's memo with the bytes it came
from.  So the binary decoder must accept canonical encodings *only*:
``encode(decode(b)) == b`` for every ``b`` it accepts, and every seeded
memo equals a memo-free re-encoding of the object it sits on and is a
read-only view of the body it was decoded from.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.bcast.messages import Accept, Heartbeat, Propose, Reply, Request
from repro.canonical import MEMO
from repro.crypto.cache import caching_disabled
from repro.crypto.signatures import Signature
from repro.env import codec, wire
from repro.errors import NetworkError

CODECS = [codec, wire]

names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),                       # includes beyond-int64 bigints
    st.floats(allow_nan=False),          # NaN != NaN, trivially not a rt
    names,
    st.binary(max_size=64),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        # sets are serialized sorted, so elements must be mutually
        # comparable — the codecs document "protocol sets hold
        # comparable strings" (group-name destination sets)
        st.one_of(st.lists(names, max_size=4),
                  st.lists(st.integers(), max_size=4)).map(frozenset),
        st.dictionaries(
            st.one_of(st.integers(), names), children, max_size=4),
    ),
    max_leaves=12,
)

signatures = st.builds(Signature, signer=names, tag=st.binary(max_size=16))
requests = st.builds(
    Request, group=names, sender=names, seq=st.integers(min_value=0),
    command=st.tuples(names, values), signature=signatures)
messages = st.one_of(
    signatures,
    requests,
    st.builds(Accept, group=names, regency=st.integers(min_value=0),
              cid=st.integers(min_value=0), digest=st.binary(max_size=16),
              sender=names),
    st.builds(Reply, group=names, sender=names, req_sender=names,
              req_seq=st.integers(min_value=0), result=st.tuples(values)),
    st.builds(Heartbeat, group=names, regency=st.integers(min_value=0),
              next_cid=st.integers(min_value=0), sender=names),
    st.builds(Propose, group=names, regency=st.integers(min_value=0),
              cid=st.integers(min_value=0),
              batch=st.lists(requests, max_size=3).map(tuple),
              leader=names),
)


@pytest.mark.parametrize("mod", CODECS, ids=["json", "binary"])
@given(value=values)
@settings(max_examples=60, deadline=None)
def test_value_roundtrip(mod, value):
    assert mod.decode(mod.encode(value)) == value


@pytest.mark.parametrize("mod", CODECS, ids=["json", "binary"])
@given(message=messages)
@settings(max_examples=60, deadline=None)
def test_registered_message_roundtrip(mod, message):
    assert mod.decode(mod.encode(message)) == message


@pytest.mark.parametrize("mod", CODECS, ids=["json", "binary"])
@given(message=messages, src=names, dst=names)
@settings(max_examples=30, deadline=None)
def test_frame_route_parts_splice_to_the_generic_frame(mod, message, src, dst):
    parts = mod.frame_route_parts(src, dst, message)
    assert b"".join(parts) == mod.frame((src, dst, message))


@given(data=st.binary(max_size=200))
@settings(max_examples=120, deadline=None)
def test_binary_decoder_never_crashes_on_arbitrary_bytes(data):
    try:
        wire.decode(data)
    except NetworkError:
        pass  # the one failure mode the transport isolates


@given(data=st.binary(max_size=200))
@settings(max_examples=60, deadline=None)
def test_json_decoder_never_crashes_on_arbitrary_bytes(data):
    try:
        codec.decode(data)
    except NetworkError:
        pass


# -- the binary body is the canonical form ----------------------------------------

#: what only the binary codec carries: sets and dict keys of mixed,
#: mutually incomparable types (ordered by encoded bytes, not by value)
mixed_sets = st.lists(
    st.one_of(st.none(), st.integers(), names, st.binary(max_size=8),
              st.tuples(st.integers(), names)),
    max_size=5).map(frozenset)
mixed_dicts = st.dictionaries(
    st.one_of(st.integers(), names, st.binary(max_size=8),
              st.tuples(names, st.integers())),
    values, max_size=4)
canonical_values = st.one_of(values, messages, mixed_sets, mixed_dicts,
                             st.tuples(messages, mixed_sets, mixed_dicts))


def reencoded(value) -> bytes:
    """``wire.encode`` that neither reads nor writes a memo."""
    with caching_disabled():
        return wire.encode(value)


def dataclasses_in(value):
    if dataclasses.is_dataclass(value):
        yield value
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = [*value, *value.values()]
    if isinstance(value, (tuple, list, frozenset)):
        for item in value:
            yield from dataclasses_in(item)


@given(value=canonical_values)
@settings(max_examples=150, deadline=None)
def test_binary_roundtrip_is_exact_in_both_directions(value):
    body = reencoded(value)
    decoded = wire.decode(body)
    assert decoded == value
    assert reencoded(decoded) == body
    # insertion and iteration order never reach the bytes
    if isinstance(value, dict):
        assert reencoded(dict(reversed(list(value.items())))) == body


@given(value=canonical_values)
@settings(max_examples=150, deadline=None)
def test_every_seeded_memo_is_what_encoding_would_produce(value):
    body = reencoded(value)
    decoded = wire.decode(body)
    found = list(dataclasses_in(decoded))
    assert len(found) == len(list(dataclasses_in(value)))
    for message in found:
        memo = message.__dict__[MEMO]
        assert memo == reencoded(message)
        # a read-only view into the one frame body, not a copy of a slice
        assert type(memo) is memoryview and memo.readonly
        assert memo.obj is body
    assert wire.encode(decoded) == body                 # memos spliced


@given(value=canonical_values, position=st.integers(min_value=0),
       byte=st.integers(min_value=0, max_value=255))
@settings(max_examples=400, deadline=None)
def test_binary_decoder_accepts_canonical_encodings_only(
        value, position, byte):
    """Whatever a corrupted body still decodes to, encoding that yields the
    corrupted body again — so no two byte strings decode to equal values,
    and a seeded memo can never differ from the sender-side encoding."""
    body = bytearray(reencoded(value))
    body[position % len(body)] = byte
    body = bytes(body)
    try:
        decoded = wire.decode(body)
    except NetworkError:
        return
    assert reencoded(decoded) == body
    for message in dataclasses_in(decoded):
        assert message.__dict__[MEMO] == reencoded(message)
