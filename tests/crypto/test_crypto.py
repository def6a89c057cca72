"""Unit tests for the cryptographic substrate."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.crypto.digest import canonical_bytes, digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.mac import mac, verify_mac
from repro.crypto.signatures import Signature, sign, verify
from repro.errors import CryptoError


class TestCanonicalBytes:
    def test_primitive_types_distinct(self):
        values = [None, True, False, 0, 1, "1", b"1", 1.0, (), (1,), frozenset()]
        forms = [canonical_bytes(v) for v in values]
        assert len(set(forms)) == len(forms)

    def test_sets_order_independent(self):
        assert canonical_bytes({1, 2, 3}) == canonical_bytes({3, 1, 2})
        assert canonical_bytes(frozenset("ab")) == canonical_bytes(frozenset("ba"))

    def test_dicts_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_tuples_and_lists_distinct_and_ordered(self):
        """The canonical form is the wire form, and a peer decodes ``[1, 2]``
        and ``(1, 2)`` as different values: they must not share a digest."""
        assert canonical_bytes([1, 2]) != canonical_bytes((1, 2))
        assert canonical_bytes((1, 2)) != canonical_bytes((2, 1))
        assert canonical_bytes([1, 2]) == canonical_bytes([1, 2])

    def test_nested_structures(self):
        a = canonical_bytes({"k": [1, (2, frozenset({"x"}))]})
        b = canonical_bytes({"k": [1, (2, frozenset({"x"}))]})
        assert a == b

    def test_sets_and_dicts_need_no_comparable_items(self):
        mixed = frozenset({1, "a", b"b", (2,), None})
        assert canonical_bytes(mixed) == canonical_bytes(frozenset(mixed))
        assert canonical_bytes({1: "x", "k": 2}) == canonical_bytes(
            {"k": 2, 1: "x"})

    def test_canonical_form_is_the_wire_body(self):
        from repro.bcast.messages import Request
        from repro.env import wire

        request = Request("g1", "c1", 4, ("put", "k", {"a": frozenset("xy")}),
                          Signature("c1", b"tag"))
        for value in (request, (request, [1.5, None, True]), 2**70):
            assert canonical_bytes(value) == wire.encode(value)

    def test_unregistered_dataclass_digests_but_stays_off_the_wire(self):
        from repro.bcast.messages import Request
        from repro.canonical import MEMO
        from repro.env import wire
        from repro.errors import NetworkError

        @dataclass(frozen=True)
        class Point:
            x: int
            y: int

        @dataclass(frozen=True)
        class Pair:
            x: int
            y: int

        assert canonical_bytes(Point(1, 2)) == canonical_bytes(Point(1, 2))
        assert canonical_bytes(Point(1, 2)) != canonical_bytes(Point(2, 1))
        assert canonical_bytes(Point(1, 2)) != canonical_bytes(Pair(1, 2))
        assert canonical_bytes(Point(1, 2)) != canonical_bytes((1, 2))
        # Signing a request that carries one works; its bytes are never
        # memoised, so the codec still refuses it however it is wrapped.
        request = Request("g1", "c1", 0, ("move", Point(1, 2)))
        assert digest(request) == digest(
            Request("g1", "c1", 0, ("move", Point(1, 2))))
        assert MEMO not in request.__dict__
        for value in (Point(1, 2), request, (request,), {"k": [request]}):
            with pytest.raises(NetworkError, match="Point"):
                wire.encode(value)

    def test_subclasses_encode_as_their_base_type(self):
        import enum
        from typing import NamedTuple

        class Colour(enum.IntEnum):
            RED = 1

        class Pair(NamedTuple):
            a: int
            b: int

        assert canonical_bytes(Colour.RED) == canonical_bytes(1)
        assert canonical_bytes(Pair(1, 2)) == canonical_bytes((1, 2))

    def test_unsupported_type_raises(self):
        for value in (object(), (1, object()), {"k": {2: object()}}, Signature):
            with pytest.raises(CryptoError):
                canonical_bytes(value)
        with pytest.raises(CryptoError):
            digest(lambda: None)

    def test_digest_is_16_bytes_and_stable(self):
        assert len(digest(("a", 1))) == 16
        assert digest(("a", 1)) == digest(("a", 1))
        assert digest(("a", 1)) != digest(("a", 2))


class TestKeysAndSignatures:
    def test_secret_deterministic_per_identity(self):
        r1, r2 = KeyRegistry(), KeyRegistry()
        assert r1.secret("p") == r2.secret("p")
        assert r1.secret("p") != r1.secret("q")

    def test_sign_verify_roundtrip(self):
        registry = KeyRegistry()
        sig = sign(registry, "alice", ("msg", 1))
        assert verify(registry, ("msg", 1), sig)

    def test_verify_fails_on_tampered_object(self):
        registry = KeyRegistry()
        sig = sign(registry, "alice", ("msg", 1))
        assert not verify(registry, ("msg", 2), sig)

    def test_verify_fails_on_wrong_claimed_signer(self):
        registry = KeyRegistry()
        sig = sign(registry, "alice", ("msg", 1))
        forged = Signature(signer="bob", tag=sig.tag)
        assert not verify(registry, ("msg", 1), forged)

    def test_cannot_forge_without_key(self):
        registry = KeyRegistry()
        forged = Signature(signer="alice", tag=b"\x00" * 16)
        assert not verify(registry, ("msg", 1), forged)


class TestMacs:
    def test_mac_roundtrip_and_symmetry(self):
        registry = KeyRegistry()
        tag = mac(registry, "a", "b", ("data",))
        assert verify_mac(registry, "a", "b", ("data",), tag)
        assert verify_mac(registry, "b", "a", ("data",), tag)  # pairwise key

    def test_mac_rejects_tampering(self):
        registry = KeyRegistry()
        tag = mac(registry, "a", "b", ("data",))
        assert not verify_mac(registry, "a", "b", ("other",), tag)
        assert not verify_mac(registry, "a", "c", ("data",), tag)
