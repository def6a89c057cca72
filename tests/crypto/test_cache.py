"""Unit tests for the memoisation layer: identity LRUs and on-object memos."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bcast.messages import Propose, Request
from repro.canonical import DIGEST_MEMO, MEMO
from repro.crypto import cache as cache_mod
from repro.crypto.cache import IdentityCache, caching_disabled
from repro.crypto.digest import canonical_bytes, digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import (
    VERDICT_MEMO, Signature, sign, verify, verify_signed)


@pytest.fixture(autouse=True)
def _fresh_caches():
    cache_mod.clear_caches()
    yield
    cache_mod.configure(True)


class TestIdentityCache:
    def test_get_put_roundtrip(self):
        cache = IdentityCache(maxsize=4)
        obj = ("a", 1)
        assert cache.get(obj) is None
        cache.put(obj, b"value")
        assert cache.get(obj) == b"value"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_identity_not_equality(self):
        """Equal-but-distinct objects never share an entry."""
        cache = IdentityCache(maxsize=4)
        a = (1, 2)
        b = tuple([1, 2])  # same value, distinct object (no constant folding)
        assert a == b and a is not b
        cache.put(a, "for-a")
        assert cache.get(b) is None

    def test_lru_eviction_order(self):
        cache = IdentityCache(maxsize=2)
        x, y, z = ("x",), ("y",), ("z",)
        cache.put(x, 1)
        cache.put(y, 2)
        cache.get(x)       # refresh x: y is now least-recent
        cache.put(z, 3)    # evicts y
        assert cache.get(x) == 1
        assert cache.get(y) is None
        assert cache.get(z) == 3
        assert len(cache) == 2

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            IdentityCache(maxsize=0)

    def test_clear_resets_counters(self):
        cache = IdentityCache(maxsize=4)
        obj = ("a",)
        cache.put(obj, 1)
        cache.get(obj)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
        assert cache.get(obj) is None


def _request(seq: int = 0) -> Request:
    return Request("g1", "c1", seq, ("put", "k", b"v"), Signature("c1", b"t"))


def _stats(name: str) -> dict:
    return cache_mod.cache_stats()[name]


class TestMessageMemo:
    def test_canonical_bytes_live_on_the_object(self):
        request = _request()
        first = canonical_bytes(request)
        assert request.__dict__[MEMO] is first
        assert _stats("canonical")["misses"] == 2    # request + signature
        assert canonical_bytes(request) is first
        assert _stats("canonical")["hits"] == 1
        assert _stats("canonical")["size"] == 2

    def test_memo_is_per_nesting_depth(self):
        """A container's bytes are spliced from its members' memos."""
        requests = tuple(_request(i) for i in range(3))
        for request in requests:
            canonical_bytes(request)
        misses = _stats("canonical")["misses"]
        proposal = Propose("g1", 0, 0, requests, "g1/r0")
        body = canonical_bytes(proposal)
        assert _stats("canonical")["misses"] == misses + 1   # the Propose
        for request in requests:
            assert request.__dict__[MEMO] in body
        # a bare tuple has nowhere to keep a memo, but its members do
        before = _stats("canonical")
        digest(requests)
        after = _stats("canonical")
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 3

    def test_memo_ignores_equality_and_replace(self):
        """The memo is not a field: equal objects compare equal with or
        without it, and a copy with a changed field starts without one."""
        request = _request()
        canonical_bytes(request)
        assert request == _request()
        assert hash(request) == hash(_request())
        assert MEMO not in repr(request)
        changed = dataclasses.replace(request, seq=9)
        assert MEMO not in changed.__dict__
        assert canonical_bytes(changed) != canonical_bytes(request)

    def test_digest_memo_beside_the_bytes(self):
        request = _request()
        value = digest(request)
        assert request.__dict__[DIGEST_MEMO] is value
        assert _stats("digest") == {"hits": 0, "misses": 1, "size": 1}
        assert digest(request) is value
        assert _stats("digest")["hits"] == 1

    def test_mutable_and_slotted_dataclasses_are_never_memoised(self):
        @dataclasses.dataclass
        class Mutable:
            x: int

        @dataclasses.dataclass(frozen=True, slots=True)
        class Slotted:
            x: int

        obj = Mutable(1)
        stale = canonical_bytes(obj)
        digest(obj)
        assert MEMO not in obj.__dict__ and DIGEST_MEMO not in obj.__dict__
        obj.x = 2
        assert canonical_bytes(obj) != stale
        assert canonical_bytes(Slotted(1)) == canonical_bytes(Slotted(1))
        assert _stats("canonical")["size"] == 0

    def test_value_equal_objects_not_conflated(self):
        """1 == 1.0 == True, but their canonical forms must differ."""
        assert canonical_bytes((1,)) != canonical_bytes((1.0,))
        assert canonical_bytes((1,)) != canonical_bytes((True,))

    def test_digest_stable_across_cache_states(self):
        request = _request()
        with caching_disabled():
            uncached = digest(request)
            assert MEMO not in request.__dict__
        assert digest(request) == uncached
        assert digest(request) == uncached  # second call served from the memo

    def test_caching_disabled_neither_reads_nor_writes_memos(self):
        request = _request()
        canonical_bytes(request)
        with caching_disabled():
            assert not cache_mod.enabled()
            # a planted memo would be returned if it were read
            request.__dict__[MEMO] = b"stale"
            assert canonical_bytes(request) == canonical_bytes(_request())
            assert digest(request) == digest(_request())
            assert request.__dict__[MEMO] == b"stale"
            assert DIGEST_MEMO not in request.__dict__
            assert _stats("canonical") == {"hits": 0, "misses": 0, "size": 0}
        assert cache_mod.enabled()

    def test_verify_verdict_not_shared_across_registries(self):
        """Two registries with different master seeds must not share verdicts."""
        reg_a = KeyRegistry(master_seed=b"seed-a")
        reg_b = KeyRegistry(master_seed=b"seed-b")
        payload = ("vote", 1)
        signature = sign(reg_a, "p1", payload)
        assert verify(reg_a, payload, signature)
        assert not verify(reg_b, payload, signature)
        # repeat in the other order: nothing is kept between checks
        assert not verify(reg_b, payload, signature)
        assert verify(reg_a, payload, signature)

    def test_cache_stats_shape(self):
        stats = cache_mod.cache_stats()
        assert set(stats) == {"canonical", "digest", "verify", "encode"}
        for entry in stats.values():
            assert set(entry) == {"hits", "misses", "size"}
            assert all(type(v) is int for v in entry.values())


class TestSignOnce:
    """A multicast is signed once, as the request that submits it; the
    signed request keeps the canonical bytes its signature covers, so the
    receivers tag the bytes the signer walked — and the signature costs one
    tag to make and one to check."""

    def test_signed_copy_keeps_the_signed_tuple(self):
        from repro.core.messages import WireMulticast
        from repro.types import ClientId, MessageId, MulticastMessage

        registry = KeyRegistry()
        message = MulticastMessage(MessageId(ClientId("c1"), 1),
                                   frozenset({"g1"}), ("x",))
        wire = WireMulticast.from_message(message)
        assert wire.to_message() is message
        unsigned = Request("g1", "c1", 1, wire)
        request = unsigned.with_signature(
            sign(registry, "c1", unsigned.signed_part()))
        assert request.signed_part() is unsigned.signed_part()
        assert request == Request("g1", "c1", 1, wire, request.signature)
        assert verify(registry, request.signed_part(), request.signature)

    def test_a_local_multicast_costs_one_tag_per_signature(
            self, monkeypatch):
        from repro import ByzCastDeployment, OverlayTree, destination
        from repro.crypto import signatures

        tags = []
        tag = signatures._tag
        monkeypatch.setattr(signatures, "_tag", lambda *args: (
            tags.append(args[1]), tag(*args))[1])
        deployment = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]))
        client = deployment.add_client("c1")
        cache_mod.clear_caches()
        client.amulticast(destination("g1"), payload=("x",))
        deployment.run(until=2.0)
        assert len(client.completions) == 1
        # the client's Request signature, the multicast's only one: made
        # by one tag and checked by one tag, whose verdict every later
        # check of the shared request (admission and proposal validation
        # at all four replicas) reads from the request
        assert tags == ["c1"] * 2      # one signed, one verified
        assert _stats("verify") == {"hits": 0, "misses": 0, "size": 0}

    def test_a_local_multicast_walks_each_signed_tuple_once(
            self, monkeypatch):
        """The signer encodes the request's tuple, the wire inside it
        included; the check of the signed copy tags the bytes the copy was
        handed, and walks nothing."""
        from repro import ByzCastDeployment, OverlayTree, destination
        from repro.crypto import signatures

        walked = []
        encode = signatures.canonical_bytes

        def counted(obj):
            if type(obj) is tuple and obj[0] in ("req", "amcast"):
                walked.append(obj[0])
            return encode(obj)

        monkeypatch.setattr(signatures, "canonical_bytes", counted)
        deployment = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]))
        client = deployment.add_client("c1")
        client.amulticast(destination("g1"), payload=("x",))
        deployment.run(until=2.0)
        assert len(client.completions) == 1
        assert walked == ["req"]


class TestVerdictMemo:
    """A signature check's verdict lives on the signed message."""

    @staticmethod
    def _signed(registry, seq=1, signer="c1"):
        unsigned = Request("g1", "c1", seq, ("put", "k", 1))
        return unsigned.with_signature(
            sign(registry, signer, unsigned.signed_part()))

    def test_a_repeated_check_is_one_lookup(self, monkeypatch):
        from repro.crypto import signatures

        registry = KeyRegistry()
        request = self._signed(registry)
        calls = []
        real = signatures.verify
        monkeypatch.setattr(signatures, "verify", lambda *args: (
            calls.append(args), real(*args))[1])
        assert all(verify_signed(registry, request) for __ in range(5))
        assert len(calls) == 1
        assert request.__dict__[VERDICT_MEMO] == (registry, True)

    def test_a_verdict_never_answers_for_another_registry(self):
        reg_a = KeyRegistry(master_seed=b"seed-a")
        reg_b = KeyRegistry(master_seed=b"seed-b")
        request = self._signed(reg_a)
        assert verify_signed(reg_a, request)
        assert not verify_signed(reg_b, request)
        assert verify_signed(reg_a, request)
        # equal seeds, distinct registry objects: checked afresh, same answer
        twin = KeyRegistry(master_seed=b"seed-a")
        assert verify_signed(twin, request)
        assert request.__dict__[VERDICT_MEMO][0] is twin

    def test_a_forgery_is_rejected_after_a_valid_copy_was_memoised(self):
        registry = KeyRegistry()
        honest = self._signed(registry)
        assert verify_signed(registry, honest)
        forged = honest.with_signature(Signature("c1", bytes(16)))
        assert forged.signed_part() is honest.signed_part()
        assert not verify_signed(registry, forged)
        assert not verify_signed(registry, forged)    # the memoised failure
        impostor = self._signed(registry, signer="c2")
        assert not verify_signed(registry, dataclasses.replace(
            impostor, signature=Signature("c1", impostor.signature.tag)))

    def test_decoded_messages_carry_no_verdict(self):
        from repro.core.messages import WireMulticast
        from repro.env import wire

        registry = KeyRegistry()
        request = self._signed(registry)
        bare = Request("g1", "c1", 2, WireMulticast("c1", 1, ("g1",), ("x",)))
        multicast = bare.with_signature(
            sign(registry, "c1", bare.signed_part()))
        for message in (request, multicast):
            assert verify_signed(registry, message)
            copy = wire.decode(wire.encode(message))
            assert copy == message
            assert VERDICT_MEMO not in copy.__dict__
            assert verify_signed(registry, copy)

    def test_caching_disabled_neither_reads_nor_writes_the_verdict(self):
        registry = KeyRegistry()
        request = self._signed(registry)
        forged = request.with_signature(Signature("c1", bytes(16)))
        with caching_disabled():
            # a planted verdict would be returned if it were read
            forged.__dict__[VERDICT_MEMO] = (registry, True)
            assert not verify_signed(registry, forged)
            assert verify_signed(registry, request)
            assert VERDICT_MEMO not in request.__dict__

    def test_every_failed_check_is_recorded(self):
        from tests.helpers import Harness

        h = Harness()
        replica = h.group.replicas[0]
        forged = self._signed(h.registry).with_signature(
            Signature("c1", bytes(16)))
        for __ in range(3):
            replica._handle_request("c1", forged)
        assert h.monitor.counters["request.bad_signature"] == 3
        assert len(replica.pool) == 0
