"""Batch MAC vectors: one body digest, one cheap HMAC per link."""

from __future__ import annotations

from repro.bcast.messages import Propose, Request
from repro.crypto import cache as _cache
from repro.crypto.keys import KeyRegistry
from repro.crypto.mac import mac_vector, verify_mac_vector
from repro.crypto.signatures import Signature


def batch(seq: int = 0) -> Propose:
    reqs = tuple(
        Request("g1", f"c{i}", seq, ("put", f"k{i}", i),
                Signature(f"c{i}", bytes(4)))
        for i in range(4))
    return Propose("g1", 0, seq, reqs, "g1/r0")


class TestMacVector:
    def test_every_destination_verifies_its_own_entry(self):
        registry = KeyRegistry()
        obj = batch()
        dsts = ["g1/r1", "g1/r2", "g1/r3"]
        vector = mac_vector(registry, "g1/r0", dsts, obj)
        assert set(vector) == set(dsts)
        for dst in dsts:
            assert verify_mac_vector(registry, "g1/r0", dst, obj, vector)

    def test_tags_are_per_link_distinct(self):
        registry = KeyRegistry()
        vector = mac_vector(registry, "g1/r0", ["g1/r1", "g1/r2"], batch())
        assert vector["g1/r1"] != vector["g1/r2"]
        assert all(len(tag) == 16 for tag in vector.values())

    def test_missing_entry_rejected(self):
        registry = KeyRegistry()
        obj = batch()
        vector = mac_vector(registry, "g1/r0", ["g1/r1"], obj)
        assert not verify_mac_vector(registry, "g1/r0", "g1/r2", obj, vector)
        assert not verify_mac_vector(registry, "g1/r0", "g1/r2", obj, {})

    def test_tampered_batch_rejected(self):
        registry = KeyRegistry()
        obj = batch(seq=1)
        vector = mac_vector(registry, "g1/r0", ["g1/r1"], obj)
        assert not verify_mac_vector(
            registry, "g1/r0", "g1/r1", batch(seq=2), vector)

    def test_swapped_link_tag_rejected(self):
        # A tag minted for one link must not verify on another: the
        # pairwise channel keys are independent.
        registry = KeyRegistry()
        obj = batch()
        vector = mac_vector(registry, "g1/r0", ["g1/r1", "g1/r2"], obj)
        forged = {"g1/r1": vector["g1/r2"]}
        assert not verify_mac_vector(registry, "g1/r0", "g1/r1", obj, forged)

    def test_wrong_claimed_sender_rejected(self):
        registry = KeyRegistry()
        obj = batch()
        vector = mac_vector(registry, "g1/r0", ["g1/r1"], obj)
        assert not verify_mac_vector(registry, "g1/r9", "g1/r1", obj, vector)

    def test_body_digest_amortised_across_links(self):
        """The batch is walked and digested once for the whole vector:
        every link after the first rides the digest memoised on it."""
        _cache.configure(True)
        registry = KeyRegistry()
        obj = batch()
        mac_vector(registry, "g1/r0", [f"g1/r{i}" for i in range(1, 8)], obj)
        after = _cache.cache_stats()
        assert after["digest"]["misses"] == 1
        # one walk: the Propose, its 4 requests and their 4 signatures
        assert after["canonical"] == {"hits": 0, "misses": 9, "size": 9}
        # a second vector over the same object digests nothing new
        mac_vector(registry, "g1/r0", ["g1/r8"], obj)
        final = _cache.cache_stats()
        assert final["digest"]["misses"] == 1
        assert final["digest"]["hits"] == 1
        assert final["canonical"] == after["canonical"]

    def test_receiver_authenticates_the_bytes_that_arrived(self):
        """A decoded batch carries its wire bytes, so checking its tag and
        digesting its requests walks nothing."""
        from repro.crypto.digest import digest
        from repro.env import wire

        registry = KeyRegistry()
        obj = batch()
        vector = mac_vector(registry, "g1/r0", ["g1/r1"], obj)
        body = wire.encode((obj, vector))
        _cache.configure(True)
        received, received_vector = wire.decode(body)
        assert verify_mac_vector(
            registry, "g1/r0", "g1/r1", received, received_vector)
        assert digest(received.batch) == digest(obj.batch)
        assert _cache.cache_stats()["canonical"]["misses"] == 0

    def test_vector_survives_wire_roundtrip(self):
        # The vector is a plain {str: bytes} dict — it rides in message
        # payloads under either codec.
        from repro.env import codec, wire

        registry = KeyRegistry()
        obj = batch()
        vector = mac_vector(registry, "g1/r0", ["g1/r1"], obj)
        for mod in (codec, wire):
            decoded_obj, decoded_vec = mod.decode(mod.encode((obj, vector)))
            assert verify_mac_vector(
                registry, "g1/r0", "g1/r1", decoded_obj, decoded_vec)
