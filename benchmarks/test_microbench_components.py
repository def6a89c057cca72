"""Micro-benchmarks of the pure components (regression tracking).

These are conventional per-operation benchmarks (many rounds, statistical
timing) for the hot paths of the library: canonicalization/digests, the
f+1 relay ballot, overlay-tree queries, consensus vote counting, and the
event loop itself.  They carry no paper assertions — they exist so a
change that slows a hot path by an order of magnitude is visible.
"""

from __future__ import annotations

import random

from repro.bcast.consensus import ConsensusInstance
from repro.bcast.messages import Request
from repro.core.relay import QuorumMerge
from repro.core.tree import OverlayTree
from repro.crypto.digest import canonical_bytes, digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign, verify
from repro.sim.events import EventLoop

PARENTS = tuple(f"p{i}" for i in range(4))


def test_bench_canonical_bytes(benchmark):
    payload = {"op": "transfer", "src": "acct1", "dst": "acct2",
               "amount": 125, "meta": (1, 2, 3, ("nested", True))}
    result = benchmark(canonical_bytes, payload)
    assert result


def test_bench_digest(benchmark):
    payload = ("amcast", "client-17", 12345, ("g1", "g2"), ("x",) * 8)
    result = benchmark(digest, payload)
    assert len(result) == 16


def test_bench_sign_verify(benchmark):
    registry = KeyRegistry()
    payload = ("req", "g1", "c1", 7, ("cmd", 1))

    def roundtrip():
        signature = sign(registry, "c1", payload)
        return verify(registry, payload, signature)

    assert benchmark(roundtrip)


def test_bench_quorum_merge_throughput(benchmark):
    def push_thousand():
        merge = QuorumMerge(PARENTS, threshold=2)
        released = 0
        for index in range(250):
            key = f"m{index}"
            for parent in PARENTS:
                released += len(merge.push(parent, key, key))
        return released

    assert benchmark(push_thousand) == 250


def test_bench_tree_queries(benchmark):
    tree = OverlayTree.three_level(
        {f"h{i}": [f"g{i}a", f"g{i}b"] for i in range(2, 6)}
    )
    destinations = [
        frozenset({"g2a", "g3b"}), frozenset({"g4a"}),
        frozenset({"g2a", "g2b"}), frozenset({"g2a", "g5b", "g3a"}),
    ]

    def query_all():
        total = 0
        for dst in destinations:
            total += tree.destination_height(dst)
            total += len(tree.involved_groups(dst))
        return total

    assert benchmark(query_all) > 0


def test_bench_consensus_vote_counting(benchmark):
    batch = tuple(Request("g", f"c{i}", 1, ("op", i)) for i in range(100))
    d = digest(batch)

    def run_instance():
        instance = ConsensusInstance(cid=0, quorum=3,
                                     members=("r0", "r1", "r2", "r3"))
        instance.note_proposal(0, d, batch)
        for replica in ("r0", "r1", "r2", "r3"):
            instance.add_write(0, d, replica)
        for replica in ("r0", "r1", "r2", "r3"):
            instance.add_accept(0, d, replica)
        return instance.decided

    assert benchmark(run_instance)


def test_bench_codec_roundtrip(benchmark):
    from repro.bcast.messages import Propose
    from repro.crypto.signatures import Signature
    from repro.env import codec

    registry = KeyRegistry()
    batch = tuple(
        Request("g1", f"c{i}", 1, ("op", i), Signature(f"c{i}", b"\x01" * 16))
        for i in range(32)
    )
    proposal = Propose("g1", 0, 7, batch, "g1/r0")

    def roundtrip():
        decoded, rest = codec.read_frames(codec.frame(proposal))
        assert not rest
        return decoded[0]

    assert benchmark(roundtrip) == proposal


def test_bench_binary_codec_roundtrip(benchmark):
    """Same workload as :func:`test_bench_codec_roundtrip` on the binary
    wire codec (docs/WIRE.md) — the two cells track the codec ratio the
    rt bench gates end-to-end."""
    from repro.bcast.messages import Propose
    from repro.crypto.signatures import Signature
    from repro.env import wire

    batch = tuple(
        Request("g1", f"c{i}", 1, ("op", i), Signature(f"c{i}", b"\x01" * 16))
        for i in range(32)
    )
    proposal = Propose("g1", 0, 7, batch, "g1/r0")

    def roundtrip():
        decoded, rest = wire.read_frames(wire.frame(proposal))
        assert not rest
        return decoded[0]

    assert benchmark(roundtrip) == proposal


def test_bench_mac_vector_batch(benchmark):
    """One batch digest amortised over per-link HMACs — the sender-side
    authentication cost of an n-1 broadcast."""
    from repro.bcast.messages import Propose
    from repro.crypto.mac import mac_vector
    from repro.crypto.signatures import Signature

    registry = KeyRegistry()
    peers = tuple(f"g1/r{i}" for i in range(1, 8))
    counter = [0]

    def vector():
        counter[0] += 1
        batch = tuple(
            Request("g1", f"c{i}", counter[0], ("op", i),
                    Signature(f"c{i}", b"\x01" * 16))
            for i in range(32)
        )
        proposal = Propose("g1", 0, counter[0], batch, "g1/r0")
        return mac_vector(registry, "g1/r0", peers, proposal)

    assert len(benchmark(vector)) == len(peers)


def test_bench_mac_vector_verify(benchmark):
    """Receive-side gate of batch authentication: one tag check before any
    per-request validation.  Contrast with :func:`test_bench_batch_verify`
    — the per-request signature loop the gate short-circuits for tampered
    batches."""
    from repro.bcast.messages import Propose
    from repro.crypto.mac import mac_vector, verify_mac_vector
    from repro.crypto.signatures import Signature

    registry = KeyRegistry()
    peers = tuple(f"g1/r{i}" for i in range(1, 8))
    counter = [0]

    def verify_one():
        counter[0] += 1
        batch = tuple(
            Request("g1", f"c{i}", counter[0], ("op", i),
                    Signature(f"c{i}", b"\x01" * 16))
            for i in range(32)
        )
        proposal = Propose("g1", 0, counter[0], batch, "g1/r0")
        vector = mac_vector(registry, "g1/r0", peers, proposal)
        return verify_mac_vector(
            registry, "g1/r0", "g1/r3", proposal, vector)

    assert benchmark(verify_one)


def test_bench_batch_verify(benchmark):
    """The per-request signature loop of proposal validation — the cost a
    failed link-MAC check saves (see ``test_bench_mac_vector_verify``)."""
    registry = KeyRegistry()
    counter = [0]

    def verify_batch():
        counter[0] += 1
        batch = tuple(
            Request("g1", f"c{i}", counter[0], ("op", i),
                    sign(registry, f"c{i}",
                         ("req", "g1", f"c{i}", counter[0], ("op", i))))
            for i in range(32)
        )
        return all(
            verify(registry, req.signed_part(), req.signature)
            for req in batch
        )

    assert benchmark(verify_batch)


def test_bench_frame_route_broadcast(benchmark):
    """The rt-backend broadcast hot path: one payload, n-1 spliced frames.

    Tracks the gain of :func:`repro.env.codec.frame_route` over re-framing
    the full routing tuple per recipient (the payload body is memoised and
    spliced, not re-encoded).
    """
    from repro.bcast.messages import Propose
    from repro.crypto.signatures import Signature
    from repro.env import codec

    batch = tuple(
        Request("g1", f"c{i}", 1, ("op", i), Signature(f"c{i}", b"\x01" * 16))
        for i in range(32)
    )
    proposal = Propose("g1", 0, 7, batch, "g1/r0")
    peers = tuple(f"g1/r{i}" for i in range(1, 4))

    def broadcast():
        return sum(len(codec.frame_route("g1/r0", peer, proposal))
                   for peer in peers)

    assert benchmark(broadcast) > 0


def test_bench_binary_frame_route_broadcast(benchmark):
    """Binary-codec counterpart of the broadcast splice cell."""
    from repro.bcast.messages import Propose
    from repro.crypto.signatures import Signature
    from repro.env import wire

    batch = tuple(
        Request("g1", f"c{i}", 1, ("op", i), Signature(f"c{i}", b"\x01" * 16))
        for i in range(32)
    )
    proposal = Propose("g1", 0, 7, batch, "g1/r0")
    peers = tuple(f"g1/r{i}" for i in range(1, 4))

    def broadcast():
        return sum(len(wire.frame_route("g1/r0", peer, proposal))
                   for peer in peers)

    assert benchmark(broadcast) > 0


def test_bench_event_loop_throughput(benchmark):
    def run_ten_thousand():
        loop = EventLoop()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                loop.schedule(0.001, tick)

        loop.schedule(0.001, tick)
        loop.run()
        return count[0]

    assert benchmark(run_ten_thousand) == 10_000
