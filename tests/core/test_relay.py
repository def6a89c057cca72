"""Unit tests for the f+1 relay confirmation: the ballot, and the indexed
batch merge that keeps the parent's order."""

from __future__ import annotations

import pytest

from repro.core.relay import BatchMerge, QuorumMerge
from repro.crypto.digest import canonical_bytes

PARENTS = ("p0", "p1", "p2", "p3")  # 3f+1 with f=1


def make_merge() -> QuorumMerge:
    return QuorumMerge(PARENTS, threshold=2)  # f+1 = 2


def make_batches() -> BatchMerge:
    return BatchMerge(PARENTS, threshold=2)


def push_stream(merge: BatchMerge, sender: str, batches, start=0) -> list:
    """``sender`` relays ``batches`` as indexes ``start``, ``start + 1``..."""
    released = []
    for index, batch in enumerate(batches, start):
        released.extend(merge.push(sender, index, batch))
    return released


# ------------------------------------------------------------- the ballot


def test_release_requires_threshold():
    merge = make_merge()
    assert merge.push("p0", "m", "m") == []
    assert merge.push("p1", "m", "m") == ["m"]


def test_duplicate_pushes_do_not_rerelease():
    merge = make_merge()
    merge.push("p0", "m", "m")
    merge.push("p1", "m", "m")
    assert merge.push("p2", "m", "m") == []
    assert merge.push("p0", "m", "m") == []


def test_unknown_sender_ignored():
    merge = make_merge()
    assert merge.push("stranger", "m", "m") == []
    assert merge.push("p0", "m", "m") == []
    assert merge.push("p1", "m", "m") == ["m"]


def test_threshold_validation():
    with pytest.raises(ValueError):
        QuorumMerge(PARENTS, threshold=0)
    with pytest.raises(ValueError):
        QuorumMerge(PARENTS, threshold=5)


# ------------------------------------------------- batches, in index order


def test_correct_order_is_preserved():
    merge = make_batches()
    order = ["a", "b", "c"]
    released = []
    for sender in ("p0", "p1", "p2"):
        released.extend(push_stream(merge, sender, order))
    assert released == order


def test_byzantine_skipping_cannot_invert_order():
    """The adversarial scenario that breaks naive f+1 counting.

    Correct parents p0..p2 relay m1 then m2.  Byzantine p3 relays only m2,
    claiming it for both indexes, and its copies are ordered *first*.
    Naive counting would release m2 after p0's copy (2 distinct copies of
    m2 vs 1 of m1); the indexed merge must still release m1 first.
    """
    merge = make_batches()
    released = push_stream(merge, "p3", ["m2", "m2"])  # byzantine: skips m1
    released += push_stream(merge, "p0", ["m1", "m2"])  # naive would fire m2
    assert released == []
    released += merge.push("p1", 0, "m1")                # m1 gets its 2nd vote
    assert released == ["m1", "m2"]


def test_byzantine_fabrication_never_released_and_does_not_block():
    merge = make_batches()
    released = push_stream(merge, "p3", ["fake", "fake"])
    for sender in ("p0", "p1", "p2"):
        released.extend(push_stream(merge, sender, ["a", "b"]))
    assert released == ["a", "b"]
    # The garbage went with its indexes: nothing is kept.
    assert merge.snapshot() == (2, ())


def test_a_junk_copy_does_not_outlive_its_index():
    """A relayer's first copy of an index is its vote there, and only that
    copy is kept: a later copy of the same index is dropped, and once the
    index is released the relayer's vote at the next one counts."""
    merge = make_batches()
    assert merge.push("p3", 0, "junk") == []
    assert merge.push("p3", 0, "a") == []     # a second copy: no vote
    assert merge.snapshot() == (0, ((0, (("p3", "junk"),)),))
    assert merge.push("p0", 0, "a") == []
    assert merge.push("p1", 0, "a") == ["a"]
    assert merge.snapshot() == (1, ())
    assert merge.push("p3", 1, "b") == []
    assert merge.push("p0", 1, "b") == ["b"]


def test_interleaved_lagging_senders():
    merge = make_batches()
    released = push_stream(merge, "p0", ["a", "b", "c"])
    assert released == []
    released.extend(merge.push("p1", 0, "a"))
    assert released == ["a"]
    released = push_stream(merge, "p2", ["a", "b", "c"])
    # p2's "a" is stale (index 0 is released); b and c complete with p0.
    assert released == ["b", "c"]


def test_a_membership_update_checks_the_threshold():
    merge = make_batches()
    with pytest.raises(ValueError):
        merge.update_members(PARENTS[:1], 2)
    # Dropping a relayer drops its copies and recounts the rest.
    merge.push("p3", 0, "a")
    merge.push("p0", 0, "b")
    assert merge.update_members(PARENTS[:3], 1) == ["b"]
    assert merge.snapshot() == (1, ())


def test_late_joiner_catches_up_cleanly():
    merge = make_batches()
    for sender in ("p0", "p1"):
        push_stream(merge, sender, ["a", "b", "c"])
    # p2 saw nothing so far; its stale copies are absorbed silently.
    assert push_stream(merge, "p2", ["a", "b", "c"]) == []
    assert merge.snapshot() == (3, ())


def test_a_relayer_restored_past_a_batch_cannot_release_a_later_one_first():
    merge = make_batches()
    # p0 installed a checkpoint past batch 0; p3 withholds batch 0.
    released = push_stream(merge, "p0", ["b"], start=1)
    released += push_stream(merge, "p3", ["b"], start=1)
    assert released == []
    released += push_stream(merge, "p1", ["a", "b"])
    assert released == []                       # one vote for a
    released += merge.push("p2", 0, "a")
    assert released == ["a", "b"]


def test_snapshot_restore_roundtrip():
    merge = make_batches()
    push_stream(merge, "p0", ["a", "b", "c"])
    push_stream(merge, "p1", ["a", "b"])       # releases a, b; c kept at p0
    state = merge.snapshot()
    assert state == (2, ((2, (("p0", "c"),)),))
    clone = make_batches()
    clone.restore(state)
    assert clone.snapshot() == state
    # The restored merge continues exactly where the original would: p0's
    # kept copy is a vote in the rebuilt ballot.
    assert clone.push("p1", 2, "c") == ["c"]
    assert merge.push("p1", 2, "c") == ["c"]
    assert clone.snapshot() == merge.snapshot()


def test_snapshot_is_deterministic_across_instances():
    # Two replicas that pushed the same ordered sequence must produce
    # byte-identical snapshots — the basis of the checkpoint digest quorum
    # — and so must one that restored the other's snapshot.
    first, second = make_batches(), make_batches()
    for merge in (first, second):
        push_stream(merge, "p2", ["a", "b", "c"])
        merge.push("p3", 4, "z")
        push_stream(merge, "p0", ["a"])
        merge.push("p1", 1, "b")
    restored = make_batches()
    restored.restore(first.snapshot())
    assert (canonical_bytes(first.snapshot())
            == canonical_bytes(second.snapshot())
            == canonical_bytes(restored.snapshot()))


def test_restore_ignores_unknown_senders():
    merge = make_batches()
    merge.restore((0, ((0, (("px", "k"), ("p0", "k"))),)))
    assert merge.snapshot() == (0, ((0, (("p0", "k"),)),))
    # p0's copy is the one vote: px's never counted.
    assert merge.push("p1", 0, "k") == ["k"]
