"""Unit tests for the f+1 relay confirmation: the ballot, the per-stream
inbox of relayed copies, and the certificate check."""

from __future__ import annotations

import pytest

from repro.bcast.messages import Request
from repro.core.messages import RelayAck, RelayBatch, RelayCertificate
from repro.core.relay import (
    RELAY_WINDOW, QuorumMerge, RelayInbox, RelayOutbox, certificate_problem,
    relay_sender,
)
from repro.crypto.keys import KeyRegistry
from repro.env.simbackend import SimRuntime
from tests.helpers import FakeReplica, make_config

PARENTS = ("p0", "p1", "p2", "p3")  # 3f+1 with f=1


def make_merge() -> QuorumMerge:
    return QuorumMerge(PARENTS, threshold=2)  # f+1 = 2


def make_inbox() -> RelayInbox:
    return RelayInbox(PARENTS, threshold=2)


def copy(sender: str, index: int, batch: str = "a") -> Request:
    """``sender``'s copy of the batch ``index``, as the child receives it."""
    return Request("g1", sender, index + 1, RelayBatch((batch,), index))


def senders(copies) -> list:
    return [held.sender for held in copies]


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
    with pytest.raises(ValueError):
        RelayInbox(PARENTS, threshold=5)


# ---------------------------------------------------- the inbox of votes


class Stream:
    """One parent stream at a child replica: its inbox, and the leader that
    orders the inbox's certificates — one per index, in index order, as the
    FIFO tracker orders a pseudo-sender's requests."""

    def __init__(self, relayers=PARENTS, threshold=2):
        self.inbox = RelayInbox(relayers, threshold)

    def push(self, sender: str, index: int, batch: str) -> list:
        """``sender``'s copy reaches the child; returns the batches
        released meanwhile."""
        self.inbox.vote(copy(sender, index, batch))
        return self.order()

    def stream(self, sender: str, batches, start: int = 0) -> list:
        """``sender`` relays ``batches`` as indexes ``start``, ``start + 1``..."""
        released = []
        for index, batch in enumerate(batches, start):
            released += self.push(sender, index, batch)
        return released

    def order(self) -> list:
        released = []
        certified = dict(self.inbox.certificates())
        while self.inbox.next_index in certified:
            copies = certified[self.inbox.next_index]
            self.inbox.release(self.inbox.next_index)
            released.append(copies[0].command.wires[0])
        return released

    def held(self) -> dict:
        return {index: sorted(copies)
                for index, copies in self.inbox._copies.items()}


def test_correct_order_is_preserved():
    stream = Stream()
    order = ["a", "b", "c"]
    released = []
    for sender in ("p0", "p1", "p2"):
        released += stream.stream(sender, order)
    assert released == order


def test_byzantine_skipping_cannot_invert_order():
    """The adversarial scenario that breaks naive f+1 counting.

    Correct parents p0..p2 relay m1 then m2.  Byzantine p3 relays only m2,
    claiming it for both indexes, and its copies arrive *first*.  Naive
    counting would release m2 after p0's copy (2 distinct copies of m2 vs
    1 of m1); index 1 does certify m2 then, but its certificate waits for
    index 0's.
    """
    stream = Stream()
    released = stream.stream("p3", ["m2", "m2"])  # byzantine: skips m1
    released += stream.stream("p0", ["m1", "m2"])  # naive would fire m2
    assert released == []
    assert [index for index, __ in stream.inbox.certificates()] == [1]
    released += stream.push("p1", 0, "m1")          # m1 gets its 2nd vote
    assert released == ["m1", "m2"]


def test_byzantine_fabrication_never_released_and_does_not_block():
    stream = Stream()
    released = stream.stream("p3", ["fake", "fake"])
    for sender in ("p0", "p1", "p2"):
        released += stream.stream(sender, ["a", "b"])
    assert released == ["a", "b"]
    # The garbage went with its indexes: nothing is held.
    assert stream.inbox.next_index == 2 and stream.held() == {}


def test_a_junk_copy_does_not_outlive_its_index():
    """A relayer's first copy of an index is its vote there, and only that
    copy is held: a later copy of the same index counts nothing, and once
    the index is released the relayer's vote at the next one counts."""
    stream = Stream()
    assert stream.push("p3", 0, "junk") == []
    assert stream.push("p3", 0, "a") == []     # a second copy: no vote
    assert stream.held() == {0: ["p3"]}
    assert stream.push("p0", 0, "a") == []
    assert stream.push("p1", 0, "a") == ["a"]
    assert stream.held() == {}
    assert stream.push("p3", 1, "b") == []
    assert stream.push("p0", 1, "b") == ["b"]


def test_interleaved_lagging_senders():
    stream = Stream()
    assert stream.stream("p0", ["a", "b", "c"]) == []
    assert stream.push("p1", 0, "a") == ["a"]
    # p2's "a" is stale (index 0 is released); b and c complete with p0.
    assert stream.stream("p2", ["a", "b", "c"]) == ["b", "c"]


def test_a_membership_update_checks_the_threshold():
    stream = Stream()
    with pytest.raises(ValueError):
        stream.inbox.restore(PARENTS[:1], 2, 0)
    # Dropping a relayer drops its copies and recounts the rest.
    stream.push("p3", 0, "a")
    stream.push("p0", 0, "b")
    stream.inbox.restore(PARENTS[:3], 1, 0)
    assert stream.order() == ["b"]
    assert stream.inbox.next_index == 1 and stream.held() == {}


def test_late_joiner_catches_up_cleanly():
    stream = Stream()
    for sender in ("p0", "p1"):
        stream.stream(sender, ["a", "b", "c"])
    # p2 sent nothing so far; its stale copies count nothing.
    assert stream.stream("p2", ["a", "b", "c"]) == []
    assert stream.inbox.next_index == 3 and stream.held() == {}


def test_a_relayer_restored_past_a_batch_cannot_release_a_later_one_first():
    stream = Stream()
    # p0 installed a checkpoint past batch 0; p3 withholds batch 0.
    released = stream.stream("p0", ["b"], start=1)
    released += stream.stream("p3", ["b"], start=1)
    assert released == []
    released += stream.stream("p1", ["a", "b"])
    assert released == []                       # one vote for a
    released += stream.push("p2", 0, "a")
    assert released == ["a", "b"]


def test_snapshot_restore_roundtrip():
    """A checkpoint carries a stream's next index; the votes are each
    replica's own.  An inbox restored at that index, sent the same copies,
    goes on exactly where the original does."""
    stream = Stream()
    stream.stream("p0", ["a", "b", "c"])
    stream.stream("p1", ["a", "b"])       # releases a, b; c held from p0
    assert (stream.inbox.next_index, stream.held()) == (2, {2: ["p0"]})
    clone = Stream()
    clone.inbox.restore(PARENTS, 2, stream.inbox.next_index)
    assert clone.push("p0", 1, "b") == [] and clone.held() == {}
    assert clone.push("p0", 2, "c") == []     # p0's copy, retransmitted
    assert clone.push("p1", 2, "c") == ["c"]
    assert stream.push("p1", 2, "c") == ["c"]
    assert clone.inbox.next_index == stream.inbox.next_index == 3


def test_snapshot_is_deterministic_across_instances():
    """Two replicas that received the same copies in different orders
    release the same batches and agree on the next index — the only part
    of the stream a checkpoint carries."""
    pushes = [("p2", 0, "a"), ("p2", 1, "b"), ("p2", 2, "c"), ("p3", 4, "z"),
              ("p0", 0, "a"), ("p1", 1, "b")]
    first, second = Stream(), Stream()
    released = [first.push(*push) for push in pushes]
    assert sum(released, []) == ["a", "b"]
    assert sum((second.push(*push) for push in reversed(pushes)), []) \
        == ["a", "b"]
    assert first.inbox.next_index == second.inbox.next_index == 2


def test_restore_ignores_unknown_senders():
    stream = Stream()
    stream.push("p3", 0, "k")
    stream.inbox.restore(PARENTS[:3], 2, 0)    # p3 is no relayer any more
    assert stream.held() == {}
    assert stream.push("p0", 0, "k") == []
    # p0's copy is the one vote: p3's never counts again.
    assert stream.push("p3", 0, "k") == []
    assert stream.push("p1", 0, "k") == ["k"]


def test_f_plus_1_copies_of_one_batch_certify_its_index():
    inbox = make_inbox()
    assert inbox.vote(copy("p0", 0)) is None
    assert senders(inbox.vote(copy("p1", 0))) == ["p0", "p1"]
    # A third copy joins no certificate and offers none: it has its f+1.
    assert inbox.vote(copy("p2", 0)) is None
    assert [senders(copies) for __, copies in inbox.certificates()] == \
        [["p0", "p1"]]


def test_a_relayers_first_copy_of_an_index_is_its_vote():
    """An equivocating relayer's second copy of an index counts nothing —
    but repeating a vote returns the certificate again (a retransmission
    offers it again)."""
    inbox = make_inbox()
    inbox.vote(copy("p3", 0, "junk"))
    assert inbox.vote(copy("p3", 0)) is None
    assert inbox.held("p3", 0) == copy("p3", 0, "junk")
    assert inbox.vote(copy("p0", 0)) is None
    certificate = inbox.vote(copy("p1", 0))
    assert senders(certificate) == ["p0", "p1"]
    assert inbox.vote(copy("p0", 0)) == certificate


def test_released_stranger_and_far_copies_count_nothing():
    inbox = make_inbox()
    inbox.vote(copy("p0", 0))
    inbox.vote(copy("p1", 0))
    inbox.release(0)
    assert inbox.next_index == 1
    for stale in (copy("p2", 0), copy("p3", 0)):
        assert inbox.vote(stale) is None and inbox.held(stale.sender, 0) is None
    assert inbox.vote(copy("stranger", 1)) is None
    assert inbox.held("stranger", 1) is None
    far = 1 + RELAY_WINDOW
    assert inbox.vote(copy("p0", far)) is None and inbox.held("p0", far) is None
    assert list(inbox.certificates()) == []


def test_release_drops_every_copy_held_for_the_index():
    """Released, an index keeps no copy, junk included; later ones stay."""
    inbox = make_inbox()
    inbox.vote(copy("p3", 0, "junk"))
    inbox.vote(copy("p0", 0))
    inbox.vote(copy("p1", 0))
    inbox.vote(copy("p0", 1, "b"))
    inbox.release(0)
    assert [inbox.held(name, 0) for name in PARENTS] == [None] * 4
    assert inbox.held("p0", 1) == copy("p0", 1, "b")
    assert list(inbox.certificates()) == []


def test_every_certified_index_is_listed_in_order():
    """Indexes certify independently — the FIFO tracker orders them."""
    inbox = make_inbox()
    for index in (2, 0):
        for sender in ("p0", "p1"):
            inbox.vote(copy(sender, index))
    inbox.vote(copy("p0", 1))
    assert [index for index, __ in inbox.certificates()] == [0, 2]


def test_the_pseudo_sender_is_nobody():
    assert relay_sender("h2") == "relay@h2"


# -------------------------------------------------- the certificate check


def certificate(*copies, index=0):
    return RelayCertificate("h", index, tuple(copies))


def problem(cert, relayers=PARENTS, threshold=2, verified=lambda c: True):
    return certificate_problem(cert, "g1", relayers, threshold, verified)


def test_f_plus_1_matching_copies_prove_the_batch():
    assert problem(certificate(copy("p0", 0), copy("p1", 0))) is None
    assert problem(certificate(copy("p0", 0), copy("p1", 0),
                               copy("p2", 0))) is None


@pytest.mark.parametrize("cert, reason", [
    (certificate(copy("p0", 0)), "too few copies"),
    (certificate(copy("p0", 0), copy("p0", 0)), "not distinct relayers"),
    (certificate(copy("p0", 0), copy("gone", 0)), "not distinct relayers"),
    (certificate(copy("p0", 0), copy("p1", 0, "b")),
     "copies of different batches"),
    (certificate(copy("p0", 0), copy("p1", 1)), "a copy of another index"),
    (certificate(copy("p0", 1), copy("p1", 1)), "a copy of another index"),
    (certificate(copy("p0", 0), Request("g2", "p1", 1, RelayBatch(("a",), 0))),
     "a copy for another group"),
    (certificate(copy("p0", 0), Request("g1", "p1", 1, ("a",))),
     "a copy of another index"),
    (certificate(copy("p0", 0), copy("p1", 0), index=-1), "not an index"),
])
def test_a_certificate_that_proves_nothing_is_refused(cert, reason):
    assert problem(cert) == reason


def test_a_forged_copy_voids_the_certificate():
    forged = copy("p1", 0)
    cert = certificate(copy("p0", 0), forged)
    assert problem(cert, verified=lambda c: c is not forged) == "a forged copy"


def test_a_departed_relayer_does_not_count():
    cert = certificate(copy("p0", 0), copy("p3", 0))
    assert problem(cert) is None
    assert problem(cert, relayers=PARENTS[:3]) == "not distinct relayers"


def test_a_certificate_carries_requests_only():
    with pytest.raises(TypeError):
        RelayCertificate("h", 0, (copy("p0", 0), ("not", "a request")))
    with pytest.raises(TypeError):
        RelayCertificate("h", 0, [copy("p0", 0)])


# ---------------------------------------------------------- the relay outbox

CHILD = ("g1/r0", "g1/r1", "g1/r2", "g1/r3")


def make_outbox(retransmit_timeout=1.0):
    owner = FakeReplica("h1/r0", make_config("h1"), SimRuntime())
    return owner, RelayOutbox(owner, "g1", CHILD, 1, KeyRegistry(),
                              retransmit_timeout=retransmit_timeout)


def ack(member, next_index, regency=0):
    return RelayAck("g1", "h1", member, next_index, regency)


def test_the_outbox_signs_each_batch_once_as_its_index_plus_one():
    owner, outbox = make_outbox()
    copy = outbox.submit(RelayBatch(("w",), 4))
    assert copy.seq == 5 and copy.sender == "h1/r0"
    assert copy.signature is not None and copy.signature.signer == "h1/r0"
    # sent once, to the 2f+1 members of regency 0's quorum
    assert owner.sent == [(member, copy) for member in CHILD[:3]]
    assert outbox.unacked() == {4: copy}


def test_the_outbox_sends_to_the_quorum_f_plus_1_members_report():
    """One member reporting regency 2 moves nothing (it may lie); a second
    one does, and the next copy goes to regency 2's leader and the two
    members after it."""
    owner, outbox = make_outbox()
    outbox.handle_reply("g1/r3", ack("g1/r3", 0, regency=2))
    outbox.submit(RelayBatch(("w",), 0))
    assert [dst for dst, __ in owner.sent] == list(CHILD[:3])
    outbox.handle_reply("g1/r1", ack("g1/r1", 0, regency=5))
    assert outbox.regency == 2
    owner.sent.clear()
    outbox.submit(RelayBatch(("w",), 1))
    assert [dst for dst, __ in owner.sent] == ["g1/r2", "g1/r3", "g1/r0"]


def test_a_lying_ack_alone_never_empties_the_outbox():
    owner, outbox = make_outbox()
    for index in range(3):
        outbox.submit(RelayBatch(("w",), index))
    outbox.handle_reply("g1/r3", ack("g1/r3", 10 ** 6))
    outbox.handle_reply("g1/r3", ack("g1/r3", 0))  # regressing: still 10**6
    assert sorted(outbox.unacked()) == [0, 1, 2]
    outbox.handle_reply("g1/r0", ack("g1/r0", 2))
    assert sorted(outbox.unacked()) == [2] and outbox.horizon == 2


def test_a_timer_resends_each_copy_to_the_members_that_do_not_cover_it():
    owner, outbox = make_outbox()
    for index in range(2):
        outbox.submit(RelayBatch(("w",), index))
    outbox.handle_reply("g1/r1", ack("g1/r1", 1))
    owner.sent.clear()
    owner.runtime.run(until=1.0)
    assert [(dst, copy.seq) for dst, copy in owner.sent] == [
        ("g1/r0", 1), ("g1/r2", 1), ("g1/r3", 1),
        ("g1/r0", 2), ("g1/r1", 2), ("g1/r2", 2), ("g1/r3", 2)]
    assert owner.monitor.counters["proxy.retransmit"] == 2
    outbox.update_replicas(CHILD[1:] + ("g1/r4",), 1)
    outbox.handle_reply("g1/r4", ack("g1/r4", 2))
    assert sorted(outbox.unacked()) == [1]


def test_a_batch_the_child_covers_is_not_sent():
    owner, outbox = make_outbox()
    for member in CHILD[:2]:
        outbox.handle_reply(member, ack(member, 3))
    copy = outbox.submit(RelayBatch(("w",), 2))
    assert owner.sent == [] and outbox.unacked() == {}
    assert copy.seq == 3
