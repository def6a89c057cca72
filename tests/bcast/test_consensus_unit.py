"""Unit tests for the pure consensus state machine."""

from __future__ import annotations

from repro.bcast.consensus import ConsensusInstance
from repro.bcast.messages import Request
from repro.crypto.digest import digest


def batch(*labels):
    return tuple(Request("g", "c", i + 1, ("cmd", l)) for i, l in enumerate(labels))


#: the view the instances run in (tests pick their quorum separately)
MEMBERS = tuple(f"r{i}" for i in range(7))


def make_instance(quorum=3):
    return ConsensusInstance(cid=0, quorum=quorum, members=MEMBERS)


class TestProposal:
    def test_note_proposal_once(self):
        inst = make_instance()
        b = batch("a")
        assert inst.note_proposal(0, digest(b), b)
        assert inst.should_write(0)

    def test_equivocation_detected(self):
        inst = make_instance()
        b1, b2 = batch("a"), batch("b")
        assert inst.note_proposal(0, digest(b1), b1)
        assert not inst.note_proposal(0, digest(b2), b2)

    def test_same_proposal_twice_is_fine(self):
        inst = make_instance()
        b = batch("a")
        assert inst.note_proposal(0, digest(b), b)
        assert inst.note_proposal(0, digest(b), b)

    def test_new_regency_allows_new_proposal(self):
        inst = make_instance()
        b1, b2 = batch("a"), batch("b")
        inst.note_proposal(0, digest(b1), b1)
        assert inst.note_proposal(1, digest(b2), b2)
        assert inst.should_write(1)

    def test_write_sent_only_once_per_regency(self):
        inst = make_instance()
        b = batch("a")
        inst.note_proposal(0, digest(b), b)
        inst.mark_write_sent(0)
        assert not inst.should_write(0)


class TestQuorums:
    def test_write_quorum_crossing_reported_once(self):
        inst = make_instance()
        b = batch("a")
        d = digest(b)
        inst.note_proposal(0, d, b)
        assert not inst.add_write(0, d, "r0")
        assert not inst.add_write(0, d, "r1")
        assert inst.add_write(0, d, "r2")       # crossing
        assert not inst.add_write(0, d, "r3")   # already crossed

    def test_duplicate_votes_not_counted(self):
        inst = make_instance()
        b = batch("a")
        d = digest(b)
        inst.note_proposal(0, d, b)
        for _ in range(5):
            assert not inst.add_write(0, d, "r0")

    def test_should_accept_requires_matching_proposal(self):
        inst = make_instance()
        b = batch("a")
        d = digest(b)
        other = digest(batch("b"))
        inst.note_proposal(0, d, b)
        for replica in ("r0", "r1", "r2"):
            inst.add_write(0, other, replica)
        assert not inst.should_accept(0, other)
        for replica in ("r0", "r1", "r2"):
            inst.add_write(0, d, replica)
        assert inst.should_accept(0, d)

    def test_rescope_shrinks_quorum_and_prunes_ex_members(self):
        # Regression: an instance opened just before a scale-down boundary
        # executes keeps the 7-member quorum (5) while only 4 members
        # remain — it can then never accept and the group cycles through
        # regencies forever.  Rescoping at the boundary must adopt the new
        # quorum AND drop votes from removed members so they cannot count
        # toward it.
        inst = make_instance(quorum=5)
        b = batch("a")
        d = digest(b)
        inst.note_proposal(3, d, b)
        for replica in ("r0", "r1", "r2", "r3"):
            inst.add_write(3, d, replica)
        assert not inst.should_accept(3, d)  # 4 < 5: wedged pre-fix
        inst.rescope(("r0", "r1", "r2", "r3"), 3)
        assert inst.should_accept(3, d)

    def test_rescope_votes_from_removed_members_do_not_count(self):
        inst = make_instance(quorum=3)
        b = batch("a")
        d = digest(b)
        inst.note_proposal(0, d, b)
        inst.add_write(0, d, "r4")
        inst.add_write(0, d, "r5")
        inst.rescope(("r0", "r1", "r2", "r3"), 3)
        inst.add_write(0, d, "r0")
        assert not inst.should_accept(0, d)  # ex-member votes pruned
        inst.add_write(0, d, "r1")
        inst.add_write(0, d, "r2")
        assert inst.should_accept(0, d)

    def test_rescope_keeps_a_decided_instances_quorum_and_old_members(self):
        # Decided in the old view before a 4 -> 7 boundary executed: the
        # instance still gathers its write certificate for STOPDATA, at its
        # own quorum, from the members of both views.
        inst = ConsensusInstance(cid=0, quorum=3,
                                 members=("r0", "r1", "r2", "r3"))
        b = batch("a")
        d = digest(b)
        inst.note_proposal(0, d, b)
        for replica in ("r0", "r1", "r2"):
            inst.add_write(0, d, replica)
            inst.add_accept(0, d, replica)
        assert inst.decided
        inst.rescope(tuple(f"r{i}" for i in range(7)), 5)
        assert inst.quorum == 3
        inst.add_write(1, d, "r0")
        inst.add_write(1, d, "r4")
        assert inst.write_cert.regency == 0
        assert inst.add_write(1, d, "r5")
        assert inst.write_cert.regency == 1

    def test_decision_and_batch_recovery(self):
        inst = make_instance()
        b = batch("a", "b")
        d = digest(b)
        inst.note_proposal(0, d, b)
        for replica in ("r0", "r1"):
            inst.add_accept(0, d, replica)
        assert not inst.decided
        assert inst.add_accept(0, d, "r2")
        assert inst.decided
        assert inst.decided_batch() == b

    def test_decided_without_proposal_is_unknown(self):
        inst = make_instance()
        d = digest(batch("a"))
        for replica in ("r0", "r1", "r2"):
            inst.add_accept(0, d, replica)
        assert inst.decided
        assert inst.decided_batch() is None  # state transfer required

    def test_write_certificate_tracks_highest_regency(self):
        inst = make_instance()
        b1, b2 = batch("a"), batch("b")
        inst.note_proposal(0, digest(b1), b1)
        for replica in ("r0", "r1", "r2"):
            inst.add_write(0, digest(b1), replica)
        assert inst.write_cert.regency == 0
        assert inst.write_cert.batch == b1
        inst.note_proposal(1, digest(b2), b2)
        for replica in ("r0", "r1", "r2"):
            inst.add_write(1, digest(b2), replica)
        assert inst.write_cert.regency == 1
        assert inst.write_cert.batch == b2

    def test_no_double_decide(self):
        inst = make_instance()
        b = batch("a")
        d = digest(b)
        inst.note_proposal(0, d, b)
        for replica in ("r0", "r1", "r2"):
            inst.add_accept(0, d, replica)
        assert not inst.add_accept(0, d, "r3")
        assert not inst.add_accept(1, d, "r0")


class TestDecisionLog:
    def test_in_order_release(self):
        from repro.bcast.log import DecisionLog

        log = DecisionLog()
        log.record_decision(1, batch("b"))
        assert list(log.ready_batches()) == []
        log.record_decision(0, batch("a"))
        released = list(log.ready_batches())
        assert [cid for cid, __ in released] == [0, 1]
        assert log.next_execute == 2

    def test_duplicate_decision_ignored(self):
        from repro.bcast.log import DecisionLog

        log = DecisionLog()
        log.record_decision(0, batch("a"))
        log.record_decision(0, batch("b"))
        released = list(log.ready_batches())
        assert released[0][1] == batch("a")

    def test_state_suffix_and_install(self):
        from repro.bcast.log import DecisionLog

        src = DecisionLog()
        for cid in range(3):
            src.record_decision(cid, batch(f"x{cid}"))
        list(src.ready_batches())
        suffix = src.executed_suffix(1)
        assert [cid for cid, __ in suffix] == [1, 2]

        dst = DecisionLog()
        dst.record_decision(0, batch("x0"))
        list(dst.ready_batches())
        installed = dst.install_suffix(suffix)
        assert [cid for cid, __ in installed] == [1, 2]
        assert dst.next_execute == 3

    def test_install_refuses_gaps(self):
        from repro.bcast.log import DecisionLog

        log = DecisionLog()
        installed = log.install_suffix(((2, batch("c")),))
        assert installed == []
        assert log.next_execute == 0
