"""Unit tests for per-sender FIFO bookkeeping (pool, tracker, replies)."""

from __future__ import annotations

from repro.bcast.fifo import REPLY_WINDOW, PendingPool, ReplyWindow, SenderTracker
from repro.bcast.messages import Request
from tests.helpers import Harness


def req(sender: str, seq: int) -> Request:
    return Request("g", sender, seq, ("cmd", sender, seq))


class TestSenderTracker:
    def test_initial_expectation(self):
        tracker = SenderTracker()
        assert tracker.last("a") == 0
        assert tracker.expect("a") == 1

    def test_advance_and_duplicates(self):
        tracker = SenderTracker()
        tracker.advance("a", 1)
        tracker.advance("a", 2)
        assert tracker.last("a") == 2
        assert tracker.is_duplicate(req("a", 1))
        assert tracker.is_duplicate(req("a", 2))
        assert not tracker.is_duplicate(req("a", 3))

    def test_snapshot_restore(self):
        tracker = SenderTracker()
        tracker.advance("a", 5)
        other = SenderTracker()
        other.restore(tracker.snapshot())
        assert other.last("a") == 5


class TestReplyWindow:
    def test_keeps_each_senders_newest_replies(self):
        window = ReplyWindow()
        for seq in range(1, REPLY_WINDOW + 2):
            window.keep("a", seq, ("r", seq))
        window.keep("b", 1, ("r", "b"))
        assert window.get("a", 1) is None
        assert window.get("a", 2) == ("r", 2)
        assert window.get("a", REPLY_WINDOW + 1) == ("r", REPLY_WINDOW + 1)
        assert window.get("b", 1) == ("r", "b")
        assert window.get("c", 1) is None


class TestPendingPool:
    def test_add_dedups(self):
        pool = PendingPool()
        assert pool.add(req("a", 1))
        assert not pool.add(req("a", 1))
        assert len(pool) == 1

    def test_admissible_batch_respects_fifo(self):
        pool = PendingPool()
        pool.add(req("a", 2))  # out of order: held back
        pool.add(req("a", 1))
        pool.add(req("b", 1))
        batch = pool.admissible_batch(SenderTracker(), max_batch=10)
        seqs = [(r.sender, r.seq) for r in batch]
        assert ("a", 1) in seqs and ("a", 2) in seqs and ("b", 1) in seqs
        assert seqs.index(("a", 1)) < seqs.index(("a", 2))

    def test_gap_blocks_later_requests(self):
        pool = PendingPool()
        pool.add(req("a", 2))
        pool.add(req("a", 3))
        batch = pool.admissible_batch(SenderTracker(), max_batch=10)
        assert batch == ()

    def test_tracker_position_honored(self):
        pool = PendingPool()
        pool.add(req("a", 5))
        tracker = SenderTracker()
        tracker.advance("a", 4)
        batch = pool.admissible_batch(tracker, max_batch=10)
        assert [(r.sender, r.seq) for r in batch] == [("a", 5)]

    def test_max_batch_cap(self):
        pool = PendingPool()
        for seq in range(1, 21):
            pool.add(req("a", seq))
        batch = pool.admissible_batch(SenderTracker(), max_batch=5)
        assert [r.seq for r in batch] == [1, 2, 3, 4, 5]

    def test_batch_does_not_remove_requests(self):
        pool = PendingPool()
        pool.add(req("a", 1))
        pool.admissible_batch(SenderTracker(), max_batch=5)
        assert len(pool) == 1  # removal happens only at ordering

    def test_remove_and_prune(self):
        pool = PendingPool()
        pool.add(req("a", 1))
        pool.add(req("a", 2))
        assert pool.remove("a", 1) is not None
        assert pool.remove("a", 1) is None
        tracker = SenderTracker()
        tracker.advance("a", 2)
        pool.prune_ordered(tracker)
        assert len(pool) == 0

    def test_interleaved_senders_arrival_order(self):
        pool = PendingPool()
        pool.add(req("a", 1))
        pool.add(req("b", 1))
        pool.add(req("a", 2))
        batch = pool.admissible_batch(SenderTracker(), max_batch=2)
        assert [(r.sender, r.seq) for r in batch] == [("a", 1), ("b", 1)]

    def test_arrival_list_bounded_without_batch_cuts(self):
        """A follower never cuts a batch; removing what was ordered must
        still keep its arrival list within 4x the pool size."""
        pool = PendingPool()
        tracker = SenderTracker()
        for seq in range(1, 101):
            pool.add(req("a", seq))
            pool.add(req("b", seq))
            pool.remove("a", seq)
            tracker.advance("b", seq)
            pool.prune_ordered(tracker)
            assert len(pool._arrival) <= 4 * max(1, len(pool))
        assert len(pool) == 0


def test_followers_arrival_lists_stay_bounded():
    h = Harness()
    client = h.add_client()
    for j in range(200):
        client.submit(("op", j))
    h.run(until=5.0)
    assert len(client.results) == 200
    for replica in h.group.replicas:
        pool = replica.pool
        assert len(pool._arrival) <= 4 * max(1, len(pool)), replica.name
