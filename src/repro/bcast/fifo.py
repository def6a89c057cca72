"""Per-sender FIFO bookkeeping: the pending pool and sequence tracking.

FIFO atomic broadcast (§II-C) requires that if a correct sender broadcasts
``m`` before ``m'``, no correct process delivers ``m'`` first.  We realize
this with per-(sender) sequence numbers:

* the :class:`PendingPool` holds requests not yet ordered, indexed by
  sender, and yields batches that only ever extend each sender's sequence
  contiguously from what is already ordered;
* the :class:`SenderTracker` records, per sender, the highest sequence
  number ordered so far, so proposals (and executions) can be validated and
  duplicates dropped;
* a :class:`ReplyWindow` keeps each sender's latest replies, so a
  retransmitted request is answered again (also by a replica that did not
  send its reply live).

A Byzantine leader that proposes a gap is caught by proposal validation at
correct replicas (they refuse to WRITE), which eventually triggers a regency
change.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.bcast.messages import Request

#: replies a :class:`ReplyWindow` keeps per sender: an open-loop sender may
#: retransmit a request after later ones were answered
REPLY_WINDOW = 32


class SenderTracker:
    """Highest contiguously ordered sequence number per sender."""

    def __init__(self) -> None:
        self._last: Dict[str, int] = {}

    def last(self, sender: str) -> int:
        """Highest ordered seq for ``sender`` (0 = nothing ordered yet)."""
        return self._last.get(sender, 0)

    def expect(self, sender: str) -> int:
        """Next sequence number expected from ``sender``."""
        return self.last(sender) + 1

    def advance(self, sender: str, seq: int) -> None:
        """Record that ``seq`` was ordered for ``sender`` (must be next)."""
        self._last[sender] = seq

    def is_duplicate(self, request: Request) -> bool:
        return request.seq <= self.last(request.sender)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._last)

    def restore(self, state: Dict[str, int]) -> None:
        self._last = dict(state)


class ReplyWindow:
    """The last ``REPLY_WINDOW`` replies to each sender, by seq, whether
    sent live or not: a replica outside the current regency's quorum keeps
    its reply here for a retransmission without sending it.

    Local to one replica, never part of a snapshot: a replica that skipped
    a request (it installed a checkpoint past it) has no reply to repeat
    and stays silent, and the f+1 match needs only some correct replicas
    to answer.
    """

    def __init__(self) -> None:
        self._by_sender: Dict[str, Dict[int, Any]] = {}

    def keep(self, sender: str, seq: int, reply: Any) -> None:
        """Remember ``reply``; forget the sender's oldest beyond the window."""
        window = self._by_sender.setdefault(sender, {})
        window[seq] = reply
        if len(window) > REPLY_WINDOW:
            del window[next(iter(window))]

    def get(self, sender: str, seq: int) -> Optional[Any]:
        window = self._by_sender.get(sender)
        return None if window is None else window.get(seq)


class PendingPool:
    """Requests awaiting ordering, organized for FIFO-admissible batching."""

    def __init__(self) -> None:
        self._by_sender: Dict[str, Dict[int, Request]] = {}
        self._arrival: List[Tuple[str, int]] = []  # FIFO across senders
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, request: Request) -> bool:
        """Insert ``request`` unless it is already pooled.  Returns insertion."""
        per_sender = self._by_sender.setdefault(request.sender, {})
        if request.seq in per_sender:
            return False
        per_sender[request.seq] = request
        self._arrival.append((request.sender, request.seq))
        self._size += 1
        return True

    def put(self, request: Request) -> bool:
        """Insert ``request``, or swap it for the pooled request with its
        sender and seq (keeping that one's arrival position); True if it
        was not pooled."""
        per_sender = self._by_sender.get(request.sender)
        if per_sender is not None and request.seq in per_sender:
            per_sender[request.seq] = request
            return False
        return self.add(request)

    def drop_sender(self, sender: str) -> None:
        """Remove every pooled request of ``sender``."""
        per_sender = self._by_sender.pop(sender, None)
        if per_sender:
            self._size -= len(per_sender)
            self._compact()

    def remove(self, sender: str, seq: int) -> Optional[Request]:
        """Remove and return the request, if pooled."""
        per_sender = self._by_sender.get(sender)
        if not per_sender or seq not in per_sender:
            return None
        self._size -= 1
        request = per_sender.pop(seq)
        if not per_sender:
            del self._by_sender[sender]
        self._compact()
        return request

    def prune_ordered(self, tracker: SenderTracker,
                      senders: Optional[Iterable[str]] = None) -> None:
        """Drop every pooled request that is already ordered.

        ``senders`` limits the walk to the senders whose tracker entry
        moved (a decided batch's); without it every pooled sender is
        checked (a checkpoint restore moves them all).  A sender left with
        nothing pooled loses its entry, so the pool is bounded by the live
        senders, not by every sender ever seen.
        """
        by_sender = self._by_sender
        pruned = 0
        for sender in (list(by_sender) if senders is None else senders):
            per_sender = by_sender.get(sender)
            if per_sender is None:
                continue
            last = tracker.last(sender)
            stale = [seq for seq in per_sender if seq <= last]
            for seq in stale:
                del per_sender[seq]
            pruned += len(stale)
            if not per_sender:
                del by_sender[sender]
        if pruned:
            self._size -= pruned
            self._compact()

    def admissible_batch(
        self,
        tracker: SenderTracker,
        max_batch: int,
        reserved: Optional[Dict[str, int]] = None,
    ) -> Tuple[Request, ...]:
        """Select up to ``max_batch`` requests respecting per-sender FIFO.

        Requests are taken in arrival order; a request is admitted only when
        it is the next expected sequence for its sender, given what the
        tracker says is ordered plus what this batch already admits.  Earlier
        out-of-order arrivals become admissible as soon as their predecessor
        is picked, so repeated passes over the arrival list are performed
        until the batch stops growing.

        ``reserved`` raises the per-sender floor above the tracker: with a
        consensus pipeline, requests claimed by still-open in-flight
        instances are not yet ordered (the tracker ignores them) but must
        not be proposed a second time; the pipelined leader passes the
        highest claimed seq per sender here so the next batch extends the
        claimed prefix instead of overlapping it.
        """
        batch: List[Request] = []
        virtual: Dict[str, int] = {}
        admitted: set = set()
        progress = True
        while progress and len(batch) < max_batch:
            progress = False
            for sender, seq in self._arrival:
                if len(batch) >= max_batch:
                    break
                if (sender, seq) in admitted:
                    continue
                per_sender = self._by_sender.get(sender, {})
                if seq not in per_sender:
                    continue  # removed meanwhile
                floor = tracker.last(sender)
                if reserved is not None:
                    claimed = reserved.get(sender)
                    if claimed is not None and claimed > floor:
                        floor = claimed
                expected = virtual.get(sender, floor) + 1
                if seq == expected:
                    batch.append(per_sender[seq])
                    admitted.add((sender, seq))
                    virtual[sender] = seq
                    progress = True
        self._compact()
        return tuple(batch)

    def _compact(self) -> None:
        """Drop arrival-list entries whose requests are gone.

        Run wherever requests leave the pool, not only when a leader cuts
        a batch: a follower never cuts one, and its list must stay bounded
        by the pool too.
        """
        if len(self._arrival) <= 4 * max(1, self._size):
            return
        self._arrival = [
            (sender, seq)
            for sender, seq in self._arrival
            if seq in self._by_sender.get(sender, {})
        ]
