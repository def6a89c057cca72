"""Order-preserving f+1 confirmation of relayed batches (Algorithm 1, line 9).

Algorithm 1 says a group handles a message from its parent once it has
delivered it ``f + 1`` times — proof that at least one *correct* parent
replica relayed it.  Implemented naively ("act when the (f+1)-th copy is
ordered"), the rule is not order-preserving: up to ``f`` Byzantine parent
replicas can relay ``m'`` while withholding ``m``, making the (f+1)-th copy
of ``m'`` arrive before the (f+1)-th copy of ``m`` in one child group and
after it in a sibling — violating the order the parent induced (the
invariant behind Lemma 4 / prefix order).

:class:`QuorumMerge` implements the rule the correctness argument actually
needs: one FIFO queue per parent replica, and a value is *released* only
when it sits at the **head** of at least ``f + 1`` queues.  If all ``2f +
1`` correct parents push the same sequence, a value reaches f+1 heads
exactly in that sequence's order: Byzantine queues can never outvote the
correct heads.  ``tests/core/test_relay.py`` contains the adversarial
scenario.

That premise does not hold by itself.  A parent replica that installs a
checkpoint never relays the batches the checkpoint skipped, and one that
joined by state transfer relays only from its activation on: its queue head
is a later batch while an earlier one is still unreleased, and f+1 such
heads (two lagging correct replicas at f = 1, or one and a withholding
Byzantine relayer) would release the later batch first.  :class:`BatchMerge`
restores the premise.  Each parent replica stamps every ``RelayBatch`` with
its index in the parent's per-child relay sequence — replicated parent
state, checkpointed with the rest — and the child pushes a copy into the
merge only once its index is the next one to release, parking later copies
until then.  Every queue then holds copies of one index at a time, so a
skipped batch is never overtaken.  The unit of the merge is a whole batch,
keyed by its digest: correct relayers cut identically (the cut is a
function of ordered execution), so the f+1 copies of one batch are
byte-identical and the child confirms it once instead of wire by wire.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Hashable, Iterable, List, Tuple

from repro.crypto.digest import SequenceDigest, digest


class QuorumMerge:
    """Per-sender FIFO merge releasing values confirmed by f+1 queue heads.

    Args:
        senders: the authorized relayers (the parent group's replicas).
        threshold: number of distinct queue heads required (``f + 1``).
    """

    def __init__(self, senders: Iterable[str], threshold: int) -> None:
        self.senders = frozenset(senders)
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if threshold > len(self.senders):
            raise ValueError("threshold cannot exceed the number of senders")
        self.threshold = threshold
        self._queues: Dict[str, Deque[Tuple[Hashable, Any]]] = {
            sender: deque() for sender in self.senders
        }
        #: released keys in release order.  Pushes happen only during
        #: ordered execution, so the order is the same at every correct
        #: replica of the group: it is the canonical order, and a running
        #: digest over it stands for the whole sequence in a checkpoint.
        self._released: Dict[Hashable, None] = {}
        self._released_digest = SequenceDigest()

    def push(self, sender: str, key: Hashable, value: Any) -> List[Any]:
        """Record that ``sender``'s copy of ``key`` was ordered locally.

        Returns the values newly released by this push, in release order.
        Pushes from unknown senders are ignored (the caller should have
        validated membership; this is defense in depth).
        """
        if sender not in self._queues:
            return []
        if key in self._released:
            return []
        self._queues[sender].append((key, value))
        return self._drain()

    def _drain(self) -> List[Any]:
        released: List[Any] = []
        progress = True
        while progress:
            progress = False
            heads: Dict[Hashable, List[str]] = {}
            for sender, queue in self._queues.items():
                while queue and queue[0][0] in self._released:
                    queue.popleft()
                if queue:
                    heads.setdefault(queue[0][0], []).append(sender)
            for key, supporters in heads.items():
                if len(supporters) >= self.threshold:
                    value = self._queues[supporters[0]][0][1]
                    self._released[key] = None
                    self._released_digest.add(digest(key))
                    for sender in supporters:
                        self._queues[sender].popleft()
                    released.append(value)
                    progress = True
                    break  # re-scan heads after every release
        return released

    def update_members(self, senders: Iterable[str], threshold: int) -> List[Any]:
        """Adopt a new relayer membership (parent-group reconfiguration).

        Queues of retained senders survive (their relayed-but-unconfirmed
        prefixes stay valid), removed senders' queues are dropped, and new
        senders start with empty queues.  The released set is kept so
        already-confirmed messages are never re-released.  Returns any
        values the membership change itself unblocks (e.g. a withheld
        message whose only dissenting queue belonged to a removed replica).
        """
        new_senders = frozenset(senders)
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if threshold > len(new_senders):
            raise ValueError("threshold cannot exceed the number of senders")
        self.senders = new_senders
        self.threshold = threshold
        self._queues = {
            sender: self._queues.get(sender, deque())
            for sender in new_senders
        }
        return self._drain()

    def is_released(self, key: Hashable) -> bool:
        return key in self._released

    def pending_counts(self) -> Dict[str, int]:
        """Queue depths per sender (diagnostics)."""
        return {sender: len(queue) for sender, queue in self._queues.items()}

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Tuple:
        """Deterministic, canonicalizable capture of the merge state.

        Queues are keyed by sender name (sorted); the released keys are in
        release order.  Replicas that ordered the same request prefix hold
        identical merge state (pushes happen only during ordered
        execution), so this snapshot is digest-stable.
        """
        queues = tuple(
            (sender, tuple(self._queues[sender]))
            for sender in sorted(self._queues)
        )
        return (queues, tuple(self._released))

    def released_digest(self) -> bytes:
        """``SequenceDigest(released).value()`` of :meth:`snapshot`'s
        released keys, kept running — no pass over them."""
        return self._released_digest.value()

    def restore(self, state: Tuple) -> None:
        """Adopt a peer's :meth:`snapshot` (membership must match)."""
        queues, released = state
        self._queues = {sender: deque() for sender in self.senders}
        for sender, entries in queues:
            if sender in self._queues:
                self._queues[sender] = deque(entries)
        self._released = dict.fromkeys(released)
        self._released_digest = SequenceDigest(released)


class BatchMerge:
    """One parent group's relayed batches at a child, released in index order.

    A :class:`QuorumMerge` keyed by ``digest(batch)``, fed each copy once
    its ``index`` is :attr:`next_index`.  A copy whose index was already
    released (a late correct copy, a replay) is dropped; one from further
    ahead is parked until the batches before it are released.  Both happen
    during ordered execution, so the parked copies, like the queues, are
    the same at every correct replica and belong in a checkpoint.
    """

    def __init__(self, senders: Iterable[str], threshold: int) -> None:
        self._merge = QuorumMerge(senders, threshold)
        #: the index of the next batch to release
        self.next_index = 0
        #: index -> the ``(sender, batch)`` copies parked under it, in
        #: arrival order
        self._parked: Dict[int, List[Tuple[str, Any]]] = {}

    @property
    def senders(self) -> frozenset:
        return self._merge.senders

    @property
    def threshold(self) -> int:
        return self._merge.threshold

    def push(self, sender: str, index: int, batch: Any) -> List[Any]:
        """Record that ``sender``'s copy of batch ``index`` was ordered
        locally; returns the batches this releases, in index order."""
        if sender not in self._merge.senders or index < self.next_index:
            return []
        if index > self.next_index:
            self._parked.setdefault(index, []).append((sender, batch))
            return []
        return self._advance(self._merge.push(sender, digest(batch), batch))

    def update_members(self, senders: Iterable[str],
                       threshold: int) -> List[Any]:
        """:meth:`QuorumMerge.update_members`, then whatever that unblocks
        among the parked copies."""
        return self._advance(self._merge.update_members(senders, threshold))

    def _advance(self, released: List[Any]) -> List[Any]:
        """``released`` (the batch at :attr:`next_index`, if any) and every
        batch the parked copies then release, one index at a time."""
        batches: List[Any] = []
        while released:
            batches += released
            self.next_index += 1
            released = []
            for sender, batch in self._parked.pop(self.next_index, ()):
                released = self._merge.push(sender, digest(batch), batch)
                if released:
                    break  # later copies of this index are stale
        return batches

    def pending_counts(self) -> Dict[str, int]:
        """Queue depths per sender (diagnostics)."""
        return self._merge.pending_counts()

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Tuple:
        """``(next_index, parked copies by index, QuorumMerge snapshot)``."""
        parked = tuple((index, tuple(self._parked[index]))
                       for index in sorted(self._parked))
        return (self.next_index, parked, self._merge.snapshot())

    def released_digest(self) -> bytes:
        return self._merge.released_digest()

    def restore(self, state: Tuple) -> None:
        """Adopt a peer's :meth:`snapshot` (membership must match)."""
        next_index, parked, merge = state
        self.next_index = next_index
        self._parked = {index: list(copies) for index, copies in parked}
        self._merge.restore(merge)
