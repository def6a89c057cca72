"""Order-preserving f+1 confirmation of relayed batches (Algorithm 1, line 9).

Algorithm 1 says a group handles a message from its parent once it has
delivered it ``f + 1`` times — proof that at least one *correct* parent
replica relayed it.  Implemented naively ("act when the (f+1)-th copy is
ordered"), the rule is not order-preserving: up to ``f`` Byzantine parent
replicas can relay ``m'`` while withholding ``m``, making the (f+1)-th copy
of ``m'`` arrive before the (f+1)-th copy of ``m`` in one child group and
after it in a sibling — violating the order the parent induced (the
invariant behind Lemma 4 / prefix order).

The order comes from an index.  Each parent replica stamps every
``RelayBatch`` with its position in the parent's per-child relay sequence —
replicated parent state, checkpointed with the rest, so every correct
parent stamps a batch alike, even one that installed a checkpoint or joined
by state transfer and so never relayed the batches before it.
:class:`BatchMerge` releases index ``i`` only after index ``i - 1``, and
at index ``i`` a copy is one vote: a relayer's first copy of an index
counts, for the digest of the batch it carries, and the batch is released
once ``f + 1`` distinct relayers voted for that digest (:class:`QuorumMerge`
is that ballot).  ``f`` Byzantine votes never reach ``f + 1``, whatever
digest or index they carry, and a skipped index is never overtaken.  The
unit of the vote is a whole batch: correct relayers cut identically (the
cut is a function of ordered execution), so the f+1 copies of one batch are
byte-identical and the child confirms it once instead of wire by wire.
``tests/core/test_relay.py`` contains the adversarial scenarios.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Set, Tuple

from repro.crypto.digest import digest


class QuorumMerge:
    """A ballot among ``senders`` (the parent group's replicas): a value is
    released once ``threshold`` (``f + 1``) distinct senders voted for its
    key."""

    def __init__(self, senders: Iterable[str], threshold: int) -> None:
        self.senders = frozenset(senders)
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if threshold > len(self.senders):
            raise ValueError("threshold cannot exceed the number of senders")
        self.threshold = threshold
        #: key -> the senders that voted for it
        self._votes: Dict[Hashable, Set[str]] = {}

    def push(self, sender: str, key: Hashable, value: Any) -> List[Any]:
        """Record ``sender``'s vote for ``key``; returns ``[value]`` if this
        is the key's ``threshold``-th distinct voter, else ``[]``.

        Votes from unknown senders are ignored (the caller should have
        validated membership; this is defense in depth).
        """
        if sender not in self.senders:
            return []
        voters = self._votes.setdefault(key, set())
        if sender in voters:
            return []
        voters.add(sender)
        return [value] if len(voters) == self.threshold else []


class BatchMerge:
    """One parent group's relayed batches at a child, released in index order.

    Keeps each relayer's first copy of every index from :attr:`next_index`
    on, in arrival order — at most one copy per relayer and index — and
    votes the copies of :attr:`next_index` into a :class:`QuorumMerge`
    keyed by ``digest(batch)``.  A release drops that index's copies and
    votes the next index's into a fresh ballot.  A copy of an index already
    released (a late correct copy, a replay) is dropped.  Copies arrive
    during ordered execution, so the kept copies are the same at every
    correct replica and belong in a checkpoint; the ballot is rebuilt from
    them.
    """

    def __init__(self, senders: Iterable[str], threshold: int) -> None:
        self._ballot = QuorumMerge(senders, threshold)
        #: the index of the next batch to release
        self.next_index = 0
        #: index -> each relayer's first ``(sender, batch)`` copy of it, in
        #: arrival order
        self._copies: Dict[int, List[Tuple[str, Any]]] = {}

    @property
    def senders(self) -> frozenset:
        return self._ballot.senders

    @property
    def threshold(self) -> int:
        return self._ballot.threshold

    def push(self, sender: str, index: int, batch: Any) -> List[Any]:
        """Record that ``sender``'s copy of batch ``index`` was ordered
        locally; returns the batches this releases, in index order."""
        if sender not in self.senders or index < self.next_index:
            return []
        copies = self._copies.setdefault(index, [])
        if any(voter == sender for voter, __ in copies):
            return []
        copies.append((sender, batch))
        if index > self.next_index:
            return []
        return self._advance(self._ballot.push(sender, digest(batch), batch))

    def update_members(self, senders: Iterable[str],
                       threshold: int) -> List[Any]:
        """Adopt a new relayer membership (parent-group reconfiguration).

        Removed relayers' copies are dropped and the ballot is recounted
        over the rest; returns the batches that unblocks (e.g. one whose
        only missing votes belonged to a removed replica), in index order.
        """
        self._ballot = QuorumMerge(senders, threshold)
        self._drop_strangers()
        return self._advance(self._vote())

    def _drop_strangers(self) -> None:
        """Keep only the copies of relayers in the membership."""
        self._copies = {
            index: [(voter, batch) for voter, batch in copies
                    if voter in self.senders]
            for index, copies in self._copies.items()}

    def _vote(self) -> List[Any]:
        """Vote the copies of :attr:`next_index` into a fresh ballot;
        returns the batch they release, if any."""
        self._ballot = QuorumMerge(self.senders, self.threshold)
        for sender, batch in self._copies.get(self.next_index, ()):
            released = self._ballot.push(sender, digest(batch), batch)
            if released:
                return released
        return []

    def _advance(self, released: List[Any]) -> List[Any]:
        """``released`` (the batch at :attr:`next_index`, if any) and every
        batch the kept copies then release, one index at a time."""
        batches: List[Any] = []
        while released:
            batches += released
            del self._copies[self.next_index]
            self.next_index += 1
            released = self._vote()
        return batches

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Tuple:
        """``(next_index, kept copies by index)``: everything else is
        rebuilt from them."""
        return (self.next_index,
                tuple((index, tuple(self._copies[index]))
                      for index in sorted(self._copies)))

    def restore(self, state: Tuple) -> None:
        """Adopt a peer's :meth:`snapshot` (copies from relayers outside
        this merge's membership are dropped)."""
        self.next_index, copies = state
        self._copies = dict(copies)
        self._drop_strangers()
        self._vote()
