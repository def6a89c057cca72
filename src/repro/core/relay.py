"""Order-preserving f+1 confirmation of relayed batches (Algorithm 1, line 9),
ordered once per batch.

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
by state transfer and so never relayed the batches before it.  Correct
relayers cut identically (the cut is a function of ordered execution), so
the f+1 copies of one batch are byte-identical and a batch's digest is its
vote.

The copies are votes, not requests.  A child replica keeps each relayer's
first signed copy of an index in a :class:`RelayInbox`, outside consensus,
as one vote for the digest of the batch it carries (:class:`QuorumMerge` is
that ballot, one per index).  Once one digest carries (``f + 1`` relayers,
docs/PROTOCOL.md "Who counts"), the replica pools those copies as one
:class:`~repro.core.messages.RelayCertificate`, the request ``seq = index +
1`` of the stream's pseudo-sender (:func:`relay_sender`).  The leader orders
it like any request, so the FIFO tracker releases a stream's batches in
index order and a skipped index is never overtaken; each follower checks
the certificate (:func:`certificate_problem`) before it votes for the
proposal.  ``f`` Byzantine votes never reach ``f + 1``, whatever digest or
index they carry.  ``tests/core/test_relay.py`` contains the adversarial
scenarios and ``tests/properties/test_relay_inbox_machine.py`` the state
machine.

Acknowledgements are cumulative.  A child replica answers a stream, not a
copy: one :class:`~repro.core.messages.RelayAck` carrying its next index to
release, to every current relayer, at most once per ack interval.  A parent
replica in its own group's current quorum relays live: its
:class:`RelayOutbox` sends each copy to the 2f+1 members of the child's
quorum (docs/PROTOCOL.md, "Who is sent what").  Every outbox keeps each
copy until ``f + 1`` current child members acknowledged past it — one of
them is correct and executed the certificate, so the child group decided
the batch — and retransmits the rest, each to the members that did not
acknowledge it (``tests/properties/test_relay_outbox_machine.py``).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Set,
    Tuple,
)

from repro.bcast.client import GroupProxy
from repro.bcast.config import capped_backoff
from repro.bcast.messages import Request
from repro.bcast.tally import Tally
from repro.core.messages import RelayAck, RelayBatch, RelayCertificate
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign
from repro.env import Actor, TimerHandle

#: how far past the next index to release a relayer's copy may point; a
#: copy beyond is dropped unacknowledged (its relayer retransmits), so a
#: Byzantine relayer cannot grow a child's inbox without bound
RELAY_WINDOW = 1024


def relay_sender(parent: str) -> str:
    """The pseudo-sender of ``parent``'s relay certificates at a child: no
    endpoint has that name, and no key signs for it."""
    return f"relay@{parent}"


class QuorumMerge:
    """A ballot among ``senders`` (the parent group's replicas): a value is
    released once its key carries at ``threshold`` (``f + 1``)."""

    def __init__(self, senders: Iterable[str], threshold: int) -> None:
        self.senders = frozenset(senders)
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if threshold > len(self.senders):
            raise ValueError("threshold cannot exceed the number of senders")
        self.threshold = threshold
        self.tally = Tally()

    def push(self, sender: str, key: Hashable, value: Any) -> List[Any]:
        """Record ``sender``'s vote for ``key``; returns ``[value]`` if it
        is the vote that makes the key carry, else ``[]``."""
        if self.tally.reaches(key, sender, self.senders, self.threshold,
                              value):
            return [value]
        return []


def certificate_problem(certificate: RelayCertificate, group: str,
                        relayers: Iterable[str], threshold: int,
                        verified: Callable[[Request], bool]) -> Optional[str]:
    """Why ``certificate`` does not prove its batch, or None.

    It proves it with ``threshold`` copies or more, for ``group``, from
    distinct ``relayers``, each a ``RelayBatch`` of the certificate's index
    with one digest, each ``verified`` (its signature holds).  ``threshold``
    is ``f + 1``, so one of them is a correct relayer's.
    """
    index, copies = certificate.index, certificate.copies
    if type(index) is not int or index < 0:
        return "not an index"
    if len(copies) < threshold:
        return "too few copies"
    signers: Set[str] = set()
    key = None
    for copy in copies:
        if copy.group != group:
            return "a copy for another group"
        if copy.sender not in relayers or copy.sender in signers:
            return "not distinct relayers"
        signers.add(copy.sender)
        batch = copy.command
        if (not isinstance(batch, RelayBatch) or type(batch.index) is not int
                or batch.index != index):
            return "a copy of another index"
        if key is None:
            key = digest(batch)
        elif digest(batch) != key:
            return "copies of different batches"
        if not verified(copy):
            return "a forged copy"
    return None


class RelayInbox:
    """One parent stream's relayed copies at one child replica, as votes.

    :attr:`next_index` — the index of the stream's next batch to release —
    is replicated: it advances only when that batch's certificate executes,
    and a checkpoint carries it.  Everything else is this replica's own and
    never replicated: each relayer's first copy of every index from
    :attr:`next_index` on, in arrival order, voted into one
    :class:`QuorumMerge` per index keyed by the digest of the batch, and the
    certificate copies of each index that carried.
    """

    def __init__(self, relayers: Iterable[str], threshold: int) -> None:
        #: index -> relayer -> its first copy, in arrival order
        self._copies: Dict[int, Dict[str, Request]] = {}
        self._ballots: Dict[int, QuorumMerge] = {}
        #: index -> the first ``threshold`` copies with one digest
        self._quorums: Dict[int, Tuple[Request, ...]] = {}
        self.restore(relayers, threshold, 0)

    def held(self, relayer: str, index: int) -> Optional[Request]:
        """``relayer``'s copy of ``index``, if this inbox holds one."""
        return self._copies.get(index, {}).get(relayer)

    def vote(self, copy: Request) -> Optional[Tuple[Request, ...]]:
        """Count ``copy`` — a relayer's signed ``RelayBatch`` request whose
        signature the caller checked — as its sender's vote at its index.

        Returns the certificate copies of that index when this vote
        completes its quorum, or repeats a vote at an index that has one (a
        retransmission offers the certificate again); else None.  A copy
        from outside the membership, of a released index or beyond
        :data:`RELAY_WINDOW` counts nothing.
        """
        index = copy.command.index
        if (copy.sender not in self.relayers or index < self.next_index
                or index >= self.next_index + RELAY_WINDOW):
            return None
        copies = self._copies.setdefault(index, {})
        if copy.sender in copies:
            return self._quorums.get(index)
        copies[copy.sender] = copy
        ballot = self._ballots.get(index)
        if ballot is None:
            ballot = self._ballots[index] = QuorumMerge(self.relayers,
                                                        self.threshold)
        key = digest(copy.command)
        if not ballot.push(copy.sender, key, copy):
            return None
        quorum = self._quorums[index] = tuple(
            ballot.tally.values(key, self.relayers)[:self.threshold])
        return quorum

    def certificates(self) -> Iterator[Tuple[int, Tuple[Request, ...]]]:
        """``(index, certificate copies)`` of every index with a quorum."""
        return iter(sorted(self._quorums.items()))

    def release(self, index: int) -> None:
        """Advance past ``index``, whose certificate executed, dropping every
        copy held for it."""
        self._copies.pop(index, None)
        self._ballots.pop(index, None)
        self._quorums.pop(index, None)
        self.next_index = index + 1

    def restore(self, relayers: Iterable[str], threshold: int,
                next_index: int) -> None:
        """Adopt a membership and a next index (a parent reconfiguration, a
        checkpoint install): every copy held is voted again, as if it had
        just arrived."""
        QuorumMerge(relayers, threshold)  # validates the threshold
        self.relayers = frozenset(relayers)
        self.threshold = threshold
        #: the index of the next batch to release
        self.next_index = next_index
        kept = self._copies
        self._copies, self._ballots, self._quorums = {}, {}, {}
        for copies in kept.values():
            for copy in copies.values():
                self.vote(copy)


class RelayOutbox(GroupProxy):
    """A parent replica's proxy into one child group: what it relayed there
    and the child has not acknowledged yet.

    Each ``RelayBatch`` is signed once, as the owner's request ``seq = index
    + 1``.  An owner in its own group's current quorum sends it to the
    quorum of the child's estimated regency
    (:meth:`~repro.bcast.client.GroupProxy.targets`; each ack reports its
    sender's regency); any other keeps it unsent for the backoff below.
    The child answers the stream, not a request: the outbox records each
    current member's highest :class:`~repro.core.messages.RelayAck` (fed to
    :meth:`handle_reply`) and keeps a copy until ``f + 1`` of those cover it
    (acknowledge a next index past it): at least one of them is correct and has executed the batch's
    certificate, so the child group decided it.  A Byzantine member's absurd
    or regressing index is one vote at most.  A copy is due for
    retransmission a backoff period after it was last sent and after the
    covered :attr:`horizon` last advanced — the first step after an
    advance, doubling with each retransmission while none comes.  One timer
    per stream fires when the first copy is due and sends every copy due
    then to the members that do not cover it, those outside the quorum
    included: a retransmission widens to the whole child group.
    Retransmissions are counted as ``proxy.retransmit``, one per copy
    resent.
    """

    def __init__(self, owner: Actor, group_id: str, replicas: Tuple[str, ...],
                 f: int, registry: KeyRegistry,
                 retransmit_timeout: Optional[float] = 4.0) -> None:
        super().__init__(owner, group_id, replicas, f, registry,
                         retransmit_timeout)
        #: index -> (the signed copy, when it was last sent), until f+1
        #: current members cover it
        self._unacked: Dict[int, Tuple[Request, float]] = {}
        #: current member -> the highest next index it acknowledged
        self._acked: Dict[str, int] = {}
        #: every index below is covered by f+1 current members
        self.horizon = 0
        self._timer: Optional[TimerHandle] = None
        self._retries = 0
        #: when the horizon last advanced (or the owner recovered)
        self._progress = 0.0
        #: when the armed timer fires: the earliest time a copy is due
        self._due_at = 0.0

    def unacked(self) -> Dict[int, Request]:
        """The copies kept, by index."""
        return {index: copy for index, (copy, __) in self._unacked.items()}

    def submit(self, batch: RelayBatch) -> Request:
        """Sign ``batch`` and keep it, unless the child already covers its
        index, and send it to :meth:`live_targets`; returns the signed
        copy."""
        unsigned = Request(self.group_id, self.owner.name, batch.index + 1,
                           batch)
        copy = unsigned.with_signature(
            sign(self.registry, self.owner.name, unsigned.signed_part()))
        if batch.index >= self.horizon:
            self._unacked[batch.index] = (copy, self.owner.clock.now)
            live = self.live_targets()
            if live:
                self._send(copy, live)
            if self._timer is None:
                self._arm()
        return copy

    def live_targets(self) -> Tuple[str, ...]:
        """Where :meth:`submit` sends a copy: :meth:`targets` while the
        owner is in its own group's current quorum, else nowhere."""
        return self.targets() if self.owner.in_quorum() else ()

    def _send(self, copy: Request, replicas: Iterable[str]) -> None:
        """Send ``copy`` to ``replicas`` (the relay adversaries' seam)."""
        for replica in replicas:
            self.owner.send(replica, copy)

    def _count(self, src: str, ack: RelayAck) -> bool:
        if isinstance(ack, RelayAck) and ack.next_index > self._acked.get(src, 0):
            self._acked[src] = ack.next_index
            self._cover()
        return True

    def update_replicas(self, replicas: Tuple[str, ...], f: int) -> None:
        """Adopt the child's reconfigured membership: departed members'
        acknowledgements stop counting."""
        super().update_replicas(replicas, f)
        self._acked = {member: index for member, index in self._acked.items()
                       if member in self.replicas}
        self._cover()

    def _cover(self) -> None:
        """Recompute :attr:`horizon`; on an advance, drop the copies below
        it and restart the retransmission backoff."""
        marks = sorted(self._acked.values(), reverse=True)
        horizon = marks[self.f] if len(marks) > self.f else 0
        advanced = horizon > self.horizon
        self.horizon = horizon
        if not advanced:
            return
        for index in [index for index in self._unacked if index < horizon]:
            del self._unacked[index]
        self.restart()

    def restart(self) -> None:
        """Re-arm the retransmission timer from the first backoff step (an
        advance, or the owner's recovery: a crash cancelled the timer)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._retries = 0
        self._progress = self.owner.clock.now
        if self._unacked:
            self._arm()

    def _due(self, sent: float) -> float:
        """When a copy last sent at ``sent`` is due for retransmission."""
        return (max(sent, self._progress)
                + capped_backoff(self.retransmit_timeout, self._retries))

    def _arm(self) -> None:
        if self.retransmit_timeout is None:
            return
        self._due_at = self._due(min(sent for __, sent
                                     in self._unacked.values()))
        self._timer = self.owner.set_timer(
            max(0.0, self._due_at - self.owner.clock.now), self._resend)

    def _resend(self) -> None:
        """Send every copy due to the members that do not cover it."""
        self._timer = None
        if not self._unacked or self._retries >= self.max_retries:
            return  # give up quietly until the child acknowledges again
        due = [index for index, (__, sent) in self._unacked.items()
               if self._due(sent) <= self._due_at]
        self._retries += 1
        now = self.owner.clock.now
        for index in due:
            copy = self._unacked[index][0]
            self.owner.monitor.count("proxy.retransmit")
            self._send(copy, [member for member in self.replicas
                              if self._acked.get(member, 0) <= index])
            self._unacked[index] = (copy, now)
        self._arm()
