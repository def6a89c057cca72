"""Client-side submission proxy for one broadcast group.

The proxy implements the BFT client discipline of §II-D / §IV: it signs and
sends each request to the 2f+1 replicas of the quorum of the regency it
estimates the group runs (:func:`~repro.bcast.reconfig.regency_quorum`),
then accepts a result only once ``f + 1`` current members returned the
*same* result, a vote being the result's canonical bytes
(docs/PROTOCOL.md, "Who counts").  Those replicas answer live; requests
that stay unanswered are retransmitted to **every** replica with
exponential backoff, which also covers replicas that missed
the request (their reply cache answers duplicates).  Each reply carries
its sender's regency, and the estimate follows the (f+1)-th highest that
distinct members report (docs/PROTOCOL.md, "Who is sent what").

External clients submit through it; ByzCast replicas relaying into child
groups keep their own outbox (:class:`repro.core.relay.RelayOutbox`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.bcast.config import capped_backoff
from repro.bcast.messages import ReadReply, ReadRequest, Reply, Request
from repro.bcast.reconfig import regency_quorum
from repro.bcast.tally import Tally
from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign
from repro.env import Actor, TimerHandle

ResultCallback = Callable[[Any], None]
#: fired when an optimistic read quorum is accepted: (cid, result, voters)
ReadAcceptCallback = Callable[[int, Any, FrozenSet[str]], None]


@dataclass
class _Outstanding:
    """Book-keeping for one in-flight request."""

    request: Request
    callback: Optional[ResultCallback]
    #: the replies, by the canonical bytes of their result
    votes: Tally = field(default_factory=Tally)
    timer: Optional[TimerHandle] = None
    retries: int = 0


class _GroupEndpoint:
    """What both proxies share: the owner, the group's members and f."""

    def __init__(self, owner: Actor, group_id: str,
                 replicas: Tuple[str, ...], f: int) -> None:
        self.owner = owner
        self.group_id = group_id
        self.replicas = tuple(replicas)
        self.f = f
        self._outstanding: Dict[int, Any] = {}

    def _send_to(self, replicas: Tuple[str, ...], message: Any) -> None:
        for replica in replicas:
            self.owner.send(replica, message)

    def update_replicas(self, replicas: Tuple[str, ...], f: int) -> None:
        """Adopt a reconfigured membership (keeps sequence and round ids);
        the outstanding tallies count among it from now on."""
        self.replicas = tuple(replicas)
        self.f = f

    def pending(self) -> int:
        """Requests (or read rounds) still waiting for their quorum."""
        return len(self._outstanding)


class GroupProxy(_GroupEndpoint):
    """Submits commands to one group and gathers matching replies.

    Args:
        owner: the actor on whose behalf requests are sent (its name is the
            request sender identity; replies must be routed back through
            :meth:`handle_reply` from the owner's ``on_message``).
        group_id: target broadcast group.
        replicas: the group's replica endpoint names.
        f: the group's fault threshold.
        registry: key registry used to sign requests.
        retransmit_timeout: first retransmission delay; doubles per retry.
            ``None`` disables retransmission (fine on a loss-free network).
    """

    #: retransmissions per request before the proxy gives up quietly
    max_retries = 16

    def __init__(
        self,
        owner: Actor,
        group_id: str,
        replicas: Tuple[str, ...],
        f: int,
        registry: KeyRegistry,
        retransmit_timeout: Optional[float] = 4.0,
    ) -> None:
        super().__init__(owner, group_id, replicas, f)
        self.registry = registry
        self.retransmit_timeout = retransmit_timeout
        self._next_seq = 1
        self.submitted = 0
        self.completed = 0
        #: the regency the group is estimated to run: the (f+1)-th highest
        #: that distinct current members reported, never lowered
        self.regency = 0
        #: current member -> the highest regency it reported above the
        #: estimate
        self._reported: Dict[str, int] = {}

    def targets(self) -> Tuple[str, ...]:
        """The members a first send goes to: the estimated regency's
        quorum."""
        return regency_quorum(self.replicas, self.f, self.regency)

    def _heard(self, src: str, regency: Any) -> None:
        """Member ``src`` runs ``regency``: raise the estimate to the
        (f+1)-th highest report of distinct current members, so f liars
        cannot raise it past a correct member's regency."""
        if (type(regency) is not int or regency <= self.regency
                or regency <= self._reported.get(src, 0)):
            return
        self._reported[src] = regency
        marks = sorted(self._reported.values(), reverse=True)
        if len(marks) > self.f and marks[self.f] > self.regency:
            self.regency = marks[self.f]

    def update_replicas(self, replicas: Tuple[str, ...], f: int) -> None:
        """Adopt a reconfigured membership: a departed member's report
        stops counting, as its votes do."""
        super().update_replicas(replicas, f)
        self._reported = {member: regency for member, regency
                          in self._reported.items() if member in self.replicas}

    # -- submission ----------------------------------------------------------

    def submit(self, command: Any, callback: Optional[ResultCallback] = None) -> int:
        """Sign and number ``command`` and send it to :meth:`targets`;
        returns its sequence number.

        ``callback(result)`` fires exactly once, when matching replies
        carry.
        """
        seq = self._next_seq
        self._next_seq += 1
        unsigned = Request(self.group_id, self.owner.name, seq, command, None)
        request = unsigned.with_signature(
            sign(self.registry, self.owner.name, unsigned.signed_part()))
        entry = _Outstanding(request=request, callback=callback)
        self._outstanding[seq] = entry
        self.submitted += 1
        self._send_to(self.targets(), request)
        self._arm_retransmit(entry)
        return seq

    def _arm_retransmit(self, entry: _Outstanding) -> None:
        if self.retransmit_timeout is None:
            return
        delay = capped_backoff(self.retransmit_timeout, entry.retries)
        entry.timer = self.owner.set_timer(delay, partial(self._retransmit, entry))

    def _retransmit(self, entry: _Outstanding) -> None:
        if entry.request.seq not in self._outstanding:
            return
        if entry.retries >= self.max_retries:
            return  # give up quietly; the owner may inspect pending()
        entry.retries = min(entry.retries + 1, self.max_retries)
        self.owner.monitor.count("proxy.retransmit")
        self._send_to(self.replicas, entry.request)
        self._arm_retransmit(entry)

    def note_progress(self, seq: int) -> None:
        """Reset the backoff for ``seq`` after *accepted* (quorum) progress.

        Callers must invoke this only when ``f + 1`` matching votes landed
        somewhere downstream (e.g. one destination group of a multicast
        confirmed) — never on a bare reply.  A single Byzantine fast-replier
        can manufacture bare replies at will; if those counted as progress it
        could pin the backoff at its floor and keep the client hot-looping
        retransmissions forever.  Quorum-matched progress, by contrast,
        carries at least one correct replica's vouch.
        """
        entry = self._outstanding.get(seq)
        if entry is None or entry.retries == 0:
            return
        entry.retries = 0
        if entry.timer is not None:
            entry.timer.cancel()
        self._arm_retransmit(entry)

    def settle(self, seq: int) -> bool:
        """Complete ``seq`` without its reply quorum, because the owner holds
        f+1-vouched proof of its outcome from elsewhere (a destination group
        confirmed the multicast the entry group ordered); its callback does
        not fire.  True if ``seq`` was outstanding."""
        entry = self._outstanding.get(seq)
        if entry is None:
            return False
        self._complete(entry, None, notify=False)
        return True

    # -- replies ------------------------------------------------------------

    def handle_reply(self, src: str, reply: Any) -> bool:
        """Feed an answer from the group received by the owner: a
        :class:`Reply`, or what a subclass's group answers with
        (:meth:`_count`).  Only a member's, under its own name, counts,
        and the regency it reports feeds the estimate.

        Returns True when the reply belonged to this proxy (matched group and
        an outstanding request), so owners with several proxies can dispatch.
        """
        if reply.group != self.group_id:
            return False
        if src not in self.replicas or reply.sender != src:
            return False
        self._heard(src, reply.regency)
        return self._count(src, reply)

    def _count(self, src: str, reply: Reply) -> bool:
        """Count member ``src``'s ``reply``; True if it was this proxy's."""
        if reply.req_sender != self.owner.name:
            return False
        entry = self._outstanding.get(reply.req_seq)
        if entry is None:
            return True  # ours, but already completed
        key = bytes(canonical_bytes(reply.result))
        entry.votes.add(key, src)
        if entry.votes.carries(key, self.replicas, self.f + 1):
            self._complete(entry, reply.result)
        return True

    def _complete(self, entry: _Outstanding, result: Any,
                  notify: bool = True) -> None:
        del self._outstanding[entry.request.seq]
        if entry.timer is not None:
            entry.timer.cancel()
        self.completed += 1
        if notify and entry.callback is not None:
            entry.callback(result)


@dataclass
class _OutstandingRead:
    """Book-keeping for one in-flight read round."""

    request: ReadRequest
    on_accept: ReadAcceptCallback
    on_exhausted: Callable[[], None]
    #: the replies, by (cid, canonical bytes of the value)
    votes: Tally = field(default_factory=Tally)
    #: replicas probed this round — widening and exhaustion gate
    asked: Set[str] = field(default_factory=set)
    #: replicas heard from this round (vote or malformed)
    replied: Set[str] = field(default_factory=set)
    timer: Optional[TimerHandle] = None
    retries: int = 0


class ReadProxy(_GroupEndpoint):
    """Probes f+1 replicas of a group and accepts f+1 matching replies.

    The unordered read discipline (BFT-SMaRt ``invokeUnordered``): a reply
    votes for its (cid, canonical bytes of the value it carries) — a
    Byzantine replica can only vote for a value it sent — and a tally wins
    only when one such pair carries **and** that cid clears the proxy's
    monotone :attr:`floor`.

    A round first asks :attr:`voters` — the last accepted quorum's voters
    that are still members, topped up in membership order to
    :attr:`quorum` — or everyone before any quorum was accepted.  Once
    every replica asked has answered without an acceptable quorum, the
    same round *widens* to the rest of the membership (``read.widened``;
    same rid, tally and timer, not a retry).  When the full membership has
    answered without an acceptable quorum — or the round times out — the
    proxy retries to every member with exponential backoff and finally
    reports exhaustion so the owner can fall back to an ordered multicast.

    Backoff discipline (mirrors :meth:`GroupProxy.note_progress`): replies
    are **never** progress — only an accepted quorum completes the round.
    A Byzantine fast-replier answering every probe instantly with garbage
    therefore cannot stop the retry delay from growing.

    :attr:`quorum` is a property so the adversarial test battery can
    subclass and weaken it (mutation guard), demonstrating the unsafe
    outcome the ``f + 1`` rule prevents.
    """

    #: retries of a round before the proxy reports exhaustion
    max_retries = 2
    #: seconds a round waits for its quorum before the next (backed off)
    read_timeout = 1.0

    def __init__(
        self,
        owner: Actor,
        group_id: str,
        replicas: Tuple[str, ...],
        f: int,
    ) -> None:
        super().__init__(owner, group_id, replicas, f)
        #: the highest accepted cid: accepted cids must not regress (the
        #: owner's session guarantee; without it an f+1 quorum of *lagging*
        #: correct replicas plus a Byzantine echo could serve a past state)
        self.floor = -1
        self._next_rid = 1
        #: the last accepted quorum's voters, a round's first probes
        #: (``None`` until a quorum was accepted: then a round asks everyone)
        self.voters: Optional[FrozenSet[str]] = None
        self.accepted = 0
        self.exhausted = 0

    @property
    def quorum(self) -> int:
        return self.f + 1

    def update_replicas(self, replicas: Tuple[str, ...], f: int) -> None:
        super().update_replicas(replicas, f)
        members = set(self.replicas)
        if self.voters is not None:
            self.voters &= members
        for entry in list(self._outstanding.values()):
            entry.asked &= members
            entry.replied &= members
            # a departed probe will never vouch: widen now, not at the timer
            self._maybe_widen(entry)

    # -- submission ----------------------------------------------------------

    def read(
        self,
        payload: Any,
        on_accept: ReadAcceptCallback,
        on_exhausted: Callable[[], None],
    ) -> int:
        """Probe the group; exactly one of the two callbacks fires once."""
        rid = self._next_rid
        self._next_rid += 1
        request = ReadRequest(self.group_id, self.owner.name, rid, payload)
        entry = _OutstandingRead(request=request, on_accept=on_accept,
                                 on_exhausted=on_exhausted)
        self._outstanding[rid] = entry
        self._ask(entry, self._first_probes())
        self._arm_timer(entry)
        return rid

    def _first_probes(self) -> Tuple[str, ...]:
        """The last quorum's voters still in the group, topped up in
        membership order to :attr:`quorum`; everyone before any quorum."""
        if self.voters is None:
            return self.replicas
        first = sorted(self.replicas, key=lambda r: r not in self.voters)
        return tuple(first[:self.quorum])

    def _ask(self, entry: _OutstandingRead, replicas: Tuple[str, ...]) -> None:
        entry.asked.update(replicas)
        for replica in replicas:
            self.owner.send(replica, entry.request)

    def _arm_timer(self, entry: _OutstandingRead) -> None:
        entry.timer = self.owner.set_timer(
            capped_backoff(self.read_timeout, entry.retries),
            partial(self._next_round, entry))

    def _next_round(self, entry: _OutstandingRead) -> None:
        """Retry (fresh tally, backed-off timer) or report exhaustion."""
        rid = entry.request.rid
        if rid not in self._outstanding:
            return
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        if entry.retries >= self.max_retries:
            del self._outstanding[rid]
            self.exhausted += 1
            self.owner.monitor.count("read.exhausted")
            entry.on_exhausted()
            return
        entry.retries += 1
        entry.votes.clear()
        entry.asked.clear()
        entry.replied.clear()
        self.owner.monitor.count("read.retry")
        self._ask(entry, self.replicas)
        self._arm_timer(entry)

    # -- replies ------------------------------------------------------------

    def handle_read_reply(self, src: str, reply: ReadReply) -> bool:
        """Feed a :class:`ReadReply` received by the owner; True if ours."""
        if reply.group != self.group_id or reply.req_sender != self.owner.name:
            return False
        if src not in self.replicas or reply.sender != src:
            return False
        entry = self._outstanding.get(reply.rid)
        if entry is None:
            return True  # ours, but the round already closed
        if src in entry.replied:
            return True  # one vote per replica per round
        entry.replied.add(src)
        key = (reply.cid, bytes(canonical_bytes(reply.result)))
        entry.votes.add(key, src)
        if entry.votes.carries(key, self.replicas, self.quorum):
            if reply.cid >= self.floor:
                self._accept(entry, reply.cid, reply.result, frozenset(
                    entry.votes.voters(key, self.replicas)))
                return True
            # A matching quorum below the monotone floor: the session
            # guarantee forbids serving it; keep collecting / retry.
            self.owner.monitor.count("read.stale_quorum")
        self._maybe_widen(entry)
        return True

    def _maybe_widen(self, entry: _OutstandingRead) -> None:
        """Everyone asked answered, no acceptable quorum formed: ask the
        rest of the group, or retry once the full membership answered."""
        if not entry.replied >= entry.asked:
            return
        rest = tuple(r for r in self.replicas if r not in entry.asked)
        if rest:
            self.owner.monitor.count("read.widened")
            self._ask(entry, rest)
        else:
            self._next_round(entry)

    def _accept(self, entry: _OutstandingRead, cid: int, result: Any,
                voters: FrozenSet[str]) -> None:
        del self._outstanding[entry.request.rid]
        if entry.timer is not None:
            entry.timer.cancel()
        self.accepted += 1
        self.voters = voters
        self.floor = max(self.floor, cid)
        entry.on_accept(cid, result, voters)
