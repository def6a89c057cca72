"""Application-level wire messages of ByzCast.

A multicast travels the tree as a :class:`WireMulticast`: the command of
the client's :class:`~repro.bcast.messages.Request` at the group where it
enters, and an element of a :class:`RelayBatch` command on every hop below.
It carries no signature of its own: the one signature a multicast needs is
the client's signature of the ``Request`` that submits it to its lca, and
the lca group acts on it only if that request's sender is the wire's
``sender``.  Below the lca a group acts on a wire only once ``f + 1``
parent replicas relayed it, so a Byzantine server cannot fabricate
multicasts on behalf of clients (Integrity, §II-B).

Destination groups reached by a relay answer the originating client with
:class:`MulticastReply`; a destination that is also the entry group answers
with the ordered request's reply instead.  The client accepts a group's
delivery once ``f + 1`` of its replicas replied (§IV, Fig. 2), and asks a
relayed destination again with a :class:`DeliveryQuery` when they did not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.bcast.messages import Request
from repro.crypto.digest import digest
from repro.types import ClientId, GroupId, MessageId, MulticastMessage


@dataclass(frozen=True)
class WireMulticast:
    """The serialized form of an atomically multicast message.

    ``dst`` is kept sorted so the canonical form (and therefore the
    signature of the request that carries it, and digests) is
    deterministic.
    """

    sender: str
    seq: int
    dst: Tuple[str, ...]
    payload: Tuple

    @classmethod
    def from_message(cls, message: MulticastMessage) -> "WireMulticast":
        """The wire of ``message``."""
        wire = cls(
            sender=str(message.mid.sender),
            seq=message.mid.seq,
            dst=tuple(sorted(message.dst)),
            payload=tuple(message.payload),
        )
        if wire.payload is message.payload:
            # ``message`` is exactly what to_message() would build: share
            # it instead of building a second one per process.
            object.__setattr__(wire, "_message", message)
        return wire

    def to_message(self) -> MulticastMessage:
        """The multicast this wire carries; built once and shared (frozen
        wire, frozen message) by every replica that a-delivers the wire."""
        cached = self.__dict__.get("_message")
        if cached is None:
            cached = MulticastMessage(
                mid=MessageId(ClientId(self.sender), self.seq),
                dst=frozenset(GroupId(g) for g in self.dst),
                payload=self.payload,
            )
            object.__setattr__(self, "_message", cached)
        return cached

    def identity(self) -> Tuple:
        """Content identity used for relay dedup/counting keys (reused)."""
        cached = self.__dict__.get("_identity")
        if cached is None:
            cached = (self.sender, self.seq, self.dst, self.payload)
            object.__setattr__(self, "_identity", cached)
        return cached

    def identity_digest(self) -> bytes:
        """``digest(identity())``, memoised beside it.

        What the running digest of a checkpoint's acted ids is fed; a
        wire shared by reference is hashed once.  It covers the identity,
        not the wire: ``signature`` is no part of it.
        """
        cached = self.__dict__.get("_identity_digest")
        if cached is None:
            cached = digest(self.identity())
            object.__setattr__(self, "_identity_digest", cached)
        return cached


@dataclass(frozen=True)
class RelayBatch:
    """What one replica relays into one child group for one executed batch.

    The only form a relay takes (a single message is a batch of one): the
    parent replica acts on a whole decided batch in one job, so everything
    it forwards to one child travels as one ordered request.  ``wires`` is
    in act order, and ``index`` is the batch's position in everything the
    parent group relayed to this child (0, 1, 2, ...).  The cut is a
    function of ordered execution — one flush per executed batch, chunked
    at the child's replicated ``max_batch`` — so every correct parent
    replica relays byte-identical batches under the same indexes, and the
    child confirms a batch once f+1 of them relayed it, by its digest
    (docs/PROTOCOL.md §3.2).
    """

    wires: Tuple[WireMulticast, ...]
    index: int


@dataclass(frozen=True)
class RelayCertificate:
    """``f + 1`` parent relayers' signed copies of one relayed batch.

    A child replica makes one once ``f + 1`` distinct replicas of ``parent``
    sent it copies of the ``RelayBatch`` of ``index`` with one digest
    (:class:`~repro.core.relay.RelayInbox`), and pools it as request ``seq =
    index + 1`` of the pseudo-sender
    :func:`~repro.core.relay.relay_sender`; the group orders it once instead
    of every relayer's copy.  ``copies`` are the relayers' own signed
    requests, carried as they arrived, so
    every follower checks each signature (docs/PROTOCOL.md §3.2).  Anything
    else in ``copies`` is refused at construction, so a frame that carries
    it does not decode.
    """

    parent: str
    index: int
    copies: Tuple[Request, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.copies, tuple) or not all(
                isinstance(copy, Request) for copy in self.copies):
            raise TypeError("a relay certificate carries signed requests")


@dataclass(frozen=True)
class RelayAck:
    """A child replica's cumulative acknowledgement of one relay stream.

    ``sender``, a replica of the child ``group``, has released every batch
    ``parent`` relayed to ``group`` below ``next_index``.  Unordered: each
    child replica sends it to the parent's current replicas at most once per
    ack interval, and at once to a relayer whose copy it will never count
    (docs/PROTOCOL.md §3.2).  A parent drops a copy once ``f + 1`` current
    child members acknowledged past its index
    (:class:`~repro.core.relay.RelayOutbox`).  Anything but a natural
    ``next_index`` is refused at construction, so a frame that carries it
    does not decode.
    """

    group: str
    parent: str
    sender: str
    next_index: int
    #: the sender's current regency, which the parent's outbox tracks as a
    #: client proxy does (:class:`~repro.bcast.client.GroupProxy`)
    regency: int = 0

    def __post_init__(self) -> None:
        if type(self.next_index) is not int or self.next_index < 0:
            raise TypeError("a relay ack carries a natural next index")


@dataclass(frozen=True)
class MembershipUpdate:
    """An ordered notice that another group's membership changed.

    The elasticity controller submits this to every group wired to a
    reconfigured group (its overlay parent and children) through the normal
    request path, so the update executes at one consensus boundary on every
    replica.  That ordering matters: the parent-relay quorum merge is
    *replicated* state (it is checkpointed), so refreshing it out-of-band at
    arbitrary per-replica execution points would let released messages
    interleave differently with ordered traffic across replicas — an
    agreement violation.  Authorization: only the executing group's own
    ``admin@<group>`` identity may carry it.
    """

    group: str
    replicas: Tuple[str, ...]
    f: int


@dataclass(frozen=True)
class TreeUpdate:
    """An ordered command switching the whole deployment to a new overlay.

    A tree change is a reconfiguration *every* group agrees on: the
    elasticity controller orders one ``TreeUpdate`` per group (same epoch,
    same shape) after draining client traffic, so each group adopts the new
    routing at one consensus boundary.  ``parents`` is the canonical sorted
    ``(child, parent)`` edge list of the new tree and ``epoch`` increases
    monotonically — replaying a checkpointed history re-applies updates
    idempotently, and a stale epoch is a no-op.  Like
    :class:`MembershipUpdate`, only the executing group's own
    ``admin@<group>`` identity may carry it (see docs/TREES.md).
    """

    epoch: int
    parents: Tuple[Tuple[str, str], ...]
    targets: Tuple[str, ...]


@dataclass(frozen=True)
class MulticastReply:
    """Per-replica acknowledgement of a relayed delivery, to the originating
    client (the entry group's delivery rides its ordered reply).

    ``result`` optionally carries the application's (deterministic) output
    for this message at this group — e.g. the values read by a get.  The
    client accepts a group's result once ``f + 1`` replicas report it
    identically.
    """

    group: str
    replica: str
    sender: str
    seq: int
    result: Any = None


@dataclass(frozen=True)
class DeliveryQuery:
    """A client asking a replica of ``group`` to send its
    :class:`MulticastReply` for the client's message ``seq`` again.

    Nothing else re-sends a lost ``MulticastReply``: the entry group has
    answered, so the client's proxy no longer retransmits.  The query is
    unordered and changes no state; a replica that has not a-delivered the
    message yet, or no longer keeps its reply, stays silent.
    """

    group: str
    sender: str
    seq: int
