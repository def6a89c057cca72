"""Concrete Byzantine behaviours.

Replica-level behaviours subclass :class:`~repro.bcast.replica.Replica` and
override a single protocol step; application-level behaviours subclass
:class:`~repro.core.node.ByzCastApplication` and corrupt the relay logic.
None of them can forge signatures (they hold only their own keys), which is
exactly the §II-A adversary.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, Set, Tuple

from repro.bcast.messages import (
    Accept, Propose, ReadReply, ReadRequest, Reply, Request, Write,
)
from repro.bcast.replica import Replica
from repro.core.messages import (
    MulticastReply, RelayAck, RelayBatch, RelayCertificate, WireMulticast,
)
from repro.core.node import ByzCastApplication
from repro.core.relay import RelayOutbox
from repro.crypto.digest import digest
from repro.crypto.signatures import Signature, sign


class EquivocatingLeaderReplica(Replica):
    """A leader that proposes different batches to different halves.

    If the batch has more than one request, one half of the peers receives
    it reversed (a different digest); with a single request, the second
    half receives nothing.  Its PROPOSE is its WRITE, one per follower, so
    at most one digest gathers a write quorum (the larger half's, at f =
    1) and no correct quorum ACCEPTs either: the group recovers via a
    regency change — a liveness attack that must not compromise safety.
    """

    def _send_propose(self, cid: int, regency: int, batch: Tuple[Request, ...]) -> None:
        if not self._still_leading(regency):
            return
        self._started[cid] = regency
        self._assembling = False
        peers = self.peers()
        half = len(peers) // 2
        first, second = peers[:half], peers[half:]
        proposal_a = Propose(self.group_id, regency, cid, batch, self.name)
        for peer in first:
            self.send(peer, proposal_a)
        if len(batch) > 1:
            twisted = tuple(reversed(batch))
            proposal_b = Propose(self.group_id, regency, cid, twisted, self.name)
            for peer in second:
                self.send(peer, proposal_b)
        self.monitor.record(self.name, "byzantine.equivocation", cid=cid)
        self._process_proposal(self.name, proposal_a)


class ForgingCertificateLeaderReplica(Replica):
    """A child-group leader that proposes relay certificates no correct
    replica accepts.

    Each certificate it proposes keeps its first f genuine copies and, by
    turns, adds one of them again (a duplicated signer), the last copy under
    a signature of its own key (a forged signer), or the last batch signed
    as itself, a replica that is no relayer of the parent (as a departed
    relayer is not) — or it moves the certificate to the next index (out
    of FIFO order).  Correct followers refuse the proposal, their request
    timers change the regency, and the next leader orders the genuine
    certificates.
    """

    def _send_propose(self, cid: int, regency: int,
                      batch: Tuple[Request, ...]) -> None:
        spoilt = tuple(self._spoil(request, cid)
                       if isinstance(request.command, RelayCertificate)
                       else request for request in batch)
        super()._send_propose(cid, regency, spoilt)

    def _spoil(self, request: Request, turn: int) -> Request:
        self.monitor.count("byzantine.bad_certificate")
        certificate = request.command
        *genuine, last = certificate.copies
        kind = turn % 4
        if kind == 3:
            return Request(request.group, request.sender, request.seq + 1,
                           RelayCertificate(certificate.parent,
                                            certificate.index + 1,
                                            certificate.copies))
        if kind == 0:
            extra = genuine[0]
        else:
            signer = last.sender if kind == 1 else self.name
            unsigned = Request(last.group, signer, last.seq, last.command)
            tag = sign(self.registry, self.name, unsigned.signed_part()).tag
            extra = unsigned.with_signature(Signature(signer, tag))
        return Request(request.group, request.sender, request.seq,
                       RelayCertificate(certificate.parent, certificate.index,
                                        (*genuine, extra)))


class MuteReplica(Replica):
    """Receives everything, says nothing (a fail-silent Byzantine replica)."""

    def send(self, dst: str, payload: Any) -> None:
        self.monitor.count("byzantine.muted_send")


class DelayingReplica(Replica):
    """Delays every outgoing message by a fixed amount (slow adversary)."""

    #: injected via class attribute so the standard build path still works
    delay: float = 0.5

    def send(self, dst: str, payload: Any) -> None:
        if self.crashed:
            return
        self.set_timer(self.delay,
                       partial(Replica.send, self, dst, payload))


class WrongVoteReplica(Replica):
    """Votes with corrupted digests (cannot affect what honest quorums decide)."""

    def _broadcast(self, message: Any) -> None:
        if isinstance(message, Write):
            message = Write(message.group, message.regency, message.cid,
                            digest(("corrupt", message.digest)), message.sender)
        elif isinstance(message, Accept):
            message = Accept(message.group, message.regency, message.cid,
                             digest(("corrupt", message.digest)), message.sender)
        super()._broadcast(message)


class StaleReadReplica(Replica):
    """Serves read probes from a frozen snapshot of the past.

    The first probe it sees pins (cid, result); every later probe is
    answered with that stale pair — a well-formed vote, but the cid stops
    advancing.  A correct client's
    monotone floor plus the f+1 match keep stale quorums from forming
    (the honest majority answers with fresher cids).
    """

    def _serve_read(self, src: str, request: ReadRequest) -> None:
        pinned = getattr(self, "_pinned_read", None)
        if pinned is None:
            reader = getattr(self.app, "read", None)
            result = reader(request.payload) if reader is not None else None
            pinned = self._pinned_read = (self._applied_cid, result)
        cid, result = pinned
        self.monitor.count("byzantine.stale_read")
        self.send(src, ReadReply(
            group=self.group_id, sender=self.name, req_sender=request.sender,
            rid=request.rid, cid=cid, result=result))


class EquivocatingReadReplica(Replica):
    """Answers each probe round of the same client with a different value.

    Well-formed replies, but no two rounds agree — with up to f such
    replicas the honest f+1 overlap still fixes a single answer, while f+1
    equivocators could pin a client to an arbitrary value (which is why
    the quorum is f+1, not f).
    """

    def _serve_read(self, src: str, request: ReadRequest) -> None:
        count = getattr(self, "_equivocation_count", 0)
        self._equivocation_count = count + 1
        result = ("equivocation", count)
        self.monitor.count("byzantine.equivocating_read")
        self.send(src, ReadReply(
            group=self.group_id, sender=self.name, req_sender=request.sender,
            rid=request.rid, cid=self._applied_cid, result=result))


class FabricatedReadReplica(Replica):
    """Serves a value no correct replica ever executed.

    A *colluding* fabricator: every instance answers with the same
    fabricated value at the same (inflated) cid, so f of them form a
    perfectly consistent — and perfectly wrong — near-quorum.  Safety
    rests on the arithmetic: f matching fabrications are one vote short
    of f+1, and the honest side never completes their quorum.
    """

    #: shared across instances so colluders agree byte-for-byte
    FABRICATION: Tuple = ("fabricated", "value")
    #: cid inflation makes the lie look maximally fresh
    CID_BOOST = 1_000_000

    def _serve_read(self, src: str, request: ReadRequest) -> None:
        result = self.FABRICATION
        self.monitor.count("byzantine.fabricated_read")
        self.send(src, ReadReply(
            group=self.group_id, sender=self.name, req_sender=request.sender,
            rid=request.rid, cid=self._applied_cid + self.CID_BOOST,
            result=result))


class SilentReadReplica(Replica):
    """Orders and executes like a correct replica, never answers a read.

    Among a client's first probes it costs that client one round timeout:
    the retry asks everyone, and the replicas that answer become the
    client's next first probes.
    """

    def _serve_read(self, src: str, request: ReadRequest) -> None:
        self.monitor.count("byzantine.silent_read")


class SlowReadReplica(Replica):
    """Answers reads correctly, ``delay`` seconds late.

    ``delay`` sits just inside ``ReadProxy``'s default 1 s round timeout:
    a slow first probe holds a read back without ever timing it out or
    changing its value.
    """

    delay: float = 0.9

    def _serve_read(self, src: str, request: ReadRequest) -> None:
        self.monitor.count("byzantine.slow_read")
        self.set_timer(self.delay,
                       partial(Replica._serve_read, self, src, request))


class SilentRelayApp(ByzCastApplication):
    """Algorithm 1 with the relay step removed: never forwards to children.

    Up to ``f`` such replicas per group cannot stop a message: the child
    group's f+1 quorum merge only needs the 2f+1 correct relayers.
    """

    def _flush_relays(self, child: str, wires, ctx) -> None:
        ctx.monitor.record(ctx.replica_name, "byzantine.silent_relay", child=child)


class FabricatingRelayApp(ByzCastApplication):
    """Relays correctly but also injects fabricated multicasts downstream.

    Each fabricated message sits inside the batch, right behind the real
    one it imitates.  Fewer than f+1 parents relay it, so correct children
    must never release it.
    """

    def _flush_relays(self, child: str, wires, ctx) -> None:
        forged = []
        for wire in wires:
            forged += [wire, WireMulticast(
                sender=wire.sender,
                seq=wire.seq + 1_000_000,
                dst=wire.dst,
                payload=("fabricated",),
            )]
        ctx.monitor.record(ctx.replica_name, "byzantine.fabricated_relay", child=child)
        super()._flush_relays(child, forged, ctx)


class DuplicatingRelayApp(ByzCastApplication):
    """Relays every message twice in a row (duplicate suppression must hold)."""

    def _flush_relays(self, child: str, wires, ctx) -> None:
        super()._flush_relays(
            child, [wire for wire in wires for __ in range(2)], ctx)


class ReorderingRelayApp(ByzCastApplication):
    """Relays each outgoing batch back to front.

    An attack on the order the parent induced (Lemma 4): a child that acted
    on fewer than f+1 votes would release in this replica's order.
    """

    def _flush_relays(self, child: str, wires, ctx) -> None:
        ctx.monitor.record(ctx.replica_name, "byzantine.reordered_relay", child=child)
        super()._flush_relays(child, wires[::-1], ctx)


class WithholdingRelayApp(ByzCastApplication):
    """Drops the middle wire of each outgoing batch (selective forwarding).

    Its queue at the child then skips a message the correct relayers carry,
    which must neither block that message nor let a later one overtake it.
    """

    def _flush_relays(self, child: str, wires, ctx) -> None:
        middle = len(wires) // 2
        ctx.monitor.record(ctx.replica_name, "byzantine.withheld_relay", child=child)
        super()._flush_relays(child, wires[:middle] + wires[middle + 1:], ctx)


class _EquivocatingOutbox(RelayOutbox):
    """Sends half the child's replicas each copy as submitted and the other
    half another batch under the same seq; the halves swap from one seq to
    the next, so the child's leader orders either version."""

    def _send(self, request: Request, replicas: Iterable[str]) -> None:
        half = len(self.replicas) // 2
        versions = (request, self._twisted(request))
        if request.seq % 2:
            versions = versions[::-1]
        self.owner.monitor.count("byzantine.equivocated_relay")
        for replica in replicas:
            position = self.replicas.index(replica)
            self.owner.send(replica, versions[position >= half])

    def _twisted(self, request: Request) -> Request:
        """The same wires in another order, cut short by one, or under the
        next index, by turns (a batch of one can only change its index)."""
        batch = request.command
        wires, turn = batch.wires, request.seq % 3
        if turn == 0 and len(wires) > 1:
            other = RelayBatch(wires[::-1], batch.index)
        elif turn == 1 and len(wires) > 1:
            other = RelayBatch(wires[:-1], batch.index)
        else:
            other = RelayBatch(wires, batch.index + 1)
        unsigned = Request(request.group, request.sender, request.seq, other)
        return unsigned.with_signature(
            sign(self.registry, self.owner.name, unsigned.signed_part()))


class _SubsetOutbox(RelayOutbox):
    """Sends every copy to all of the child's replicas but its first, the
    leader of regency 0."""

    def _send(self, request: Request, replicas: Iterable[str]) -> None:
        self.owner.monitor.count("byzantine.subset_relay")
        for replica in replicas:
            if replica != self.replicas[0]:
                self.owner.send(replica, request)


class EquivocatingRelayApp(ByzCastApplication):
    """Relays each batch honestly to half the child's replicas and, under
    the same request seq, differently to the other half.

    The other version has the same wires in another order, a different cut
    or another index: the child orders one of the two versions, and
    whichever it is, no correct relayer sent the other, so it can neither
    release alone nor stop the honest batch from being released.
    """

    relay_outbox_class = _EquivocatingOutbox


class SubsetRelayApp(ByzCastApplication):
    """Relays to every child replica but the child's leader (selective
    forwarding).

    The leader is taken to be the child's first member, its leader of
    regency 0.  Its followers hold this relayer's requests and the leader
    never proposes them, so they time out and change regency; the next
    leader holds them.  The correct relayers' copies reach every replica,
    so the child's order must not depend on this relayer at all.
    """

    relay_outbox_class = _SubsetOutbox


class LyingAckReplica(Replica):
    """A child replica that acknowledges every relay stream far past what
    it released: at ``next_index + LEAD``, on the stream's first copy it
    receives, and every ack it sends after that.

    It is one member's vote at each parent's outbox, so with the other f-1
    liars it stays short of the f+1 that drop a copy: the copies the
    correct members have not acknowledged are kept and retransmitted.
    """

    LEAD = 10 ** 6

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: the parents whose stream it acknowledged on a first copy
        self._lied: Set[str] = set()

    def _handle_request(self, src: str, request: Request) -> None:
        if isinstance(request.command, RelayBatch):
            parent, inbox = self.app._stream_of(request.sender)
            if inbox is not None and parent not in self._lied:
                self._lied.add(parent)
                ack = RelayAck(self.group_id, parent, self.name,
                               inbox.next_index, self.regency.current)
                for relayer in self.app.group_configs[parent].replicas:
                    self.send(relayer, ack)
        super()._handle_request(src, request)

    def send(self, dst: str, payload: Any) -> None:
        if isinstance(payload, RelayAck):
            self.monitor.count("byzantine.lying_ack")
            payload = RelayAck(payload.group, payload.parent, payload.sender,
                               payload.next_index + self.LEAD,
                               payload.regency)
        super().send(dst, payload)


class SilentAckReplica(Replica):
    """A child replica that orders and executes like a correct one and
    never acknowledges a relay stream: the parents' outboxes must empty on
    the other members' acks."""

    def send(self, dst: str, payload: Any) -> None:
        if isinstance(payload, RelayAck):
            self.monitor.count("byzantine.silent_ack")
            return
        super().send(dst, payload)


class QuorumSilentReplica(Replica):
    """A follower inside the quorum that takes what the quorum is sent and
    gives nothing back: it drops every client request and relay copy, and
    never sends a ``Reply`` or ``MulticastReply``.  It votes, orders and
    executes like a correct replica.

    The quorum is 2f+1 members, so with f of these the other f+1 hold every
    request and answer live: no client retransmits and none asks a
    ``DeliveryQuery`` (docs/PROTOCOL.md, "Who is sent what").
    """

    def _handle_request(self, src: str, request: Request) -> None:
        self.monitor.count("byzantine.quorum_silent")

    def send(self, dst: str, payload: Any) -> None:
        if isinstance(payload, (Reply, MulticastReply)):
            return
        super().send(dst, payload)
