"""Algorithm 1: the ByzCast logic, run as each group's replicated service.

Every replica of every group (target and auxiliary) executes a
:class:`ByzCastApplication`.  The surrounding atomic broadcast delivers
ordered :class:`~repro.bcast.messages.Request` objects whose command is a
:class:`~repro.core.messages.WireMulticast`; this application decides, per
Algorithm 1, whether the message

* entered the tree here (``k = 0``: this group is ``lca(m.dst)`` and the
  submitter is the message's origin client — the broadcast layer verified
  the signature of the request that carries it, so it is the origin's own),
  or
* was relayed by the parent group (it arrives inside a
  :class:`~repro.core.messages.RelayBatch`, one signed copy from each of
  the parent's replicas; the copies are votes, kept unordered in a
  :class:`~repro.core.relay.RelayInbox`, and the group orders the batch
  once, as a :class:`~repro.core.messages.RelayCertificate` of f+1 matching
  copies),

and then *acts* on it, once per message identity: re-broadcast into every
child whose reach intersects ``m.dst`` (line 10-11) and a-deliver it if this
group is a destination (line 12-14; the acted ids are the ``A-delivered``
set that prevents duplicates).  The re-broadcast is buffered per child and
leaves as one ``RelayBatch`` per executed batch
(:meth:`ByzCastApplication.end_batch`).

Each replica answers the client once per group: a message that entered
here and is a-delivered here is answered by the ordered request's reply,
``("delivered", result)``; one a-delivered after a relay by a
:class:`~repro.core.messages.MulticastReply`, sent again on the client's
:class:`~repro.core.messages.DeliveryQuery`.  Live answers come from the
2f+1 members of the current regency's quorum, and a request's also from
the replicas it was pending at (docs/PROTOCOL.md, "Who is sent what"); the
others keep theirs for a retransmission or a query.  An entry group that
is not a destination keeps ``("ack",)`` as the reply a retransmission
gets, but does not send it as it executes: the client learns the same
from its first destination group's confirmation
(:meth:`ByzCastApplication.sends_reply`).
"""

from __future__ import annotations

from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple,
)

from dataclasses import replace as dataclass_replace

from repro.bcast.app import Application, ExecutionContext
from repro.bcast.config import BroadcastConfig
from repro.bcast.fifo import ReplyWindow
from repro.bcast.messages import Request
from repro.bcast.reconfig import admin_identity
from repro.core.messages import (
    DeliveryQuery,
    MembershipUpdate,
    MulticastReply,
    RelayAck,
    RelayBatch,
    RelayCertificate,
    TreeUpdate,
    WireMulticast,
)
from repro.core.relay import (
    RelayInbox, RelayOutbox, certificate_problem, relay_sender,
)
from repro.core.tree import OverlayTree
from repro.crypto.digest import SequenceDigest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import verify_signed
from repro.env import TimerHandle
from repro.types import MulticastMessage

DeliverCallback = Callable[[MulticastMessage, ExecutionContext], None]

#: what an entry group that is not a destination answers a retransmission
ENTRY_ACK = ("ack",)
#: what a destination entry group answers when the a-delivery has no result
DELIVERED = ("delivered", None)


class ByzCastApplication(Application):
    """One replica's ByzCast protocol state (Algorithm 1)."""

    #: first retransmission delay of the relay outboxes into child groups;
    #: a quarter of it is the ack interval of each relay stream.
    #: Class-level so harnesses (e.g. the chaos soak) can tighten it without
    #: threading a parameter through every deployment builder.
    relay_retransmit_timeout: Optional[float] = 4.0
    #: the outbox class relaying into child groups (relay adversaries in
    #: :mod:`repro.faults.behaviors` send through their own)
    relay_outbox_class = RelayOutbox

    def __init__(
        self,
        group_id: str,
        tree: OverlayTree,
        group_configs: Mapping[str, BroadcastConfig],
        registry: KeyRegistry,
        on_deliver: Optional[DeliverCallback] = None,
        accept_any_ancestor: bool = False,
        on_snapshot: Optional[Callable[[], Any]] = None,
        on_restore: Optional[Callable[[Any], None]] = None,
        on_read: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        if group_id not in tree:
            raise ValueError(f"group {group_id!r} is not in the overlay tree")
        self.group_id = group_id
        self.tree = tree
        self.group_configs = dict(group_configs)
        self.registry = registry
        self.on_deliver = on_deliver
        #: optional hooks capturing/restoring the state ``on_deliver``
        #: mutates, so checkpoints cover the business-level state machine
        #: too (see :meth:`snapshot`).
        self.on_snapshot = on_snapshot
        self.on_restore = on_restore
        #: optional read-tier hook: ``on_read`` answers an unordered read
        #: from the live applied business state (see docs/READS.md); it
        #: must be a pure function of replicated state.
        self.on_read = on_read
        #: ByzCast requires clients to enter at lca(m.dst) (partial
        #: genuineness); the non-genuine Baseline lets clients enter at any
        #: ancestor of the destinations (in practice: the root).
        self.accept_any_ancestor = accept_any_ancestor

        self.config = self.group_configs[group_id]
        #: one relay stream per group that is or was this group's parent:
        #: a former parent's keeps draining after a tree switch, and one
        #: that becomes the parent again goes on at its next index.  Each
        #: stream's next index is replicated state; the copies it holds are
        #: this replica's own votes.
        self._inboxes: Dict[str, RelayInbox] = {}
        #: per stream, when this replica last acknowledged it, and the timer
        #: of an ack due before the ack interval since then is over
        self._acked_at: Dict[str, float] = {}
        self._ack_timers: Dict[str, TimerHandle] = {}
        parent = tree.parent(group_id)
        if parent is not None:
            self._open_stream(parent)

        #: monotonically increasing overlay epoch — bumped by each ordered
        #: :class:`~repro.core.messages.TreeUpdate` (replicated state)
        self.tree_epoch = 0
        self._outboxes: Dict[str, RelayOutbox] = {}
        #: wires acted on in the batch being executed, per routed child, in
        #: act order; flushed by :meth:`end_batch`, so empty at every
        #: batch boundary (and therefore never part of a snapshot)
        self._relay_buffers: Dict[str, List[WireMulticast]] = {}
        #: per child, the index the next ``RelayBatch`` to it carries: how
        #: many this group relayed to it so far (replicated, checkpointed,
        #: and kept for a child a tree switch takes away)
        self._relay_index: Dict[str, int] = {}
        #: identities acted on, in act order.  Execution order is the same
        #: at every correct replica of the group, so insertion order *is*
        #: a canonical order: a checkpoint copies the keys as they stand
        #: and the running digest stands for them in its ``state_digest``.
        self._acted: Dict[Tuple, None] = {}
        self._acted_digest = SequenceDigest()
        #: the last :meth:`snapshot` and its :meth:`state_summary`
        self._summarised: Tuple[Any, Any] = (None, None)
        #: the messages a-delivered here, in delivery order: each is the
        #: wire's memoised ``to_message()``, so the replicas of a process
        #: that a-deliver one wire share one object
        self.deliveries: List[MulticastMessage] = []
        #: the MulticastReplies of relayed a-deliveries, by client and seq,
        #: sent again on a DeliveryQuery (this replica's, not replicated)
        self._multicast_replies = ReplyWindow()

    # ------------------------------------------------------------- execution

    def execute(self, request: Request, ctx: ExecutionContext) -> Any:
        wire = request.command
        if isinstance(wire, MembershipUpdate):
            return self._apply_membership_update(request, wire, ctx)
        if isinstance(wire, TreeUpdate):
            return self._apply_tree_update(request, wire, ctx)
        if isinstance(wire, RelayCertificate):
            return self._execute_certificate(request, wire, ctx)
        if isinstance(wire, RelayBatch):
            # A copy a (Byzantine) leader ordered: still only a vote.
            self._vote(request, ctx.replica)
            return None
        problem = self._admit(wire, ctx)
        if problem is not None:
            return ("error", problem)

        # Direct submission: must enter the tree at the lca (or, for the
        # non-genuine Baseline, any ancestor) in a request of its origin,
        # whose signature the broadcast layer verified (Integrity: only
        # genuinely a-multicast messages).
        if self.accept_any_ancestor:
            entry_ok = set(wire.dst) <= self.tree.reach(self.group_id)
        else:
            entry_ok = self.tree.lca(wire.dst) == self.group_id
        if not entry_ok:
            ctx.monitor.record(ctx.replica_name, "byzcast.wrong_entry_group",
                               sender=request.sender)
            return ("error", "not a valid entry group for the destination set")
        # Only the origin may submit its wire: the wire carries no signature,
        # so the request's is the only proof of origin; and the reply below
        # goes to the submitter, so a copy ordered first under another
        # sender (say, a Byzantine replica's) would leave the origin's own
        # copy a duplicate.
        if request.sender != wire.sender:
            ctx.monitor.record(ctx.replica_name, "byzcast.foreign_submission",
                               sender=request.sender)
            return ("error", "submitted by someone other than its origin")
        # A destination entry group answers with the a-delivery result in
        # this ordered reply; any other entry group only acknowledges.
        delivered = self._act(wire, ctx, entered=True)
        return ENTRY_ACK if delivered is None else delivered

    def sends_reply(self, request: Request, result: Any) -> bool:
        """An entry acknowledgement waits for a retransmission: the client
        learns that the entry group ordered its multicast from the first
        destination group's f+1 confirmations."""
        return result != ENTRY_ACK

    # ----------------------------------------------------- relay streams (§3.2)

    def _open_stream(self, parent: str) -> None:
        """Accept relayed copies from ``parent``'s replicas from now on."""
        if parent not in self._inboxes:
            config = self.group_configs[parent]
            self._inboxes[parent] = RelayInbox(config.replicas, config.f + 1)

    def _stream_of(self,
                   relayer: str) -> Tuple[Optional[str], Optional[RelayInbox]]:
        """``(parent, inbox)`` of the stream ``relayer`` relays in, if any.

        Replica names embed the group id, so the relayer sets are disjoint.
        """
        for parent, inbox in self._inboxes.items():
            if relayer in inbox.relayers:
                return parent, inbox
        return None, None

    def intake(self, request: Request, replica: Any) -> bool:
        """A parent replica's signed ``RelayBatch`` copy is a vote, never a
        request to order (docs/PROTOCOL.md §3.2)."""
        if not isinstance(request.command, RelayBatch):
            return False
        self._vote(request, replica)
        return True

    def _vote(self, copy: Request, replica: Any) -> None:
        """Count one relayer's copy in its stream's inbox.

        A copy this replica will never count — of a released index, or
        malformed — is answered at once with the stream's ack, which says
        nothing about the copy: only the stream's next index.  One that
        gives its index a quorum pools that index's certificate.
        """
        parent, inbox = self._stream_of(copy.sender)
        if inbox is None:
            replica.monitor.record(replica.name, "byzcast.relay_denied",
                                   sender=copy.sender)
            return
        batch = copy.command
        index = batch.index
        malformed = (self._carried_wires(batch) is None
                     or type(index) is not int or index < 0)
        if malformed:
            replica.monitor.record(replica.name, "byzcast.invalid_relay_batch",
                                   sender=copy.sender)
        if malformed or index < inbox.next_index:
            replica.send(copy.sender, self._stream_ack(replica, parent))
            return
        copies = inbox.vote(copy)
        if copies is not None:
            replica.offer(self._certificate(parent, index, copies))

    def _stream_ack(self, replica: Any, parent: str) -> RelayAck:
        return RelayAck(self.group_id, parent, replica.name,
                        self._inboxes[parent].next_index,
                        replica.regency.current)

    def _ack_due(self, replica: Any, parent: str) -> None:
        """``parent``'s stream moved: acknowledge it now, or at the end of
        the ack interval that began with its last ack."""
        if parent in self._ack_timers:
            return
        timeout = self.relay_retransmit_timeout
        last = self._acked_at.get(parent)
        wait = (0.0 if timeout is None or last is None
                else last + timeout / 4 - replica.clock.now)
        if wait > 0:
            self._ack_timers[parent] = replica.set_timer(
                wait, partial(self._ack_stream, replica, parent))
        else:
            self._ack_stream(replica, parent)

    def _ack_stream(self, replica: Any, parent: str) -> None:
        """Send the stream's ack to each of ``parent``'s current replicas."""
        self._ack_timers.pop(parent, None)
        if parent not in self._inboxes:
            return  # a restore closed the stream
        self._acked_at[parent] = replica.clock.now
        ack = self._stream_ack(replica, parent)
        for relayer in self.group_configs[parent].replicas:
            replica.send(relayer, ack)

    def _certificate(self, parent: str, index: int,
                     copies: Tuple[Request, ...]) -> Request:
        """The request that orders ``parent``'s batch ``index`` once."""
        return Request(self.group_id, relay_sender(parent), index + 1,
                       RelayCertificate(parent, index, copies))

    def _recertify(self, replica: Any, parent: str, inbox: RelayInbox) -> None:
        """Pool the certificates ``inbox`` holds now, and nothing else of
        its stream."""
        replica.withdraw(relay_sender(parent))
        for index, copies in inbox.certificates():
            replica.offer(self._certificate(parent, index, copies))

    def reoffer(self, replica: Any) -> None:
        """Pool every stream's certificates again, acknowledge every stream
        at once (a checkpoint may have moved it) and restart the outboxes'
        timers (a crash cancelled them)."""
        for timer in self._ack_timers.values():
            timer.cancel()
        self._ack_timers.clear()
        for parent, inbox in self._inboxes.items():
            self._recertify(replica, parent, inbox)
            if inbox.next_index:
                self._ack_stream(replica, parent)
        for outbox in self._outboxes.values():
            outbox.restart()

    def vouch(self, request: Request,
              ahead: Iterable[Request]) -> Optional[bool]:
        """Whether the relay certificate ``request`` is valid where it
        executes.  Its stream and relayers change only through an ordered
        ``TreeUpdate`` or a ``MembershipUpdate`` of its parent, so with one
        of those ahead the answer waits for it to execute."""
        certificate = request.command
        if not isinstance(certificate, RelayCertificate):
            return False
        admin = admin_identity(self.group_id)
        for earlier in ahead:
            command = earlier.command
            if earlier.sender == admin and (
                    isinstance(command, TreeUpdate)
                    or (isinstance(command, MembershipUpdate)
                        and command.group == certificate.parent)):
                return None
        return self._certificate_problem(request) is None

    def _certificate_problem(self, request: Request) -> Optional[str]:
        """Why the certificate ``request`` does not prove the batch its
        pseudo-sender and seq stand for, or None."""
        certificate = request.command
        parent = certificate.parent
        inbox = self._inboxes.get(parent) if type(parent) is str else None
        if inbox is None:
            return "no relay stream from that group"
        problem = certificate_problem(
            certificate, self.group_id, inbox.relayers, inbox.threshold,
            partial(self._copy_verified, inbox, certificate.index))
        if problem is not None:
            return problem
        if (request.sender != relay_sender(parent)
                or request.seq != certificate.index + 1):
            return "not its stream's request"
        if self._carried_wires(certificate.copies[0].command) is None:
            return "a malformed batch"
        return None

    def _copy_verified(self, inbox: RelayInbox, index: int,
                       copy: Request) -> bool:
        """Whether ``copy``'s signature holds.  A copy equal to the one this
        replica holds from that relayer was checked on receipt: a copy
        decoded from a proposal is not verified again."""
        held = inbox.held(copy.sender, index)
        if held is not None and (held is copy or held == copy):
            return True
        signature = copy.signature
        return (signature is not None and signature.signer == copy.sender
                and verify_signed(self.registry, copy))

    def _execute_certificate(self, request: Request,
                             certificate: RelayCertificate,
                             ctx: ExecutionContext) -> None:
        """Release a certified batch — its stream's ack is due — and admit
        and act on each of its wires once.

        The proposal check (:meth:`vouch`) ran against the membership that
        holds here, and the FIFO tracker orders a stream by index, so a
        decided certificate is valid; the re-check only guards execution.
        No reply: the pseudo-sender is no endpoint.
        """
        problem = self._certificate_problem(request)
        inbox = self._inboxes.get(certificate.parent)
        if problem is None and certificate.index != inbox.next_index:
            problem = "not the next index"
        if problem is not None:
            ctx.monitor.record(ctx.replica_name, "byzcast.invalid_certificate",
                               reason=problem)
            return
        inbox.release(certificate.index)
        self._ack_due(ctx.replica, certificate.parent)
        self._release(certificate.copies[0].command, ctx)

    def _release(self, batch: RelayBatch, ctx: ExecutionContext) -> None:
        """Admit and act on every wire of a confirmed batch, in order."""
        for wire in batch.wires:
            if self._admit(wire, ctx) is None:
                self._act(wire, ctx)

    def _carried_wires(self, batch: RelayBatch) -> Optional[Tuple]:
        """``batch.wires`` if it is a tuple of at most ``max_batch`` elements."""
        wires = batch.wires
        if isinstance(wires, tuple) and len(wires) <= self.config.max_batch:
            return wires
        return None

    def carried(self, request: Request) -> int:
        command = request.command
        if isinstance(command, RelayCertificate) and command.copies:
            command = command.copies[0].command
        wires = (self._carried_wires(command)
                 if isinstance(command, RelayBatch) else None)
        return len(wires) if wires else 1

    def _admit(self, wire: Any, ctx: ExecutionContext) -> Optional[str]:
        """Validate one ordered copy; record it, or why it is refused."""
        problem = self._validate_wire(wire)
        if problem is not None:
            ctx.monitor.record(ctx.replica_name, "byzcast.invalid_wire",
                               reason=problem)
            return problem
        # Participation record for genuineness audits: one per wire this
        # replica admits (a direct submission or a released relayed wire).
        if ctx.monitor.enabled:
            ctx.monitor.record(ctx.replica_name, "byzcast.executed_wire",
                               origin=wire.sender, seq=wire.seq,
                               dst=",".join(wire.dst))
        else:
            ctx.monitor.count("byzcast.executed_wire")
        return None

    def _apply_membership_update(self, request: Request,
                                 update: MembershipUpdate,
                                 ctx: ExecutionContext) -> Any:
        """Adopt a neighbouring group's reconfigured membership (ordered).

        Executes at one consensus boundary on every replica of this group,
        so the relay wiring that captured construction-time membership —
        the outbox into ``update.group`` and, when it is (or was) our
        overlay parent, the relayers and threshold its certificates are
        checked against — changes at the same logical point everywhere.
        The stream's inbox drops departed relayers' votes and recounts, and
        its certificates are pooled anew: one signed by a departed relayer
        is void from here on, and a lower threshold may complete another.
        """
        if request.sender != admin_identity(self.group_id):
            ctx.monitor.record(ctx.replica_name, "byzcast.membership_denied",
                               sender=request.sender)
            return ("error", "membership update denied")
        old = self.group_configs.get(update.group)
        if old is None:
            return ("error", f"unknown group {update.group!r}")
        try:
            config = dataclass_replace(old, replicas=tuple(update.replicas),
                                       f=update.f)
        except Exception:
            return ("error", "invalid membership")
        self.group_configs[update.group] = config
        outbox = self._outboxes.get(update.group)
        if outbox is not None:
            outbox.update_replicas(config.replicas, config.f)
        inbox = self._inboxes.get(update.group)
        if inbox is not None:
            inbox.restore(config.replicas, config.f + 1, inbox.next_index)
            self._recertify(ctx.replica, update.group, inbox)
        ctx.monitor.record(ctx.replica_name, "byzcast.membership_update",
                           group=update.group,
                           members=",".join(update.replicas))
        return ("ok", "membership", update.group, tuple(update.replicas))

    def _apply_tree_update(self, request: Request, update: TreeUpdate,
                           ctx: ExecutionContext) -> Any:
        """Adopt a new overlay tree (ordered; see docs/TREES.md).

        Executes at one consensus boundary on every replica of this group,
        so routing (``route_children``), entry validation (``lca``) and the
        parent's relay stream all flip at the same logical point everywhere —
        the same discipline as :meth:`_apply_membership_update`.  A stale or
        replayed epoch is a no-op, which keeps checkpoint-log replay (and
        joiners catching up through a switch) idempotent.
        """
        if request.sender != admin_identity(self.group_id):
            ctx.monitor.record(ctx.replica_name, "byzcast.tree_update_denied",
                               sender=request.sender)
            return ("error", "tree update denied")
        if update.epoch <= self.tree_epoch:
            return ("ok", "tree", self.tree_epoch)
        try:
            tree = OverlayTree(dict(update.parents), update.targets)
        except Exception as exc:
            return ("error", f"invalid tree: {exc}")
        if self.group_id not in tree:
            # Group join/leave travels through membership elasticity, not
            # tree updates: a switch may rewire every edge but must keep
            # this group a node.
            return ("error", "tree update drops the executing group")
        for gid in tree.nodes:
            if gid not in self.group_configs:
                return ("error", f"unknown group {gid!r} in tree update")
        new_parent = tree.parent(self.group_id)
        self.tree = tree
        self.tree_epoch = update.epoch
        # The former parent's stream keeps draining, and a former child's
        # relay index is kept: if it becomes a child again, its stream from
        # this group goes on where it stopped.
        if new_parent is not None:
            self._open_stream(new_parent)
        ctx.monitor.record(ctx.replica_name, "byzcast.tree_update",
                           epoch=update.epoch,
                           parent=new_parent or "(root)")
        return ("ok", "tree", update.epoch)

    def _validate_wire(self, wire: Any) -> Optional[str]:
        if not isinstance(wire, WireMulticast):
            return "not a multicast"
        problem = self.tree.destination_problem(wire.dst)
        if problem is not None:
            return problem
        try:  # _act dedups on the identity; a Byzantine one may hold a list
            hash(wire.identity())
        except TypeError:
            return "unhashable content"
        involved = self.group_id in self.tree.involved_groups(wire.dst)
        if self.accept_any_ancestor:
            involved = involved or set(wire.dst) <= self.tree.reach(self.group_id)
        if not involved:
            return "this group is not involved in the destination set"
        return None

    # ------------------------------------------------------------------ act

    def _act(self, wire: WireMulticast, ctx: ExecutionContext,
             entered: bool = False) -> Optional[Tuple]:
        """Forward down the tree and a-deliver locally (Algorithm 1, 10-14).

        A wire that ``entered`` the tree here is answered by its ordered
        reply: the a-delivery comes back as ``("delivered", result)``
        instead of leaving as a :class:`MulticastReply`, which only the
        current regency's quorum sends live (the rest keep it for a
        DeliveryQuery).  None when nothing was a-delivered.
        """
        key = wire.identity()
        if key in self._acted:
            return None
        self._acted[key] = None
        self._acted_digest.add(wire.identity_digest())
        monitor = ctx.monitor
        for child in self.tree.route_children(self.group_id, wire.dst):
            self._relay_buffers.setdefault(child, []).append(wire)
            if monitor.enabled:
                monitor.record(ctx.replica_name, "byzcast.relay", child=child)
            else:
                monitor.count("byzcast.relay")
        if self.group_id not in wire.dst:
            return None
        result = self._a_deliver(wire, ctx)
        if entered:
            return DELIVERED if result is None else ("delivered", result)
        reply = MulticastReply(group=self.group_id, replica=ctx.replica_name,
                               sender=wire.sender, seq=wire.seq, result=result)
        self._multicast_replies.keep(wire.sender, wire.seq, reply)
        if ctx.replica.in_quorum():
            ctx.replica.send(wire.sender, reply)
        return None

    def end_batch(self, ctx: ExecutionContext) -> None:
        """Relay what this executed batch acted on: one request per child."""
        if not self._relay_buffers:
            return
        buffers, self._relay_buffers = self._relay_buffers, {}
        for child, wires in buffers.items():
            self._flush_relays(child, wires, ctx)

    def _flush_relays(self, child: str, wires: List[WireMulticast],
                      ctx: ExecutionContext) -> None:
        """Submit ``wires`` (act order) to ``child`` as ``RelayBatch``es,
        each charged per destination it is sent to live."""
        outbox = self._outbox(child, ctx)
        per_wire = (self.config.costs.relay_per_dest
                    * len(outbox.live_targets()))
        limit = self.group_configs[child].max_batch
        for start in range(0, len(wires), limit):
            index = self._relay_index.get(child, 0)
            self._relay_index[child] = index + 1
            batch = RelayBatch(tuple(wires[start:start + limit]), index)
            # The CPU queue is FIFO, so batches leave in act order.
            ctx.replica.work(per_wire * len(batch.wires),
                             partial(outbox.submit, batch))
            ctx.monitor.record(ctx.replica_name, "byzcast.relay_batch",
                               child=child, size=len(batch.wires))

    def _outbox(self, child: str, ctx: ExecutionContext) -> RelayOutbox:
        if child not in self._outboxes:
            child_config = self.group_configs[child]
            self._outboxes[child] = self.relay_outbox_class(
                owner=ctx.replica,
                group_id=child,
                replicas=child_config.replicas,
                f=child_config.f,
                registry=self.registry,
                retransmit_timeout=self.relay_retransmit_timeout,
            )
        return self._outboxes[child]

    def _a_deliver(self, wire: WireMulticast, ctx: ExecutionContext) -> Any:
        """Record the a-delivery; returns what ``on_deliver`` returned."""
        message = wire.to_message()
        self.deliveries.append(message)
        if ctx.monitor.enabled:
            ctx.monitor.record(ctx.replica_name, "byzcast.a_deliver",
                               sender=wire.sender, seq=wire.seq)
        else:
            ctx.monitor.count("byzcast.a_deliver")
        if self.on_deliver is None:
            return None
        return self.on_deliver(message, ctx)

    # ------------------------------------------------------------------ reads

    def read(self, payload: Any) -> Any:
        """Answer an unordered read from the live applied state.

        Must be a pure function of the executed prefix: two correct
        replicas with the same applied cid must return byte-identical
        answers, or the f+1 read quorum can never form.  The default
        answers with the a-delivery count at this group — deterministic in
        the prefix and useful as a progress probe.
        """
        if self.on_read is not None:
            return self.on_read(payload)
        return ("deliveries", len(self.deliveries))

    # ---------------------------------------------------------------- replies

    def answer(self, src: str, query: Any) -> Optional[MulticastReply]:
        """A client's :class:`DeliveryQuery`: our MulticastReply again.  A
        child replica's :class:`RelayAck` goes to that child's outbox."""
        if isinstance(query, RelayAck):
            outbox = self._outboxes.get(query.group)
            if outbox is not None and query.parent == self.group_id:
                outbox.handle_reply(src, query)
            return None
        if (not isinstance(query, DeliveryQuery) or query.sender != src
                or query.group != self.group_id):
            return None
        return self._multicast_replies.get(src, query.seq)

    # --------------------------------------------------------- checkpointing

    @property
    def checkpointable(self) -> bool:
        """Whether checkpoints would capture the *whole* replica state.

        When ``on_deliver`` feeds an external state machine, a checkpoint
        restore would skip deliveries that machine never saw — so
        checkpointing is enabled only if ``on_snapshot``/``on_restore``
        cover that external state (or there is none).
        """
        return self.on_deliver is None or (
            self.on_snapshot is not None and self.on_restore is not None
        )

    def snapshot(self) -> Tuple:
        """Deterministic capture of the Algorithm-1 state at one cid.

        Covers the acted ids (in act order — what was a-delivered here is
        the subsequence addressed to this group, so it is not stored
        twice), the next index of each parent stream (its copies are this
        replica's votes, not replicated state), the next relay index per
        child, and (via ``on_snapshot``)
        the business state the delivery callback maintains.  The id
        sequence grows with history and is copied as it stands, without
        sorting or encoding; everything else is bounded by in-flight work
        and deployment size.  Relay outboxes are *not* captured: what a
        child acknowledged is per-replica, and a restored replica skipping
        the relays of the batches it skipped is what the relay indexes let
        the children tolerate.
        """
        # A stream's relayers are its parent's membership, in ``configs``.
        streams = tuple((parent, inbox.next_index)
                        for parent, inbox in sorted(self._inboxes.items()))
        payload = self.on_snapshot() if self.on_snapshot is not None else None
        # Neighbour membership is replicated state under elastic membership
        # (it changes only through ordered MembershipUpdates), so the
        # snapshot carries every group's (replicas, f): a joiner restoring
        # this checkpoint must relay to the membership its epoch agreed on,
        # not whatever the membership was when the joiner was spawned.
        configs = tuple(
            (gid, tuple(config.replicas), config.f)
            for gid, config in sorted(self.group_configs.items())
        )
        # The overlay itself is replicated state under adaptive trees (an
        # ordered TreeUpdate changes it): a joiner restoring a post-switch
        # checkpoint must route on the tree its epoch agreed on.
        tree_state = (self.tree_epoch, self.tree.parent_edges(),
                      tuple(sorted(self.tree.targets)))
        state = ("byzcast", tuple(self._acted), streams, payload, configs,
                 tree_state, tuple(sorted(self._relay_index.items())))
        self._summarised = (state, self._summary(state,
                                                 self._acted_digest.value()))
        return state

    def state_summary(self, state: Tuple) -> Tuple:
        """``state`` with the acted id sequence replaced by its digest.

        For the snapshot just taken the running digest is at hand, so a
        checkpoint hashes nothing older than the previous one; for a
        peer's state this is the one linear pass that recomputes it, so
        every id, its position and the sequence length are bound.
        """
        taken, summary = self._summarised
        if state is taken:
            return summary
        return self._summary(state, SequenceDigest(state[1]).value())

    @staticmethod
    def _summary(state: Tuple, acted_digest: bytes) -> Tuple:
        """``state`` with the acted ids replaced by ``acted_digest``."""
        return (state[0], acted_digest, *state[2:])

    def restore(self, state: Tuple) -> None:
        """Adopt a peer's :meth:`snapshot` (checkpoint install path)."""
        __, acted, streams, payload, configs, tree_state, relays = state
        self._acted = dict.fromkeys(acted)
        # Reseeded from the ids, so the next checkpoint taken here digests
        # to what the replicas that never restored compute.
        self._acted_digest = SequenceDigest(acted)
        for gid, replicas, group_f in configs:
            known = self.group_configs.get(gid)
            if known is None:
                continue
            config = dataclass_replace(known, replicas=tuple(replicas),
                                       f=group_f)
            self.group_configs[gid] = config
            outbox = self._outboxes.get(gid)
            if outbox is not None:
                outbox.update_replicas(config.replicas, config.f)
        self.config = self.group_configs[self.group_id]
        tree_epoch, edges, targets = tree_state
        if tree_epoch != self.tree_epoch:
            self.tree = OverlayTree(dict(edges), targets)
            self.tree_epoch = tree_epoch
        # The snapshot's streams (after a switch not necessarily this
        # replica's construction-time parent's); the votes held for their
        # unreleased indexes stay.
        inboxes = {}
        for parent, next_index in streams:
            config = self.group_configs[parent]
            inbox = self._inboxes.get(parent) or RelayInbox(config.replicas,
                                                            config.f + 1)
            inbox.restore(config.replicas, config.f + 1, next_index)
            inboxes[parent] = inbox
        self._inboxes = inboxes
        self._relay_index = dict(relays)
        # Rebuild the delivery record so the a-delivery *sequence* survives
        # the restore.
        self.deliveries = [WireMulticast(*key).to_message()
                           for key in acted if self.group_id in key[2]]
        if self.on_restore is not None:
            self.on_restore(payload)

    # ------------------------------------------------------------ inspection

    def delivered_messages(self) -> List[MulticastMessage]:
        """Messages a-delivered here, in local delivery order."""
        return list(self.deliveries)
