"""Algorithm 1: the ByzCast logic, run as each group's replicated service.

Every replica of every group (target and auxiliary) executes a
:class:`ByzCastApplication`.  The surrounding atomic broadcast delivers
ordered :class:`~repro.bcast.messages.Request` objects whose command is a
:class:`~repro.core.messages.WireMulticast`; this application decides, per
Algorithm 1, whether the message

* entered the tree here (``k = 0``: the submitter is the message's origin
  client and this group is ``lca(m.dst)`` — the client's signature is
  verified), or
* was relayed by the parent group (it arrives inside a
  :class:`~repro.core.messages.RelayBatch` whose sender is one of the
  parent's replicas — the whole batch is confirmed once f+1 of them voted
  for it at its index, in :class:`~repro.core.relay.BatchMerge`),

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
:class:`~repro.core.messages.DeliveryQuery`; an entry group that is not a
destination replies ``("ack",)``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from dataclasses import replace as dataclass_replace

from repro.bcast.app import Application, ExecutionContext
from repro.bcast.client import GroupProxy
from repro.bcast.config import BroadcastConfig
from repro.bcast.fifo import ReplyWindow
from repro.bcast.messages import Reply, Request
from repro.bcast.reconfig import admin_identity
from repro.core.messages import (
    DeliveryQuery,
    MembershipUpdate,
    MulticastReply,
    RelayBatch,
    TreeUpdate,
    WireMulticast,
)
from repro.core.relay import BatchMerge
from repro.core.tree import OverlayTree
from repro.crypto.digest import SequenceDigest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import verify_signed
from repro.types import Delivery, MulticastMessage

DeliverCallback = Callable[[MulticastMessage, ExecutionContext], None]


def _merge_state(merge: BatchMerge) -> Tuple:
    return (tuple(sorted(merge.senders)), merge.threshold, merge.snapshot())


def _restored_merge(senders, threshold: int, state: Tuple) -> BatchMerge:
    """The merge a :func:`_merge_state` entry describes."""
    merge = BatchMerge(senders, threshold)
    merge.restore(state)
    return merge


class ByzCastApplication(Application):
    """One replica's ByzCast protocol state (Algorithm 1)."""

    #: first retransmission delay of the relay proxies into child groups;
    #: class-level so harnesses (e.g. the chaos soak) can tighten it without
    #: threading a parameter through every deployment builder.
    relay_retransmit_timeout: Optional[float] = 4.0
    #: the proxy class relaying into child groups (relay adversaries in
    #: :mod:`repro.faults.behaviors` send through their own)
    relay_proxy_class = GroupProxy

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
        on_snapshot_read: Optional[Callable[[Any], Any]] = None,
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
        #: optional read-tier hooks: ``on_read`` answers an unordered read
        #: from the live applied business state, ``on_snapshot_read`` from
        #: the state as of the last checkpoint (see docs/READS.md); both
        #: must be pure functions of replicated state.
        self.on_read = on_read
        self.on_snapshot_read = on_snapshot_read
        #: ByzCast requires clients to enter at lca(m.dst) (partial
        #: genuineness); the non-genuine Baseline lets clients enter at any
        #: ancestor of the destinations (in practice: the root).
        self.accept_any_ancestor = accept_any_ancestor

        self.config = self.group_configs[group_id]
        parent = tree.parent(group_id)
        self._parent_replicas: Tuple[str, ...] = ()
        self._merge = None
        if parent is not None:
            parent_config = self.group_configs[parent]
            self._parent_replicas = parent_config.replicas
            self._merge = BatchMerge(parent_config.replicas,
                                     parent_config.f + 1)

        #: monotonically increasing overlay epoch — bumped by each ordered
        #: :class:`~repro.core.messages.TreeUpdate` (replicated state)
        self.tree_epoch = 0
        #: quorum merges of *former* parents still draining relayed copies
        #: after a tree switch: list of ``(parent_gid, merge)``.  The switch
        #: barrier drains client traffic first, so these are normally empty
        #: moments after a switch; they stay registered so a straggling
        #: correct old-parent replica can still complete an f+1 release.
        self._prev_merges: List[Tuple[str, Any]] = []
        self._child_proxies: Dict[str, GroupProxy] = {}
        #: wires acted on in the batch being executed, per routed child, in
        #: act order; flushed by :meth:`end_batch`, so empty at every
        #: batch boundary (and therefore never part of a snapshot)
        self._relay_buffers: Dict[str, List[WireMulticast]] = {}
        #: per child, the index the next ``RelayBatch`` to it carries: how
        #: many this group relayed to it so far (replicated, checkpointed)
        self._relay_index: Dict[str, int] = {}
        #: identities acted on, in act order.  Execution order is the same
        #: at every correct replica of the group, so insertion order *is*
        #: a canonical order: a checkpoint copies the keys as they stand
        #: and the running digest stands for them in its ``state_digest``.
        self._acted: Dict[Tuple, None] = {}
        self._acted_digest = SequenceDigest()
        #: the last :meth:`snapshot` and its :meth:`state_summary`
        self._summarised: Tuple[Any, Any] = (None, None)
        #: chronological record of local a-deliver events (tests/metrics)
        self.deliveries: List[Delivery] = []
        #: the MulticastReplies of relayed a-deliveries, by client and seq,
        #: sent again on a DeliveryQuery (this replica's, not replicated)
        self._multicast_replies = ReplyWindow()
        #: a-delivery count as of the last checkpoint — the default
        #: snapshot-read answer (mirrors the stable state, not the live one)
        self._stable_delivered = 0

    # ------------------------------------------------------------- execution

    def execute(self, request: Request, ctx: ExecutionContext) -> Any:
        wire = request.command
        if isinstance(wire, MembershipUpdate):
            return self._apply_membership_update(request, wire, ctx)
        if isinstance(wire, TreeUpdate):
            return self._apply_tree_update(request, wire, ctx)
        if isinstance(wire, RelayBatch):
            return self._execute_relay_batch(request.sender, wire, ctx)
        problem = self._admit(wire, ctx)
        if problem is not None:
            return ("error", problem)

        # Direct submission: must enter the tree at the lca (or, for the
        # non-genuine Baseline, any ancestor) and carry a valid client
        # signature (Integrity: only genuinely a-multicast messages).
        if self.accept_any_ancestor:
            entry_ok = set(wire.dst) <= self.tree.reach(self.group_id)
        else:
            entry_ok = self.tree.lca(wire.dst) == self.group_id
        if not entry_ok:
            ctx.monitor.record(ctx.replica_name, "byzcast.wrong_entry_group",
                               sender=request.sender)
            return ("error", "not a valid entry group for the destination set")
        if not self._origin_signature_valid(wire):
            ctx.monitor.record(ctx.replica_name, "byzcast.bad_origin_signature",
                               sender=request.sender)
            return ("error", "invalid origin signature")
        # Only the origin may submit its wire: the reply below goes to the
        # submitter, and a copy ordered first under another sender (say, a
        # Byzantine replica's) would leave the origin's own copy a duplicate.
        if request.sender != wire.sender:
            ctx.monitor.record(ctx.replica_name, "byzcast.foreign_submission",
                               sender=request.sender)
            return ("error", "submitted by someone other than its origin")
        # A destination entry group answers with the a-delivery result in
        # this ordered reply; any other entry group only acknowledges.
        delivered = self._act(wire, ctx, entered=True)
        return ("ack",) if delivered is None else delivered

    def _execute_relay_batch(self, sender: str, batch: RelayBatch,
                             ctx: ExecutionContext) -> Any:
        """Push one relayer's copy of a batch into its vote merge, whole.

        Correct relayers cut identically, so f+1 of them push
        byte-identical copies and the batch is confirmed once, by digest;
        its wires are then validated and acted on once each.  Nothing a
        relayer puts in a batch changes the reply: f of them are
        Byzantine, and the correct relayers' f+1 reply match must not
        depend on what those sent.
        """
        merge = self._relayer_merge(sender)
        if merge is None:
            ctx.monitor.record(ctx.replica_name, "byzcast.relay_denied",
                               sender=sender)
            return ("error", "relay batch from a non-relayer")
        index = batch.index
        if (self._carried_wires(batch) is None or type(index) is not int
                or index < 0):
            ctx.monitor.record(ctx.replica_name, "byzcast.invalid_relay_batch",
                               sender=sender)
            return ("ack",)
        self._release(merge.push(sender, index, batch), ctx)
        return ("ack",)

    def _release(self, batches: List[RelayBatch],
                 ctx: ExecutionContext) -> None:
        """Admit and act on every wire of each confirmed batch, in order."""
        for batch in batches:
            for wire in batch.wires:
                if self._admit(wire, ctx) is None:
                    self._act(wire, ctx)

    def _relayer_merge(self, sender: str) -> Optional[Any]:
        """The quorum merge ``sender`` feeds, if it is an authorized relayer.

        Besides the parent's replicas that is a *former* parent's (the tree
        switched while their copies were in flight): the retained drain
        merge lets slow correct replicas still complete an f+1 release.
        Replica names embed the group id, so the sender sets are disjoint.
        """
        if sender in self._parent_replicas:
            return self._merge
        for __, merge in self._prev_merges:
            if sender in merge.senders:
                return merge
        return None

    def _carried_wires(self, batch: RelayBatch) -> Optional[Tuple]:
        """``batch.wires`` if it is a tuple of at most ``max_batch`` elements."""
        wires = batch.wires
        if isinstance(wires, tuple) and len(wires) <= self.config.max_batch:
            return wires
        return None

    def carried(self, request: Request) -> int:
        command = request.command
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
        ctx.monitor.record(ctx.replica_name, "byzcast.executed_wire",
                           origin=wire.sender, seq=wire.seq,
                           dst=",".join(wire.dst))
        return None

    def _apply_membership_update(self, request: Request,
                                 update: MembershipUpdate,
                                 ctx: ExecutionContext) -> Any:
        """Adopt a neighbouring group's reconfigured membership (ordered).

        Executes at one consensus boundary on every replica of this group,
        so the relay wiring that captured construction-time membership —
        child proxies into ``update.group`` and, when it is our overlay
        parent, the authorized-relayer set plus the f+1 vote merge —
        changes at the same logical point everywhere.  Messages the merge
        releases *because* of the change (a lower threshold) are acted on
        right here, inside ordered execution.
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
        proxy = self._child_proxies.get(update.group)
        if proxy is not None:
            proxy.update_replicas(config.replicas, config.f)
        if update.group == self.tree.parent(self.group_id):
            assert self._merge is not None
            self._parent_replicas = config.replicas
            self._release(self._merge.update_members(config.replicas,
                                                     config.f + 1), ctx)
        # A former parent reconfiguring mid-drain must not strand its
        # retained merge on departed replicas' votes.
        for parent_gid, merge in self._prev_merges:
            if update.group == parent_gid:
                self._release(merge.update_members(config.replicas,
                                                   config.f + 1), ctx)
        ctx.monitor.record(ctx.replica_name, "byzcast.membership_update",
                           group=update.group,
                           members=",".join(update.replicas))
        return ("ok", "membership", update.group, tuple(update.replicas))

    def _apply_tree_update(self, request: Request, update: TreeUpdate,
                           ctx: ExecutionContext) -> Any:
        """Adopt a new overlay tree (ordered; see docs/TREES.md).

        Executes at one consensus boundary on every replica of this group,
        so routing (``route_children``), entry validation (``lca``) and the
        parent quorum merge all flip at the same logical point everywhere —
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
        old_parent = self.tree.parent(self.group_id)
        new_parent = tree.parent(self.group_id)
        self.tree = tree
        self.tree_epoch = update.epoch
        # A former child's relay sequence ends here: if it becomes a child
        # again, it starts a new merge for this group, from index 0.
        self._relay_index = {child: index
                             for child, index in self._relay_index.items()
                             if tree.parent(child) == self.group_id}
        if new_parent != old_parent:
            if self._merge is not None:
                # Keep the old merge draining: straggling relays from the
                # former parent may still need f+1 confirmation.
                self._prev_merges.append((old_parent, self._merge))
            if new_parent is not None:
                config = self.group_configs[new_parent]
                self._parent_replicas = config.replicas
                self._merge = BatchMerge(config.replicas, config.f + 1)
            else:
                self._parent_replicas = ()
                self._merge = None
        ctx.monitor.record(ctx.replica_name, "byzcast.tree_update",
                           epoch=update.epoch,
                           parent=new_parent or "(root)")
        return ("ok", "tree", update.epoch)

    def _validate_wire(self, wire: Any) -> Optional[str]:
        if not isinstance(wire, WireMulticast):
            return "not a multicast"
        if not wire.dst:
            return "empty destination set"
        if list(wire.dst) != sorted(set(wire.dst)):
            return "destinations must be sorted and unique"
        for group in wire.dst:
            if not self.tree.is_target(group):
                return f"unknown target group {group!r}"
        involved = self.group_id in self.tree.involved_groups(wire.dst)
        if self.accept_any_ancestor:
            involved = involved or set(wire.dst) <= self.tree.reach(self.group_id)
        if not involved:
            return "this group is not involved in the destination set"
        return None

    def _origin_signature_valid(self, wire: WireMulticast) -> bool:
        if wire.signature is None or wire.signature.signer != wire.sender:
            return False
        return verify_signed(self.registry, wire)

    # ------------------------------------------------------------------ act

    def _act(self, wire: WireMulticast, ctx: ExecutionContext,
             entered: bool = False) -> Optional[Tuple]:
        """Forward down the tree and a-deliver locally (Algorithm 1, 10-14).

        A wire that ``entered`` the tree here is answered by its ordered
        reply: the a-delivery comes back as ``("delivered", result)``
        instead of leaving as a :class:`MulticastReply`.  None when nothing
        was a-delivered.
        """
        key = wire.identity()
        if key in self._acted:
            return None
        self._acted[key] = None
        self._acted_digest.add(wire.identity_digest())
        for child in self.tree.route_children(self.group_id, wire.dst):
            self._relay_buffers.setdefault(child, []).append(wire)
            ctx.monitor.record(ctx.replica_name, "byzcast.relay", child=child)
        if self.group_id not in wire.dst:
            return None
        result = self._a_deliver(wire, ctx)
        if entered:
            return ("delivered", result)
        reply = MulticastReply(group=self.group_id, replica=ctx.replica_name,
                               sender=wire.sender, seq=wire.seq, result=result)
        self._multicast_replies.keep(wire.sender, wire.seq, reply)
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
        """Submit ``wires`` (act order) to ``child`` as ``RelayBatch``es."""
        proxy = self._child_proxy(child, ctx)
        per_wire = self.config.costs.relay_per_dest * len(proxy.replicas)
        limit = self.group_configs[child].max_batch
        for start in range(0, len(wires), limit):
            index = self._relay_index.get(child, 0)
            self._relay_index[child] = index + 1
            batch = RelayBatch(tuple(wires[start:start + limit]), index)
            # The CPU queue is FIFO, so batches are submitted (and numbered
            # by the proxy) in act order — preserving FIFO into the child.
            ctx.replica.work(per_wire * len(batch.wires),
                             partial(proxy.submit, batch))
            ctx.monitor.record(ctx.replica_name, "byzcast.relay_batch",
                               child=child, size=len(batch.wires))

    def _child_proxy(self, child: str, ctx: ExecutionContext) -> GroupProxy:
        if child not in self._child_proxies:
            child_config = self.group_configs[child]
            self._child_proxies[child] = self.relay_proxy_class(
                owner=ctx.replica,
                group_id=child,
                replicas=child_config.replicas,
                f=child_config.f,
                registry=self.registry,
                retransmit_timeout=self.relay_retransmit_timeout,
            )
        return self._child_proxies[child]

    def _a_deliver(self, wire: WireMulticast, ctx: ExecutionContext) -> Any:
        """Record the a-delivery; returns what ``on_deliver`` returned."""
        message = wire.to_message()
        self.deliveries.append(
            Delivery(
                time=ctx.time,
                process=ctx.replica_name,
                group=self.group_id,
                message=message,
            )
        )
        ctx.monitor.record(ctx.replica_name, "byzcast.a_deliver",
                           sender=wire.sender, seq=wire.seq)
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

    def snapshot_read(self, payload: Any) -> Any:
        """Answer a read from the last *stable* (checkpointed) state."""
        if self.on_snapshot_read is not None:
            return self.on_snapshot_read(payload)
        return ("deliveries", self._stable_delivered)

    # ---------------------------------------------------------------- replies

    def handle_reply(self, src: str, reply: Reply) -> None:
        """Route child-group acks to the relay proxies (retransmission)."""
        proxy = self._child_proxies.get(reply.group)
        if proxy is not None:
            proxy.handle_reply(src, reply)

    def answer(self, src: str, query: Any) -> Optional[MulticastReply]:
        """A client's :class:`DeliveryQuery`: our MulticastReply again."""
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
        twice), the parent merge (next index and the copies kept from
        it on), the next relay index per child, and (via ``on_snapshot``)
        the business state the delivery callback maintains.  The id
        sequence grows with history and is copied as it stands, without
        sorting or encoding; everything else is bounded by in-flight work
        and deployment size.  Child relay proxies are *not* captured: their
        retransmission state is per-replica (timers, local sequence
        numbers), and a restored replica skipping the relays of the batches
        it skipped is what the relay indexes let the children tolerate.
        """
        # The merge's membership is itself replicated state under elastic
        # membership (an ordered MembershipUpdate changes it), so the
        # snapshot carries (senders, threshold) alongside the kept copies.
        merge = _merge_state(self._merge) if self._merge is not None else None
        # The overlay itself is replicated state under adaptive trees (an
        # ordered TreeUpdate changes it): a joiner restoring a post-switch
        # checkpoint must route on the tree its epoch agreed on, drain
        # merges included.
        drains = tuple((parent_gid, *_merge_state(m))
                       for parent_gid, m in self._prev_merges)
        # The checkpoint boundary is a deterministic cid, so advancing the
        # stable-read mirror here keeps it identical across replicas.
        self._stable_delivered = len(self.deliveries)
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
        tree_state = (self.tree_epoch, self.tree.parent_edges(),
                      tuple(sorted(self.tree.targets)), drains)
        state = ("byzcast", tuple(self._acted), merge, payload, configs,
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
        __, acted, merge, payload, configs, tree_state, relays = state
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
            proxy = self._child_proxies.get(gid)
            if proxy is not None:
                proxy.update_replicas(config.replicas, config.f)
        self.config = self.group_configs[self.group_id]
        # The merge state belongs to the snapshot's parent, which after a
        # switch is not necessarily this replica's construction-time parent.
        tree_epoch, edges, targets, drains = tree_state
        if tree_epoch != self.tree_epoch:
            self.tree = OverlayTree(dict(edges), targets)
            self.tree_epoch = tree_epoch
        self._merge = None if merge is None else _restored_merge(*merge)
        self._parent_replicas = () if merge is None else tuple(merge[0])
        self._prev_merges = [(parent_gid, _restored_merge(*entry))
                             for parent_gid, *entry in drains]
        self._relay_index = dict(relays)
        # Rebuild the delivery record so the a-delivery *sequence* survives
        # the restore; timestamps/process are local observations, not
        # replicated state, so they reflect the restore itself.
        self.deliveries = [
            Delivery(time=0.0, process="<checkpoint>", group=self.group_id,
                     message=WireMulticast(*key).to_message())
            for key in acted if self.group_id in key[2]
        ]
        self._stable_delivered = len(self.deliveries)
        if self.on_restore is not None:
            self.on_restore(payload)

    # ------------------------------------------------------------ inspection

    def delivered_messages(self) -> List[MulticastMessage]:
        """Messages a-delivered here, in local delivery order."""
        return [record.message for record in self.deliveries]
