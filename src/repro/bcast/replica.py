"""The replica actor: Mod-SMaRt ordering + execution for one group member.

A replica stitches together the pure sub-machines of this package:

* :class:`~repro.bcast.fifo.PendingPool` — unordered requests;
* :class:`~repro.bcast.consensus.ConsensusInstance` — per-cid quorum logic;
* :class:`~repro.bcast.regency.RegencyManager` — leader-change voting;
* :class:`~repro.bcast.log.DecisionLog` — ordered execution + state;
* :class:`~repro.bcast.checkpoint.Checkpointer` — checkpoint take/verify/vote.

Consensus instances are *pipelined*: the leader may keep up to
``config.max_in_flight`` instances open concurrently (proposing
``highest started + 1`` while earlier instances are still voting), while
decisions arriving out of order are buffered in the
:class:`~repro.bcast.log.DecisionLog` and executed strictly in consensus
order (see ``docs/PIPELINE.md``).  With ``max_in_flight=1`` the engine
degrades byte-for-byte to the sequential BFT-SMaRt schedule the paper
describes ("the leader starts a consensus instance every time there are
pending client requests ... and there are no consensus being executed",
§IV), which is what the pinned golden traces run.

Methods are deliberately fine-grained so :mod:`repro.faults` can subclass
this actor and override individual steps (e.g. send an equivocating
proposal) without duplicating the rest of the protocol.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.bcast.app import Application, ExecutionContext
from repro.bcast.checkpoint import Checkpointer
from repro.bcast.config import BroadcastConfig
from repro.bcast.consensus import ConsensusInstance
from repro.bcast.fifo import PendingPool, ReplyWindow
from repro.bcast.log import DecisionLog
from repro.bcast.messages import (
    Accept,
    AuthenticatedPropose,
    CertReport,
    CheckpointData,
    Heartbeat,
    Propose,
    ReadReply,
    ReadRequest,
    Reply,
    Request,
    StateRequest,
    StateResponse,
    Stop,
    StopData,
    Sync,
    Write,
)
from repro.bcast.reconfig import Reconfig, View, admin_identity
from repro.bcast.regency import RegencyManager
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.mac import mac_vector, verify_mac_vector
from repro.crypto.signatures import verify
from repro.env import Actor, Monitor, RuntimeOrClock

#: consensus-id lead *beyond the pipeline window* that makes a replica
#: suspect it is missing decisions (the effective threshold is
#: ``max_in_flight + STATE_GAP_SLACK``; at depth 1 this reproduces the
#: historical threshold of 2)
STATE_GAP_SLACK = 1
#: how long a state-transfer round may take before it is retried
STATE_RETRY_TIMEOUT = 1.0
#: cap of the exponential state-request backoff (mirrors the client proxy's
#: retransmit clamp): a joiner that cannot reach the f+1 quorum must not
#: re-request every tick, but must also keep probing within bounded time
MAX_STATE_BACKOFF_MULTIPLIER = 64
#: refuse STOPDATA whose per-cid certificate list exceeds this bound
#: (a Byzantine reporter must not make the new leader buffer unbounded data)
MAX_STOPDATA_CERTS = 64
#: bounded audit trail of served reads (the chaos invariant cross-checks
#: accepted client reads against the journals of correct voters)
READ_JOURNAL_CAP = 4096


class Replica(Actor):
    """One member of a BFT atomic broadcast group."""

    def __init__(
        self,
        name: str,
        config: BroadcastConfig,
        loop: RuntimeOrClock,
        registry: KeyRegistry,
        app: Application,
        monitor: Optional[Monitor] = None,
        view: Optional[View] = None,
    ) -> None:
        super().__init__(name, loop, monitor)
        if view is None and name not in config.replicas:
            raise ValueError(f"{name!r} is not a member of group {config.group_id!r}")
        self.config = config
        self.registry = registry
        self.app = app
        #: the active membership; changes through ordered Reconfig commands
        self.view = view if view is not None else View(config.replicas, config.f)
        #: False for a joiner that is not (yet) part of the view
        self.active = name in self.view

        self.pool = PendingPool()
        self.log = DecisionLog(config.checkpoint_interval)
        self.checkpoints = Checkpointer(name, app, self.log, self.monitor)
        self.regency = RegencyManager(self.view.n, self.view.f)
        self._consensus: Dict[int, ConsensusInstance] = {}
        #: leader-side: one batch assembly (fixed cost, cut, per-request
        #: cost) at a time
        self._assembling = False
        #: leader-side: cid -> regency of our own still-open proposals; the
        #: live entries (cid >= execution cursor, undecided) are the
        #: pipeline's in-flight window
        self._started: Dict[int, int] = {}

        self._pending_since: Dict[Tuple[str, int], float] = {}
        self._request_timer = None
        #: the results a retransmitted request is answered with
        self._replies = ReplyWindow()
        #: (peer, regency) -> last time we re-sent them our old STOP vote
        self._stop_assist_at: Dict[Tuple[str, int], float] = {}

        self._state_xfer_active = False
        self._state_responses: Dict[str, StateResponse] = {}
        #: failed state rounds since the last successful adoption; drives
        #: the capped, jittered re-request backoff
        self._state_attempts = 0
        self._state_backoff_until = 0.0
        #: locally monotonic count of view changes (reconfigs + carried
        #: checkpoint views), exported as the membership.view.<name> gauge
        self._view_epoch = 0
        #: administratively retired (see ``decommission``): stays inactive
        #: even if catch-up replays a Reconfig that once included us
        self._retired = False
        #: proposals for consensus ids we have not reached yet (bounded stash)
        self._future_proposals: Dict[int, Tuple[str, Propose]] = {}
        #: highest consensus id whose batch has *finished executing* here.
        #: Distinct from ``log.next_execute``: the cursor advances
        #: synchronously at decision time while execution is CPU-deferred,
        #: so reads must be keyed on this counter (and served through the
        #: same FIFO work queue) or two replicas could vouch for the same
        #: cid with different applied state.
        self._applied_cid = -1
        #: (req_sender, rid, mode, cid, value_digest) of reads we answered
        self.read_journal: Deque[Tuple[str, int, str, int, bytes]] = deque(
            maxlen=READ_JOURNAL_CAP)

    # ------------------------------------------------------------------ api

    @property
    def group_id(self) -> str:
        return self.config.group_id

    @property
    def is_leader(self) -> bool:
        return (
            not self.regency.in_transition
            and self.view.leader_of(self.regency.current) == self.name
        )

    def peers(self) -> Tuple[str, ...]:
        """All group members except this replica."""
        return tuple(r for r in self.view.replicas if r != self.name)

    def _apply_reconfig(self, command: Reconfig) -> None:
        """Switch to the new membership at this consensus boundary."""
        new_view = command.to_view(self.view.f)
        was_active = self.active
        self.view = new_view
        self.regency.update_view(new_view.n, new_view.f)
        # Instances beyond this boundary run in the new view: refresh
        # their quorum and drop votes from ex-members (see
        # ConsensusInstance.rescope).
        for cid, instance in self._consensus.items():
            if cid >= self.log.next_execute and not instance.decided:
                instance.rescope(new_view.replicas, new_view.quorum)
        self.active = self.name in new_view and not self._retired
        self._started.clear()
        self._note_view_change()
        self.monitor.record(self.name, "replica.reconfigured",
                            members=",".join(new_view.replicas),
                            active=self.active)
        if not self.active and was_active:
            self._teardown_departure()
            return
        if self.active and not was_active:
            # Freshly joined: we are already caught up to this boundary.
            self._maybe_propose()
        elif self.regency.in_transition:
            # The Reconfig raced a regency change mid-window: the pending
            # regency's leader slot may map to a different replica under the
            # new view (or the old target may have just left).  Re-emit our
            # STOPDATA toward the leader the *new* view designates so the
            # synchronization phase converges instead of stalling until the
            # next request timeout.
            self.monitor.record(self.name, "reconfig.regency_race",
                                regency=self.regency.current)
            self._on_regency_transition(self.regency.current)

    def _teardown_departure(self) -> None:
        """Cleanly drop a departing replica's in-flight consensus state.

        A removed member must stop voting/proposing immediately and must
        not hold references to open instances of a window it is no longer
        part of; it keeps answering StateRequests (its executed log is
        still valid history) so joiners can catch up from it.
        """
        self._consensus.clear()
        self._future_proposals.clear()
        self._assembling = False
        self._state_xfer_active = False
        self._state_responses.clear()
        self._pending_since.clear()
        self._request_timer = None
        self._stop_assist_at.clear()
        self.pool = PendingPool()
        self._update_inflight_gauge()
        self.monitor.record(self.name, "replica.departed")

    def decommission(self) -> None:
        """Administratively retire a replica removed from the membership.

        The common departure path is self-service: a member that executes
        the Reconfig dropping it tears itself down in ``_apply_reconfig``.
        But a *lagging* member (e.g. a joiner still in state transfer when
        it is removed) may never execute that command — the remaining
        members stop counting its votes, so nothing compels it to catch up
        — and it would idle forever in a stale view.  The elasticity
        controller calls this once the reconfiguration is confirmed, which
        matches production practice: the operator decommissions the removed
        node's process.  Retirement is permanent: replaying an *earlier*
        Reconfig that once included this replica must not reactivate it,
        and its inactive catch-up poll stops rescheduling.  Idempotent.
        """
        if self._retired:
            return
        self._retired = True
        was_active = self.active
        self.active = False
        self.monitor.record(self.name, "replica.decommissioned")
        if was_active:
            self._note_view_change()
            self._teardown_departure()
        else:
            self._state_xfer_active = False
            self._state_responses.clear()

    def _note_view_change(self) -> None:
        """Export the membership gauges (off the counter fingerprint)."""
        self._view_epoch += 1
        self.monitor.gauge(f"membership.size.{self.group_id}",
                           float(self.view.n))
        self.monitor.gauge(f"membership.view.{self.name}",
                           float(self._view_epoch))

    def start(self) -> None:
        self.monitor.gauge(f"membership.size.{self.group_id}",
                           float(self.view.n))
        self.monitor.gauge(f"membership.view.{self.name}",
                           float(self._view_epoch))
        if not self.active:
            self._inactive_poll()
        if self.config.heartbeat_interval > 0:
            self.set_timer(self.config.heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if self.crashed:
            return
        if self.active and self.is_leader:
            beat = Heartbeat(self.group_id, self.regency.current,
                             self.log.next_execute, self.name)
            self._broadcast(beat)
        self.set_timer(self.config.heartbeat_interval, self._heartbeat_tick)

    def _handle_heartbeat(self, src: str, beat: Heartbeat) -> None:
        if beat.group != self.group_id or beat.sender != src:
            return
        if src not in self.view.replicas:
            return
        if beat.next_cid > self.log.next_execute:
            # The leader's beacon reached us, so the group is reachable:
            # any unreachability backoff is stale evidence — drop it.
            self._state_backoff_until = 0.0
            self._request_state()

    def _inactive_poll(self) -> None:
        """A joiner keeps pulling state until a Reconfig activates it."""
        if self.active or self.crashed or self._retired:
            return
        self._request_state()
        self.set_timer(self.config.request_timeout, self._inactive_poll)

    def recover(self) -> None:
        """Rejoin after a benign crash: wipe volatile state, catch up."""
        self.crashed = False
        self._consensus.clear()
        self._assembling = False
        self._started.clear()
        self.pool = PendingPool()
        self._pending_since.clear()
        self._request_timer = None
        self._stop_assist_at.clear()
        self._state_xfer_active = False
        self._state_responses.clear()
        self._state_attempts = 0
        self._state_backoff_until = 0.0
        self.monitor.record(self.name, "replica.recover")
        if self.config.heartbeat_interval > 0:
            self.set_timer(self.config.heartbeat_interval, self._heartbeat_tick)
        self._request_state()

    # ----------------------------------------------------------- dispatch

    def on_message(self, src: str, payload: Any) -> None:
        costs = self.config.costs
        if not self.active and not isinstance(payload, (StateRequest, StateResponse)):
            return  # a joiner only catches up until a Reconfig activates it
        if isinstance(payload, Request):
            self.work(costs.request_recv, lambda: self._handle_request(src, payload))
        elif isinstance(payload, ReadRequest):
            # Served through the same FIFO work queue as batch execution:
            # a read enqueued behind a pending _execute_batch job observes
            # that batch's effects and its advanced _applied_cid, never a
            # half-applied mixture.
            cost = (costs.request_recv + costs.execute_per_msg
                    + costs.reply_per_msg)
            self.work(cost, lambda: self._handle_read_request(src, payload))
        elif isinstance(payload, Propose):
            cost = costs.validate_fixed + costs.validate_per_msg * len(payload.batch)
            self.work(cost, lambda: self._handle_propose(src, payload))
        elif isinstance(payload, AuthenticatedPropose):
            cost = (costs.validate_fixed
                    + costs.validate_per_msg * len(payload.proposal.batch))
            self.work(cost,
                      lambda: self._handle_authenticated_propose(src, payload))
        elif isinstance(payload, Write):
            self.work(costs.vote_recv, lambda: self._handle_write(src, payload))
        elif isinstance(payload, Accept):
            self.work(costs.vote_recv, lambda: self._handle_accept(src, payload))
        elif isinstance(payload, Stop):
            self.work(costs.vote_recv, lambda: self._handle_stop(src, payload))
        elif isinstance(payload, StopData):
            self.work(costs.vote_recv, lambda: self._handle_stopdata(src, payload))
        elif isinstance(payload, Sync):
            self.work(costs.vote_recv, lambda: self._handle_sync(src, payload))
        elif isinstance(payload, StateRequest):
            self.work(costs.vote_recv, lambda: self._handle_state_request(src, payload))
        elif isinstance(payload, StateResponse):
            self.work(costs.vote_recv, lambda: self._handle_state_response(src, payload))
        elif isinstance(payload, Heartbeat):
            self.work(costs.vote_recv, lambda: self._handle_heartbeat(src, payload))
        elif isinstance(payload, Reply):
            # Replies reach a replica when it acts as a *sender* to another
            # group (ByzCast relays); the application owns those proxies.
            handler = getattr(self.app, "handle_reply", None)
            if handler is not None:
                handler(src, payload)
        elif hasattr(self.app, "answer"):
            # The application's own unordered traffic (ByzCast's
            # DeliveryQuery): whatever it answers goes back to the sender.
            answer = self.app.answer(src, payload)
            if answer is not None:
                self.send(src, answer)
        else:
            self.monitor.record(self.name, "replica.unknown_message", kind=type(payload).__name__)

    def _broadcast(self, message: Any, size: int = 64) -> None:
        """Send ``message`` to every peer (not to self)."""
        for peer in self.peers():
            self.send(peer, message, size)

    # ----------------------------------------------------------- requests

    def _handle_request(self, src: str, request: Request) -> None:
        if request.group != self.group_id:
            return
        # Admission-time validation (as in BFT-SMaRt): a request that could
        # never pass proposal validation must not enter the pool, or it
        # would poison every batch built from it.  The CPU cost of this
        # check is part of ``request_recv``.
        if self.config.verify_client_signatures:
            if request.signature is None or request.signature.signer != request.sender:
                self.monitor.record(self.name, "request.unsigned", sender=request.sender)
                return
            if not verify(self.registry, request.signed_part(), request.signature):
                self.monitor.record(self.name, "request.bad_signature", sender=request.sender)
                return
        if self.log.tracker.is_duplicate(request):
            result = self._replies.get(request.sender, request.seq)
            if result is not None:
                self.send(request.sender, Reply(self.group_id, self.name,
                                                request.sender, request.seq,
                                                result))
            return
        if self.pool.add(request):
            self._pending_since[request.key()] = self.loop.now
            self._arm_request_timer()
        self._maybe_propose()

    # -------------------------------------------------------------- reads

    def _handle_read_request(self, src: str, request: ReadRequest) -> None:
        if request.group != self.group_id:
            return
        if request.sender != src:
            # Read probes are unsigned (idempotent, state-change free), so
            # the transport source is the only sender evidence we have.
            self.monitor.count("read.spoofed_sender")
            return
        self._serve_read(src, request)

    def _serve_read(self, src: str, request: ReadRequest) -> None:
        """Answer a read probe from local state (Byzantine override point)."""
        if request.mode == "snapshot":
            checkpoint = self.log.checkpoint
            cid = checkpoint.cid if checkpoint is not None else -1
            reader = getattr(self.app, "snapshot_read", None)
        else:
            cid = self._applied_cid
            reader = getattr(self.app, "read", None)
        if reader is None:
            # App does not support this read mode: stay silent; the client
            # times out and falls back to the ordered path.
            self.monitor.count(f"read.unsupported.{request.mode}")
            return
        result = reader(request.payload)
        reply = ReadReply(
            group=self.group_id,
            sender=self.name,
            req_sender=request.sender,
            rid=request.rid,
            mode=request.mode,
            cid=cid,
            value_digest=digest(("readv", result)),
            result=result,
        )
        self.read_journal.append(
            (request.sender, request.rid, request.mode, cid, reply.value_digest))
        self.monitor.count(f"read.served.{request.mode}")
        self.send(src, reply)

    # ----------------------------------------------------------- proposing

    def _open_count(self) -> int:
        """Our own proposals still undecided — the in-flight window depth."""
        cursor = self.log.next_execute
        return sum(1 for cid in self._started if cid >= cursor)

    def _cid_open(self, cid: int) -> bool:
        """True iff ``cid`` is already claimed by a live consensus instance."""
        if cid in self._started:
            return True
        instance = self._consensus.get(cid)
        if instance is None:
            return False
        return instance.decided or (
            instance.proposed_digest is not None
            and instance.proposal_regency == self.regency.current
        )

    def _next_cid(self) -> int:
        """Lowest cid that is neither decided nor claimed by an open instance.

        Scanning from the execution cursor (instead of jumping to
        ``highest_decided + 1``) makes the pipelined leader naturally fill
        holes left by a regency change before extending the window.
        """
        cid = self.log.next_execute
        while self.log.has_decision(cid) or self._cid_open(cid):
            cid += 1
        return cid

    def _reserved_floors(self) -> Optional[Dict[str, int]]:
        """Per-sender highest seq claimed by open instances + buffered decisions.

        Requests in those batches are not yet ordered (the FIFO tracker only
        advances at execution), but proposing them again would double-propose;
        the pool must batch strictly *above* these floors.  Returns ``None``
        when nothing is claimed — the sequential depth-1 fast path.
        """
        floors: Dict[str, int] = {}

        def claim(batch: Tuple[Request, ...]) -> None:
            for request in batch:
                if request.seq > floors.get(request.sender, 0):
                    floors[request.sender] = request.seq

        cursor = self.log.next_execute
        for cid, regency in self._started.items():
            if cid < cursor:
                continue
            instance = self._consensus.get(cid)
            if (instance is not None and instance.proposed_batch is not None
                    and instance.proposal_regency == regency):
                claim(instance.proposed_batch)
        for cid, batch in self.log.buffered_decisions():
            claim(batch)
        return floors or None

    def _maybe_propose(self) -> None:
        """Leader: open another consensus instance if the window has room.

        Natural batching (§IV): an instance starts whenever a pipeline slot
        is free and some pooled request is not yet claimed by an open one —
        no timer.  The batch is whatever accumulated meanwhile, so its size
        follows the load.
        """
        if not self.is_leader or self._assembling or self._state_xfer_active:
            return
        if self._open_count() >= self.config.max_in_flight:
            return
        if not len(self.pool) or not self.pool.admissible_batch(
                self.log.tracker, 1, self._reserved_floors()):
            return
        self._assembling = True
        # The instance's fixed cost runs first; the batch is cut after it,
        # from a second job, so requests whose receive work queued behind
        # the fixed cost are pooled by then and ride in this instance.
        self.work(self.config.costs.propose_fixed,
                  lambda: self.work(0.0, self._begin_proposal))

    def _begin_proposal(self) -> None:
        """Cut the batch (fixed cost already paid) and charge its per-request CPU."""
        if not self.is_leader or self._state_xfer_active:
            self._assembling = False
            return
        batch = self.pool.admissible_batch(
            self.log.tracker, self.config.max_batch, self._reserved_floors()
        )
        if not batch:
            self._assembling = False
            return
        cid = self._next_cid()
        regency = self.regency.current
        cost = self.config.costs.propose_per_msg * len(batch)
        self.work(cost, lambda: self._send_propose(cid, regency, batch))

    def _send_propose(self, cid: int, regency: int, batch: Tuple[Request, ...]) -> None:
        """Emit the proposal (overridden by Byzantine behaviours)."""
        if regency != self.regency.current or self.regency.in_transition:
            self._assembling = False  # a regency change raced with us
            return
        if not self.is_leader:
            self._assembling = False  # a reconfiguration changed the schedule
            return
        proposal = Propose(self.group_id, regency, cid, batch, self.name)
        self._started[cid] = regency
        self._assembling = False
        self.monitor.record(self.name, "consensus.propose", cid=cid, batch=len(batch))
        if self.config.authenticate_batches:
            # One memoised batch digest, one 16-byte tag per follower link
            # (BFT-SMaRt MAC vectors); receivers check their tag before
            # paying per-request validation.
            vec = mac_vector(self.registry, self.name, self.peers(), proposal)
            wrapped = AuthenticatedPropose(
                proposal, tuple(sorted(vec.items())))
            self._broadcast(wrapped, size=64 * max(1, len(batch)))
        else:
            self._broadcast(proposal, size=64 * max(1, len(batch)))
        # Local processing of our own proposal (no network hop for self).
        self._process_proposal(self.name, proposal)
        self._update_inflight_gauge()
        # Pipeline fill: with window room left, start assembling the next
        # instance immediately (a no-op at max_in_flight=1).
        self._maybe_propose()

    def _update_inflight_gauge(self) -> None:
        self.monitor.gauge(f"consensus.in_flight.{self.name}",
                           float(self._open_count()))

    # ------------------------------------------------------ proposal intake

    def _handle_propose(self, src: str, proposal: Propose) -> None:
        self._note_progress_gap(proposal.cid)
        if self._process_proposal(src, proposal):
            # Accepting this proposal may have completed the chain a stashed
            # later proposal was waiting for.
            self._drain_future_proposals()

    def _handle_authenticated_propose(
            self, src: str, wrapped: AuthenticatedPropose) -> None:
        """Link-authentication gate of the receive path (docs/WIRE.md).

        The MAC check is per-link and happens *first*: a batch whose tag
        does not verify under the (src, self) channel key was tampered
        with in flight or sent by an impersonator, and is dropped for the
        cost of one digest (memoised) + one HMAC over 32 bytes — never
        reaching the ``len(batch)``-signature validation loop.  A valid
        tag proves nothing about the *content* (the leader may be
        Byzantine), so the full proposal validation still runs after.
        """
        if not verify_mac_vector(self.registry, src, self.name,
                                 wrapped.proposal, dict(wrapped.vector)):
            self.monitor.record(self.name, "propose.bad_link_mac", src=src)
            return
        self._handle_propose(src, wrapped.proposal)

    def _process_proposal(self, src: str, proposal: Propose) -> bool:
        if not self._validate_proposal(src, proposal):
            return False
        d = digest(proposal.batch)
        instance = self._instance(proposal.cid)
        if not instance.note_proposal(proposal.regency, d, proposal.batch):
            self.monitor.record(self.name, "consensus.equivocation", cid=proposal.cid)
            return False
        if instance.should_write(proposal.regency):
            instance.mark_write_sent(proposal.regency)
            write = Write(self.group_id, proposal.regency, proposal.cid, d, self.name)
            self._broadcast(write)
            self._apply_write(self.name, write)
        return True

    def _validate_proposal(self, src: str, proposal: Propose) -> bool:
        """All the checks a correct replica performs before echoing a batch."""
        record = self.monitor.record
        if proposal.group != self.group_id:
            return False
        if self.regency.in_transition or proposal.regency != self.regency.current:
            record(self.name, "propose.wrong_regency", cid=proposal.cid)
            return False
        expected_leader = self.view.leader_of(proposal.regency)
        if src != expected_leader or proposal.leader != expected_leader:
            record(self.name, "propose.wrong_leader", src=src)
            return False
        if not 1 <= len(proposal.batch) <= self.config.max_batch:
            record(self.name, "propose.bad_batch_size", size=len(proposal.batch))
            return False
        cursor = self.log.next_execute
        window = self.config.max_in_flight
        if proposal.cid < cursor or proposal.cid >= cursor + window:
            # Stale (already executed) or beyond the window (we are behind):
            # never echo now, but stash a slightly-ahead proposal so a
            # lagging replica can vote as soon as it catches up.
            if (
                proposal.cid >= cursor + window
                and proposal.cid - cursor <= self._stash_bound()
            ):
                self._future_proposals[proposal.cid] = (src, proposal)
            record(self.name, "propose.wrong_cid", cid=proposal.cid)
            return False
        floors: Dict[str, int] = {}
        if proposal.cid > cursor:
            # Pipelined proposal: per-sender FIFO must chain through the
            # batches of every instance between the cursor and this cid.
            chained = self._chain_floors(proposal.cid, proposal.regency)
            if chained is None:
                # A link of the chain is unknown here (its PROPOSE is still
                # in flight): stash and re-validate once it lands.
                if proposal.cid - cursor <= self._stash_bound():
                    self._future_proposals[proposal.cid] = (src, proposal)
                record(self.name, "propose.missing_link", cid=proposal.cid)
                return False
            floors = chained
        virtual: Dict[str, int] = {}
        seen = set()
        for request in proposal.batch:
            if request.group != self.group_id:
                record(self.name, "propose.foreign_request")
                return False
            if request.key() in seen:
                record(self.name, "propose.duplicate_request")
                return False
            seen.add(request.key())
            floor = max(self.log.tracker.last(request.sender),
                        floors.get(request.sender, 0))
            expected = virtual.get(request.sender, floor) + 1
            if request.seq != expected:
                record(self.name, "propose.fifo_violation", sender=request.sender)
                return False
            virtual[request.sender] = request.seq
            if self.config.verify_client_signatures:
                if request.signature is None or request.signature.signer != request.sender:
                    record(self.name, "propose.unsigned_request", sender=request.sender)
                    return False
                if not verify(self.registry, request.signed_part(), request.signature):
                    record(self.name, "propose.bad_signature", sender=request.sender)
                    return False
        return True

    def _stash_bound(self) -> int:
        """How far ahead of the cursor a proposal may be stashed."""
        return max(8, 2 * self.config.max_in_flight)

    def _chain_floors(self, cid: int, regency: int) -> Optional[Dict[str, int]]:
        """Per-sender FIFO floors implied by instances below ``cid``.

        A pipelined proposal at ``cid > next_execute`` must extend the
        sender sequences claimed by every instance in ``[next_execute,
        cid)``: decided batches (buffered or still in their instance) count
        unconditionally, undecided instances count through their proposal
        of the *same* regency (the leader's own chain — each link was
        FIFO-validated before being recorded, so the floors compose).
        Returns ``None`` when any link is unknown locally.
        """
        floors: Dict[str, int] = {}
        for link in range(self.log.next_execute, cid):
            batch = self.log.decided_batch(link)
            if batch is None:
                instance = self._consensus.get(link)
                if instance is not None:
                    if instance.decided:
                        batch = instance.decided_batch()
                    elif (instance.proposed_batch is not None
                          and instance.proposal_regency == regency):
                        batch = instance.proposed_batch
            if batch is None:
                return None
            for request in batch:
                if request.seq > floors.get(request.sender, 0):
                    floors[request.sender] = request.seq
        return floors

    def _reconfig_authorized(self, request: Request) -> bool:
        """Only the group's view manager may change membership.

        Evaluated at execution time (deterministically, from ordered data),
        so an unauthorized Reconfig is simply refused with an error reply
        instead of poisoning proposals or the sender's FIFO stream.
        """
        command = request.command
        if request.sender != admin_identity(self.group_id):
            return False
        if command.group != self.group_id:
            return False
        new_f = command.new_f if command.new_f is not None else self.view.f
        if new_f < 1:
            return False
        try:
            View(tuple(command.new_replicas), new_f)
        except Exception:
            return False
        return True

    # ------------------------------------------------------------- voting

    def _instance(self, cid: int) -> ConsensusInstance:
        if cid not in self._consensus:
            self._consensus[cid] = ConsensusInstance(cid=cid, quorum=self.view.quorum)
        return self._consensus[cid]

    def _handle_write(self, src: str, write: Write) -> None:
        if write.group != self.group_id or write.sender != src:
            return
        if src not in self.view.replicas:
            return
        self._note_progress_gap(write.cid)
        self._apply_write(src, write)

    def _apply_write(self, sender: str, write: Write) -> None:
        if write.cid < self.log.next_execute:
            return
        instance = self._instance(write.cid)
        instance.add_write(write.regency, write.digest, sender)
        if instance.should_accept(write.regency, write.digest):
            instance.mark_accept_sent(write.regency)
            accept = Accept(self.group_id, write.regency, write.cid, write.digest, self.name)
            self._broadcast(accept)
            self._apply_accept(self.name, accept)

    def _handle_accept(self, src: str, accept: Accept) -> None:
        if accept.group != self.group_id or accept.sender != src:
            return
        if src not in self.view.replicas:
            return
        self._note_progress_gap(accept.cid)
        self._apply_accept(src, accept)

    def _apply_accept(self, sender: str, accept: Accept) -> None:
        if accept.cid < self.log.next_execute:
            return
        instance = self._instance(accept.cid)
        if instance.add_accept(accept.regency, accept.digest, sender):
            self._on_decided(instance)

    # ------------------------------------------------------------ decision

    def _on_decided(self, instance: ConsensusInstance) -> None:
        batch = instance.decided_batch()
        self.monitor.record(self.name, "consensus.decided", cid=instance.cid)
        self._started.pop(instance.cid, None)
        if batch is None:
            # We know *that* cid decided but not *what* — fetch from peers.
            self.monitor.record(self.name, "consensus.decided_unknown", cid=instance.cid)
            self._request_state()
            return
        self.log.record_decision(instance.cid, batch)
        self._update_inflight_gauge()
        self._execute_ready()

    def _execute_ready(self) -> None:
        for cid, batch in self.log.ready_batches():
            self._consensus.pop(cid, None)
            self._started.pop(cid, None)
            # FIFO/ordering state advances *synchronously* at decision time:
            # a proposal for cid+1 may be validated before the (CPU-deferred)
            # execution job runs, and it must see the up-to-date tracker.
            ordered = []
            for request in batch:
                self._pending_since.pop(request.key(), None)
                self.pool.remove(request.sender, request.seq)
                if self.log.mark_ordered(request):
                    if (isinstance(request.command, Reconfig)
                            and self._reconfig_authorized(request)):
                        self._apply_reconfig(request.command)
                    ordered.append(request)
                # else: duplicate slipped through (e.g. a carried batch)
            self.pool.prune_ordered(self.log.tracker)
            costs = self.config.costs
            cost = (costs.execute_per_msg + costs.reply_per_msg) * len(ordered)
            # Execution is per carried message, everything else per request.
            carried = sum(self.app.carried(request) for request in ordered)
            cost += costs.execute_per_msg * (carried - len(ordered))
            # The FIFO tracker and the view advance synchronously (above)
            # while application execution is CPU-deferred, so a checkpoint's
            # tracker/view must be captured *here* — at the cursor — or a
            # later batch's Reconfig/ordering could leak into the snapshot
            # and break digest agreement across replicas.
            boundary = None
            if self.checkpoints.due(cid):
                boundary = (cid, self.log.tracker.snapshot(), self.view)
                cost += costs.checkpoint_fixed
            self.work(cost, lambda b=tuple(ordered), m=boundary, c=cid:
                      self._execute_batch(b, m, c))
        self._drain_future_proposals()
        self._maybe_propose()

    def _execute_batch(
        self,
        batch: Tuple[Request, ...],
        checkpoint_boundary: Optional[Tuple[int, Dict[str, int], View]] = None,
        cid: int = -1,
    ) -> None:
        ctx = ExecutionContext(replica=self, time=self.loop.now)
        for request in batch:
            if isinstance(request.command, Reconfig):
                if self._reconfig_authorized(request):
                    result = ("ok", "reconfig", request.command.new_replicas)
                else:
                    result = ("error", "reconfig denied")
                    self.monitor.record(self.name, "reconfig.denied",
                                        sender=request.sender)
            else:
                result = self.app.execute(request, ctx)
            self.monitor.record(self.name, "replica.executed", sender=request.sender, seq=request.seq)
            if result is not None:
                reply = Reply(self.group_id, self.name, request.sender, request.seq, result)
                self._replies.keep(request.sender, request.seq, result)
                self._send_reply(request, reply)
        self.app.end_batch(ctx)
        if cid > self._applied_cid:
            self._applied_cid = cid
        if checkpoint_boundary is not None:
            cid, tracker_state, view = checkpoint_boundary
            self._take_checkpoint(cid, tracker_state, view)
        self._maybe_propose()

    def _drain_future_proposals(self) -> None:
        """Re-process stashed proposals that fell inside the window.

        A drained proposal may immediately re-stash itself (its chain link
        is still missing), so each cid is attempted at most once per drain
        to guarantee termination.
        """
        stale = [cid for cid in self._future_proposals if cid < self.log.next_execute]
        for cid in stale:
            del self._future_proposals[cid]
        attempted: set = set()
        while True:
            window_end = self.log.next_execute + self.config.max_in_flight
            ready = [cid for cid in self._future_proposals
                     if cid < window_end and cid not in attempted]
            if not ready:
                return
            cid = min(ready)
            attempted.add(cid)
            src, proposal = self._future_proposals.pop(cid)
            self._process_proposal(src, proposal)

    def _send_reply(self, request: Request, reply: Reply) -> None:
        """Deliver the reply to the request's sender (override point)."""
        self.send(request.sender, reply)

    # ------------------------------------------------------- request timer

    def _arm_request_timer(self) -> None:
        if self._request_timer is not None or not self._pending_since:
            return
        self._request_timer = self.set_timer(
            self.config.request_timeout, self._request_timer_fired
        )

    def _request_timer_fired(self) -> None:
        self._request_timer = None
        if not self._pending_since:
            return
        oldest = min(self._pending_since.values())
        waited = self.loop.now - oldest
        if waited >= self.config.request_timeout * 0.999:
            self._initiate_stop()
            # Anti-entropy: the stall may be because *we* fell behind the
            # quorum (our votes or decisions were lost); ask peers for their
            # executed log alongside the leader-change vote.
            self._request_state()
            now = self.loop.now
            for key in self._pending_since:
                self._pending_since[key] = now
            self._request_timer = self.set_timer(
                self.config.request_timeout, self._request_timer_fired
            )
        else:
            remaining = self.config.request_timeout - waited
            self._request_timer = self.set_timer(remaining, self._request_timer_fired)

    # ------------------------------------------------------ regency change

    def _initiate_stop(self) -> None:
        regency = self.regency.current
        stop = Stop(self.group_id, regency, self.name)
        if not self.regency.has_sent_stop(regency):
            self.monitor.record(self.name, "regency.stop", regency=regency)
            self.regency.note_own_stop(regency)
        else:
            # Retransmit: our earlier STOP may have been lost (drops or a
            # partition); peers count stop votes idempotently.
            self.monitor.count("regency.stop_retransmit")
        self._broadcast(stop)
        self._apply_stop(self.name, stop)

    def _handle_stop(self, src: str, stop: Stop) -> None:
        if stop.group != self.group_id or stop.sender != src:
            return
        if src not in self.view.replicas:
            return
        if (stop.regency < self.regency.current
                and self.regency.has_sent_stop(stop.regency)):
            # Laggard assist: the sender is still collecting STOPs for a
            # regency we already abandoned.  Our own STOP for that regency
            # may have been lost (drops, partitions) — without it the
            # laggard can end up one vote short of the 2f+1 quorum forever,
            # splitting the group across regencies (observed under a mute
            # Byzantine leader: the up-to-date minority votes for the new
            # regency, the laggards for the old one, and neither side
            # reaches quorum).  Re-sending the old vote is idempotent and
            # lets the laggard catch up to our regency.  Rate-limited per
            # (peer, regency): two replicas both past ``stop.regency`` would
            # otherwise treat each other's assist as stale and bounce it
            # back forever; within the rate window the echo is suppressed
            # and the chain dies, while a genuinely stuck laggard's
            # timer-driven retransmits keep earning fresh assists.
            key = (src, stop.regency)
            last = self._stop_assist_at.get(key)
            if last is None or self.loop.now - last >= self.config.request_timeout:
                self._stop_assist_at[key] = self.loop.now
                self.monitor.count("regency.stop_assist")
                self.send(src, Stop(self.group_id, stop.regency, self.name))
        self._apply_stop(src, stop)

    def _apply_stop(self, sender: str, stop: Stop) -> None:
        self.regency.add_stop(stop.regency, sender)
        if self.regency.should_join_stop(stop.regency):
            self.regency.note_own_stop(stop.regency)
            echoed = Stop(self.group_id, stop.regency, self.name)
            self._broadcast(echoed)
            self.regency.add_stop(stop.regency, self.name)
        if stop.regency >= self.regency.current and self.regency.stop_quorum(stop.regency):
            new_regency = self.regency.begin_transition(stop.regency)
            self._on_regency_transition(new_regency)

    def _cert_reports(self, new_regency: int) -> Tuple[CertReport, ...]:
        """Per-open-cid evidence for STOPDATA / the leader's own sync input.

        Covers the pipeline window ``[next_execute, next_execute + depth)``:
        a buffered decision outranks any write certificate (reported with
        ``cert_regency = new_regency - 1``, the highest regency any honest
        cert could carry), a write certificate is reported at its own
        regency, and a merely-proposed batch is reported uncertified
        (``cert_regency = -1``) so the new leader can use it as a
        deterministic gap filler below a certified cid.
        """
        reports: List[CertReport] = []
        cursor = self.log.next_execute
        for cid in range(cursor, cursor + self.config.max_in_flight):
            decided = self.log.decided_batch(cid)
            if decided is not None:
                reports.append(CertReport(cid, new_regency - 1, decided))
                continue
            instance = self._consensus.get(cid)
            if instance is None:
                continue
            cert = instance.write_cert
            if cert is not None:
                reports.append(CertReport(cid, cert.regency,
                                          cert.batch if cert.batch else None))
            elif instance.proposed_batch is not None:
                reports.append(CertReport(cid, -1, instance.proposed_batch))
        return tuple(reports)

    def _on_regency_transition(self, new_regency: int) -> None:
        self.monitor.record(self.name, "regency.transition", regency=new_regency)
        self._assembling = False
        self._started.clear()
        data = StopData(
            group=self.group_id,
            regency=new_regency,
            sender=self.name,
            cid=self.log.next_execute,
            certs=self._cert_reports(new_regency),
        )
        new_leader = self.view.leader_of(new_regency)
        if new_leader == self.name:
            self._apply_stopdata(self.name, data)
        else:
            self.send(new_leader, data)

    def _handle_stopdata(self, src: str, data: StopData) -> None:
        if data.group != self.group_id or data.sender != src:
            return
        if src not in self.view.replicas:
            return
        if len(data.certs) > MAX_STOPDATA_CERTS:
            # A Byzantine peer cannot force unbounded sync work: honest
            # reports never exceed the pipeline window.
            self.monitor.count("regency.stopdata_oversize")
            return
        self._apply_stopdata(src, data)

    def _apply_stopdata(self, sender: str, data: StopData) -> None:
        if self.view.leader_of(data.regency) != self.name:
            return
        if data.regency < self.regency.current:
            return
        self.regency.add_stopdata(data)
        if self.regency.sync_ready(data.regency):
            decision = self.regency.choose_sync(
                data.regency, self.log.next_execute,
                self._cert_reports(data.regency))
            self.regency.mark_sync_sent(data.regency)
            sync = Sync(
                group=self.group_id,
                regency=data.regency,
                leader=self.name,
                cid=decision.cid,
                carries=decision.carries,
            )
            self.monitor.record(self.name, "regency.sync", regency=data.regency,
                                carries=len(decision.carries))
            self._broadcast(sync)
            self._apply_sync(self.name, sync)

    def _handle_sync(self, src: str, sync: Sync) -> None:
        if sync.group != self.group_id or sync.leader != src:
            return
        self._apply_sync(src, sync)

    def _apply_sync(self, sender: str, sync: Sync) -> None:
        if self.view.leader_of(sync.regency) != sender:
            return
        if not self.regency.accepts_sync(sync.regency):
            return
        self.regency.install(sync.regency)
        self.monitor.record(self.name, "regency.installed", regency=sync.regency)
        now = self.loop.now
        for key in self._pending_since:
            self._pending_since[key] = now
        for cid, batch in sync.carries:
            if cid < self.log.next_execute or not batch:
                continue
            carried = Propose(self.group_id, sync.regency, cid, batch, sender)
            if sender == self.name:
                # The new leader's carries are its own open instances.
                self._started.setdefault(cid, sync.regency)
            self._process_proposal(sender, carried)
        self._update_inflight_gauge()
        self._drain_future_proposals()
        self._maybe_propose()

    # ------------------------------------------------------- state transfer

    def _note_progress_gap(self, cid: int) -> None:
        threshold = self.config.max_in_flight + STATE_GAP_SLACK
        if cid >= self.log.next_execute + threshold:
            # Live protocol traffic proving a gap is fresh reachability
            # evidence; the backoff only throttles an unreachable quorum.
            self._state_backoff_until = 0.0
            self._request_state()

    def _request_state(self) -> None:
        if self._state_xfer_active:
            return
        if self.loop.now < self._state_backoff_until:
            return  # backing off after failed rounds; the next probe is armed
        self._state_xfer_active = True
        self._state_responses.clear()
        self.monitor.record(self.name, "state.request", from_cid=self.log.next_execute)
        self._broadcast(StateRequest(self.group_id, self.name, self.log.next_execute))
        self.set_timer(STATE_RETRY_TIMEOUT, self._state_timeout)

    def _state_timeout(self) -> None:
        if self._state_xfer_active:
            # The f+1 quorum never answered within the round: count a
            # failure so the next request backs off instead of hot-looping.
            self._state_xfer_active = False
            self._note_state_failure()

    def _note_state_failure(self) -> None:
        """Arm the capped, jittered backoff after a fruitless state round.

        Same clamp shape as the client proxy's retransmit backoff (64x cap);
        the jitter is deterministic per (replica, attempt) via crc32 — NOT
        the process-salted builtin ``hash`` — so simulated runs stay
        reproducible while a cohort of joiners still de-synchronizes
        instead of re-requesting in lockstep.
        """
        self._state_attempts += 1
        multiplier = min(2 ** (self._state_attempts - 1),
                         MAX_STATE_BACKOFF_MULTIPLIER)
        jitter = (zlib.crc32(f"{self.name}:{self._state_attempts}".encode())
                  % 1024) / 4096.0  # [0, 0.25)
        self._state_backoff_until = self.loop.now + (
            STATE_RETRY_TIMEOUT * multiplier * (1.0 + jitter))
        self.monitor.record(self.name, "state.backoff",
                            attempts=self._state_attempts)

    def _note_state_success(self) -> None:
        self._state_attempts = 0
        self._state_backoff_until = 0.0

    def _handle_state_request(self, src: str, request: StateRequest) -> None:
        if request.group != self.group_id:
            return
        horizon = self.log.horizon
        checkpoint = self.log.checkpoint if request.from_cid < horizon else None
        # Behind the truncation horizon the answer is checkpoint + retained
        # suffix — never a partial suffix with a silent gap the requester
        # would misread as "nothing in between".
        response = StateResponse(
            group=self.group_id,
            sender=self.name,
            from_cid=request.from_cid,
            next_cid=self.log.next_execute,
            regency=self.regency.current,
            batches=self.log.executed_suffix(max(request.from_cid, horizon)),
            checkpoint=checkpoint,
            horizon=horizon,
        )
        size = 64 * max(1, len(response.batches))
        if checkpoint is not None:
            size += 64 * max(1, self.config.checkpoint_interval)
        self.send(src, response, size=size)

    def _handle_state_response(self, src: str, response: StateResponse) -> None:
        if response.group != self.group_id or response.sender != src:
            return
        if src not in self.view.replicas:
            return
        if not self._state_xfer_active:
            # A straggler of a closed round still counts if it proves we
            # are behind: the round's first f+1 answers may all come from
            # peers stuck at our cursor — a cid decided at one correct
            # replica whose ACCEPTs the others lost, so they can neither
            # decide it again nor learn it from each other.  What the
            # straggler vouches for needs f+1 matching answers (or our own
            # write certificate) all the same.
            if response.next_cid <= self.log.next_execute:
                return
            self._state_responses[src] = response
            if self._try_adopt_state():
                self._execute_ready()
                self._drain_future_proposals()
                self._maybe_propose()
            return
        self._state_responses[src] = response
        if len(self._state_responses) < self.view.f + 1:
            return
        adopted = self._try_adopt_state()
        if not adopted:
            behind = any(r.next_cid > self.log.next_execute
                         for r in self._state_responses.values())
            if behind and len(self._state_responses) < len(self.view.replicas) - 1:
                # f+1 peers answered but no position collected f+1 matching
                # vouchers, and at least one responder proves we are behind.
                # The first f+1 answers may simply be the wrong mix — e.g. a
                # departed member whose log stops before the boundary cid
                # answering ahead of the members that decided it — so keep
                # the round open and re-attempt adoption as stragglers
                # arrive.  STATE_RETRY_TIMEOUT still bounds the round, so a
                # leader is never blocked from proposing for longer than a
                # wholly unanswered round.
                return
        # The round is over: either something installed, every possible peer
        # answered, or nobody vouches we are behind.  If we were genuinely
        # behind but the responses disagreed (drops), the next timeout
        # retries.  Either way an f+1 quorum is *reachable*, so the
        # unreachability backoff resets — an inactive joiner then keeps its
        # designed request_timeout poll cadence rather than the hot loop the
        # backoff guards against.
        self._state_xfer_active = False
        self._note_state_success()
        if adopted:
            self._execute_ready()
        self._drain_future_proposals()
        self._maybe_propose()

    def _try_adopt_state(self) -> bool:
        """Install every log position vouched for by f+1 identical responses.

        A checkpoint, when one is vouched for ahead of the local cursor, is
        installed first (jumping the cursor past the peers' truncation
        horizon); the retained suffix is then replayed batch by batch.
        """
        checkpoint = self.checkpoints.elect(self._state_responses,
                                            self.view.f)
        if checkpoint is not None:
            self._install_checkpoint(checkpoint)
        installed_any = checkpoint is not None
        per_cid: Dict[int, Dict[bytes, Tuple[int, Tuple[Request, ...]]]] = {}
        counts: Dict[Tuple[int, bytes], int] = {}
        regencies = []
        for response in self._state_responses.values():
            regencies.append(response.regency)
            for cid, batch in response.batches:
                d = digest(batch)
                per_cid.setdefault(cid, {})[d] = (cid, batch)
                counts[(cid, d)] = counts.get((cid, d), 0) + 1
        while True:
            cid = self.log.next_execute
            options = per_cid.get(cid)
            if not options:
                break
            chosen = None
            for d, (__, batch) in options.items():
                if counts.get((cid, d), 0) >= self.view.f + 1:
                    chosen = batch
                    break
            if chosen is None:
                # A single voucher suffices when the batch matches a write
                # certificate we assembled ourselves: 2f+1 replicas
                # write-certified this digest, so no other value can ever
                # decide at this cid (quorum intersection, preserved across
                # regency changes by the sync rule).  This is the only
                # recovery path when exactly one correct replica decided a
                # Reconfig at the view boundary: its post-reconfig STOP
                # threshold is higher than the old view can muster, and no
                # second voucher for the boundary cid exists anywhere.
                instance = self._consensus.get(cid)
                cert = instance.write_cert if instance is not None else None
                if cert is not None:
                    match = options.get(cert.digest)
                    if match is not None:
                        chosen = match[1]
                        self.monitor.record(self.name, "state.cert_adopt",
                                            cid=cid)
            if chosen is None:
                break
            for installed_cid, batch in self.log.install_suffix(((cid, chosen),)):
                self._run_installed_batch(installed_cid, batch)
                installed_any = True
        if installed_any:
            target = max(regencies)
            if target > self.regency.current:
                self.regency.install(target)
        return installed_any

    def _install_checkpoint(self, checkpoint: CheckpointData) -> None:
        """Jump the replica's state to a verified peer checkpoint."""
        new_view = View(tuple(checkpoint.view_replicas), checkpoint.view_f)
        was_active = self.active
        self.app.restore(checkpoint.state)
        self.log.install_checkpoint(checkpoint)
        for cid in [c for c in self._consensus if c <= checkpoint.cid]:
            del self._consensus[cid]
        for cid in [c for c in self._started if c <= checkpoint.cid]:
            del self._started[cid]
        if new_view.replicas != self.view.replicas:
            # The truncated prefix contained Reconfigs we will never
            # execute; the checkpoint carries the resulting view instead.
            self.view = new_view
            self.regency.update_view(new_view.n, new_view.f)
            for open_cid, instance in self._consensus.items():
                if open_cid > checkpoint.cid and not instance.decided:
                    instance.rescope(new_view.replicas, new_view.quorum)
            self.active = self.name in new_view
            self._assembling = False
            self._note_view_change()
        self.pool.prune_ordered(self.log.tracker)
        if checkpoint.cid > self._applied_cid:
            self._applied_cid = checkpoint.cid
        for key in [k for k in self._pending_since
                    if self.log.tracker.last(k[0]) >= k[1]]:
            del self._pending_since[key]
        self.monitor.record(self.name, "checkpoint.installed",
                            cid=checkpoint.cid, active=self.active)
        if self.active and not was_active:
            self._maybe_propose()

    def _run_installed_batch(self, cid: int, batch: Tuple[Request, ...]) -> None:
        """Execute a state-transferred batch.

        Replies are sent only for requests still sitting in our pending
        set: those senders asked *us* directly and are still waiting — in
        particular the admin client behind a Reconfig needs f+1 matching
        replies before it can confirm the new view.  Historical requests
        replayed by a joiner were never pending here, so bulk catch-up
        stays reply-silent; their replies are still kept for a sender that
        retransmits.
        """
        ctx = ExecutionContext(replica=self, time=self.loop.now)
        for request in batch:
            was_pending = self._pending_since.pop(request.key(), None) is not None
            self.pool.remove(request.sender, request.seq)
            if not self.log.mark_ordered(request):
                continue
            if isinstance(request.command, Reconfig):
                if self._reconfig_authorized(request):
                    self._apply_reconfig(request.command)
                    result = ("ok", "reconfig", request.command.new_replicas)
                else:
                    result = ("error", "reconfig denied")
            else:
                result = self.app.execute(request, ctx)
            if result is not None:
                reply = Reply(self.group_id, self.name, request.sender,
                              request.seq, result)
                self._replies.keep(request.sender, request.seq, result)
                if was_pending:
                    self._send_reply(request, reply)
            self.monitor.record(self.name, "replica.executed_catchup",
                                sender=request.sender, seq=request.seq)
        self.app.end_batch(ctx)
        self.pool.prune_ordered(self.log.tracker)
        if cid > self._applied_cid:
            self._applied_cid = cid
        if self.checkpoints.due(cid):
            # Catch-up runs synchronously, so tracker and view are exactly
            # the post-``cid`` state here.
            self._take_checkpoint(cid, self.log.tracker.snapshot(), self.view)

    def _take_checkpoint(self, cid: int, tracker_state: Dict[str, int],
                         view: View) -> None:
        """The checkpoint step of a boundary batch (override point)."""
        self.checkpoints.take(cid, tracker_state, view)
