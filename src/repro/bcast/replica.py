"""The replica actor: Mod-SMaRt ordering + execution for one group member.

A replica stitches together the sub-machines of this package, each tested
without a deployment:

* :class:`~repro.bcast.fifo.PendingPool` — unordered requests;
* :class:`~repro.bcast.consensus.ConsensusInstance` — per-cid quorum logic;
* :class:`~repro.bcast.regency.RegencyManager` — the synchronisation
  phase: STOP votes, STOPDATA to the new leader, its SYNC and installation;
* :class:`~repro.bcast.log.DecisionLog` — ordered execution + state;
* :class:`~repro.bcast.checkpoint.Checkpointer` — checkpoint take/verify/vote;
* :class:`~repro.bcast.statetransfer.StateTransfer` — answering state
  requests, the requester's rounds and backoff, and the voucher rule.

Every step has one implementation: a batch, decided live or adopted by
state transfer, is ordered by ``_order`` and executed by
``_execute_batch``; the view changes only in ``_adopt_view``; volatile
state is dropped only by ``_reset_volatile``.

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

from collections import deque
from functools import partial
from operator import attrgetter
from typing import (
    Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple,
)

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
from repro.bcast.statetransfer import STATE_RETRY_TIMEOUT, StateTransfer
from repro.canonical import detach
from repro.crypto.keys import KeyRegistry
from repro.crypto.mac import mac_vector, verify_mac_vector
from repro.crypto.signatures import verify_signed
from repro.env import Actor, Runtime

#: consensus-id lead *beyond the pipeline window* that makes a replica
#: suspect it is missing decisions (the effective threshold is
#: ``max_in_flight + STATE_GAP_SLACK``; at depth 1 this reproduces the
#: historical threshold of 2)
STATE_GAP_SLACK = 1
#: seconds between leader progress beacons, which let quiesced laggards
#: detect that they are behind the quorum
HEARTBEAT_INTERVAL = 1.0
#: bounded audit trail of served reads (the chaos invariant cross-checks
#: accepted client reads against the journals of correct voters)
READ_JOURNAL_CAP = 4096

#: what ``_order`` hands ``_execute_batch``: each request not ordered
#: before, its Reconfig reply (None for any other command) and whether it
#: was pending here; and the checkpoint due after the batch, if any
Ordered = List[Tuple[Request, Any, bool]]
Boundary = Optional[Tuple[int, Dict[str, int], View]]


def _raise_floors(floors: Dict[str, int], batch: Tuple[Request, ...]) -> None:
    """Raise each sender's floor in ``floors`` to its highest seq in ``batch``."""
    for request in batch:
        if request.seq > floors.get(request.sender, 0):
            floors[request.sender] = request.seq


class Replica(Actor):
    """One member of a BFT atomic broadcast group."""

    def __init__(
        self,
        name: str,
        config: BroadcastConfig,
        runtime: Runtime,
        registry: KeyRegistry,
        app: Application,
        view: Optional[View] = None,
    ) -> None:
        super().__init__(name, runtime)
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
        self.state_transfer = StateTransfer(
            name, self.log, self.checkpoints, self.monitor,
            f=lambda: self.view.f, certified=self._certified_digest)
        self.regency = RegencyManager(
            name, config, lambda: self.view, self.monitor, self.clock,
            send=self.send, broadcast=self._broadcast,
            cursor=lambda: self.log.next_execute,
            cert_reports=self._cert_reports,
            transition_started=self._transition_started,
            installed=self._regency_installed)
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
        #: locally monotonic count of view changes (reconfigs + carried
        #: checkpoint views), exported as the membership.view.<name> gauge
        self._view_epoch = 0
        #: administratively retired (see ``decommission``): stays inactive
        #: even if catch-up replays a Reconfig that once included us
        self._retired = False
        #: proposals for consensus ids we have not reached yet (bounded stash)
        self._future_proposals: Dict[int, Tuple[str, Propose]] = {}
        #: a stashed proposal waits for an ordered batch to execute (its
        #: application-vouched request could not be judged before)
        self._stashed_for_execution = False
        #: highest consensus id whose batch has *finished executing* here.
        #: Distinct from ``log.next_execute``: the cursor advances
        #: synchronously at decision time while execution is CPU-deferred,
        #: so reads must be keyed on this counter (and served through the
        #: same FIFO work queue) or two replicas could vouch for the same
        #: cid with different applied state.
        self._applied_cid = -1
        #: (req_sender, rid, cid) of reads we answered
        self.read_journal: Deque[Tuple[str, int, int]] = deque(
            maxlen=READ_JOURNAL_CAP)
        #: (view, its members but us): ``peers()`` per View object
        self._peers: Tuple[Optional[View], Tuple[str, ...]] = (None, ())
        self._inflight_gauge = f"consensus.in_flight.{name}"

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
        view, peers = self._peers
        if view is not self.view:
            view = self.view
            peers = tuple(r for r in view.replicas if r != self.name)
            self._peers = (view, peers)
        return peers

    def in_quorum(self) -> bool:
        """Whether we are in the current regency's quorum, whose members
        reply live (docs/PROTOCOL.md, "Who is sent what")."""
        return self.name in self.view.quorum_of(self.regency.current)

    # --------------------------------------------------------- membership

    def _adopt_view(self, view: View) -> None:
        """Switch to ``view`` at the execution cursor (the one view switch).

        Instances beyond the cursor run in the new view (see
        ConsensusInstance.rescope); a retired replica stays inactive.
        """
        self.view = view
        for cid, instance in self._consensus.items():
            if cid >= self.log.next_execute:
                instance.rescope(view.replicas, view.quorum)
        self.active = self.name in view and not self._retired
        self._view_epoch += 1
        self._export_membership()

    def _export_membership(self) -> None:
        """Export the membership gauges (off the counter fingerprint)."""
        self.monitor.gauge(f"membership.size.{self.group_id}",
                           float(self.view.n))
        self.monitor.gauge(f"membership.view.{self.name}",
                           float(self._view_epoch))

    def _apply_reconfig(self, request: Request) -> Tuple:
        """Switch to the new membership at this consensus boundary, if the
        Reconfig ``request`` is authorized; its reply either way."""
        if not self._reconfig_authorized(request):
            return ("error", "reconfig denied")
        command = request.command
        was_active = self.active
        self._adopt_view(command.to_view(self.view.f))
        self._started.clear()
        self.monitor.record(self.name, "replica.reconfigured",
                            members=",".join(self.view.replicas),
                            active=self.active)
        if was_active and not self.active:
            self._teardown_departure()
        elif self.active and not was_active:
            # Freshly joined: we are already caught up to this boundary.
            self._maybe_propose()
        else:
            self.regency.reconfigured()
        return ("ok", "reconfig", command.new_replicas)

    def _reset_volatile(self) -> None:
        """Drop all in-flight consensus and request state (the one reset)."""
        self._consensus.clear()
        self._future_proposals.clear()
        self._assembling = False
        self.pool = PendingPool()
        self._pending_since.clear()
        self._request_timer = None
        self.regency.forget_assists()
        self.state_transfer.abandon()
        self.app.reoffer(self)

    def _teardown_departure(self) -> None:
        """Cleanly drop a departing replica's in-flight consensus state.

        A removed member stops voting/proposing at once; it keeps answering
        StateRequests (its executed log is still valid history) so joiners
        can catch up from it.
        """
        self._reset_volatile()
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
        node's process.  Retirement is permanent: neither replaying an
        *earlier* Reconfig nor installing a checkpoint whose view once
        included this replica reactivates it, and its inactive catch-up
        poll stops rescheduling.  Idempotent.
        """
        if self._retired:
            return
        self._retired = True
        self.monitor.record(self.name, "replica.decommissioned")
        if self.active:
            self._adopt_view(self.view)  # the same view, now inactive
            self._teardown_departure()
        else:
            self._reset_volatile()

    def start(self) -> None:
        self._export_membership()
        self._inactive_poll()
        self.set_timer(HEARTBEAT_INTERVAL, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if self.active and self.is_leader:
            beat = Heartbeat(self.group_id, self.regency.current,
                             self.log.next_execute, self.name)
            self._broadcast(beat)
        self.set_timer(HEARTBEAT_INTERVAL, self._heartbeat_tick)

    def _handle_heartbeat(self, src: str, beat: Heartbeat) -> None:
        # The beacon carries the leader's cursor: any lead is a gap.
        self._note_progress_gap(beat.next_cid, lead=1)

    def _inactive_poll(self) -> None:
        """A joiner keeps pulling state until a Reconfig activates it."""
        if self.active or self.crashed or self._retired:
            return
        self._request_state()
        self.set_timer(self.config.request_timeout, self._inactive_poll)

    def recover(self) -> None:
        """Rejoin after a benign crash: wipe volatile state, catch up."""
        self.crashed = False
        self._reset_volatile()
        self._started.clear()
        self.state_transfer.forgive()
        self.monitor.record(self.name, "replica.recover")
        self.set_timer(HEARTBEAT_INTERVAL, self._heartbeat_tick)
        self._request_state()

    # ----------------------------------------------------------- dispatch

    #: the peer messages whose receipt costs ``vote_recv``, and handlers
    #: (the synchronisation phase's are the regency manager's)
    _CONTROL = {kind: attrgetter(handler) for kind, handler in {
        Write: "_apply_write", Accept: "_apply_accept",
        Stop: "regency.on_stop", StopData: "regency.on_stopdata",
        Sync: "regency.on_sync", Heartbeat: "_handle_heartbeat",
        StateRequest: "_handle_state_request",
        StateResponse: "_handle_state_response"}.items()}

    def on_message(self, src: str, payload: Any) -> None:
        costs = self.config.costs
        if not self.active and not isinstance(payload, (StateRequest, StateResponse)):
            return  # a joiner only catches up until a Reconfig activates it
        if type(payload) in self._CONTROL:
            self.work(costs.vote_recv, partial(self._handle_control, src, payload))
        elif isinstance(payload, Request):
            self.work(costs.request_recv, partial(self._handle_request, src, payload))
        elif isinstance(payload, ReadRequest):
            # Served through the same FIFO work queue as batch execution:
            # a read enqueued behind a pending _execute_batch job observes
            # that batch's effects and its advanced _applied_cid, never a
            # half-applied mixture.
            cost = (costs.request_recv + costs.execute_per_msg
                    + costs.reply_per_msg)
            self.work(cost, partial(self._handle_read_request, src, payload))
        elif isinstance(payload, Propose):
            cost = costs.validate_fixed + costs.validate_per_msg * len(payload.batch)
            self.work(cost, partial(self._handle_propose, src, payload))
        elif isinstance(payload, AuthenticatedPropose):
            cost = (costs.validate_fixed
                    + costs.validate_per_msg * len(payload.proposal.batch))
            self.work(cost,
                      partial(self._handle_authenticated_propose, src, payload))
        elif hasattr(self.app, "answer"):
            # The application's own unordered traffic (ByzCast's
            # DeliveryQuery and RelayAck): whatever it answers goes back to
            # the sender.
            answer = self.app.answer(src, payload)
            if answer is not None:
                self.send(src, answer)
        else:
            self.monitor.record(self.name, "replica.unknown_message", kind=type(payload).__name__)

    def _broadcast(self, message: Any) -> None:
        """Send ``message`` to every peer (not to self)."""
        for peer in self.peers():
            self.send(peer, message)

    def _handle_control(self, src: str, message: Any) -> None:
        """The one guard of every peer message, then its handler: our group,
        and — but for a Sync (its handler checks the leader) or a joiner's
        StateRequest — the transport source is the claimed sender and a
        member of our view.  A vote far ahead proves us behind."""
        if message.group != self.group_id:
            return
        if not isinstance(message, (Sync, StateRequest)) and (
                message.sender != src or src not in self.view.replicas):
            return
        if isinstance(message, (Write, Accept)):
            self._note_progress_gap(message.cid)
        self._CONTROL[type(message)](self)(src, message)

    # ----------------------------------------------------------- requests

    def _handle_request(self, src: str, request: Request) -> None:
        if request.group != self.group_id:
            return
        # Admission-time validation (as in BFT-SMaRt): a request that could
        # never pass proposal validation must not enter the pool, or it
        # would poison every batch built from it.  The CPU cost of this
        # check is part of ``request_recv``.
        if not self._signed_by_client(request, "request.unsigned",
                                      "request.bad_signature"):
            return
        if self.app.intake(request, self):
            self._maybe_propose()  # it may have offered a request
            return
        if self.log.tracker.is_duplicate(request):
            result = self._replies.get(request.sender, request.seq)
            if result is not None:
                self.send(request.sender, Reply(
                    self.group_id, self.name, request.sender, request.seq,
                    result, self.regency.current))
            return
        if self.pool.add(request):
            self._pending_since[request.key()] = self.clock.now
            self._arm_request_timer()
        self._maybe_propose()

    def offer(self, request: Request) -> None:
        """Pool ``request``, one the application made itself (see
        ``Application.intake``), in place of a pooled request with its
        sender and seq; one ordered already is dropped."""
        if not self.active or self.log.tracker.is_duplicate(request):
            return
        if self.pool.put(request):
            self._pending_since.setdefault(request.key(), self.clock.now)
            self._arm_request_timer()

    def withdraw(self, sender: str) -> None:
        """Drop every pooled request of ``sender``, one of the application's
        pseudo-senders."""
        self.pool.drop_sender(sender)
        for key in [key for key in self._pending_since if key[0] == sender]:
            del self._pending_since[key]

    def _signed_by_client(self, request: Request, unsigned: str,
                          forged: str) -> bool:
        """The client-signature check of admission and proposal validation;
        a failure is recorded as ``unsigned`` or ``forged``."""
        if request.signature is None or request.signature.signer != request.sender:
            self.monitor.record(self.name, unsigned, sender=request.sender)
            return False
        if not verify_signed(self.registry, request):
            self.monitor.record(self.name, forged, sender=request.sender)
            return False
        return True

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
        reader = getattr(self.app, "read", None)
        if reader is None:
            # App does not serve reads: stay silent; the client times out
            # and falls back to the ordered path.
            self.monitor.count("read.unsupported.optimistic")
            return
        result = reader(request.payload)
        cid = self._applied_cid
        self.read_journal.append((request.sender, request.rid, cid))
        self.monitor.count("read.served.optimistic")
        self.send(src, ReadReply(self.group_id, self.name, request.sender,
                                 request.rid, cid, result))

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
        cursor = self.log.next_execute
        for cid, regency in self._started.items():
            if cid < cursor:
                continue
            instance = self._consensus.get(cid)
            if (instance is not None and instance.proposed_batch is not None
                    and instance.proposal_regency == regency):
                _raise_floors(floors, instance.proposed_batch)
        for cid, batch in self.log.buffered_decisions():
            _raise_floors(floors, batch)
        return floors or None

    def _maybe_propose(self) -> None:
        """Leader: open another consensus instance if the window has room.

        Natural batching (§IV): an instance starts whenever a pipeline slot
        is free and some pooled request is not yet claimed by an open one —
        no timer.  The batch is whatever accumulated meanwhile, so its size
        follows the load.
        """
        if (not self.is_leader or self._assembling
                or self.state_transfer.active):
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
                  partial(self.work, 0.0, self._begin_proposal))

    def _begin_proposal(self) -> None:
        """Cut the batch (fixed cost already paid) and charge its per-request CPU."""
        if not self.is_leader or self.state_transfer.active:
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
        batch = self._vouched(batch, cid, regency)
        if not batch:
            self._assembling = False
            return
        cost = self.config.costs.propose_per_msg * len(batch)
        self.work(cost, partial(self._send_propose, cid, regency, batch))

    def _vouched(self, batch: Tuple[Request, ...], cid: int,
                 regency: int) -> Tuple[Request, ...]:
        """``batch`` without the unsigned requests the application does not
        vouch for at ``cid`` yet, nor their senders' later ones (FIFO)."""
        if all(request.signature is not None for request in batch):
            return batch
        chain = self._chain(cid, regency)
        held = set()
        kept: List[Request] = []
        for request in batch:
            if request.sender in held:
                continue
            if request.signature is None and (chain is None or self.app.vouch(
                    request, self._ahead(chain, kept)) is not True):
                held.add(request.sender)
                continue
            kept.append(request)
        return tuple(kept)

    def _ahead(self, chain: List[Tuple[Request, ...]],
               prior: Sequence[Request]) -> Iterator[Request]:
        """Every request ordered or proposed before one and not executed
        yet: the batches ordered since the last one executed, the proposals
        ``chain`` up to its cid, then ``prior`` in its own batch."""
        for batch in self.log.ordered_since(self._applied_cid):
            yield from batch
        for batch in chain:
            yield from batch
        yield from prior

    def _send_propose(self, cid: int, regency: int, batch: Tuple[Request, ...]) -> None:
        """Emit the proposal (overridden by Byzantine behaviours)."""
        if not self._still_leading(regency):
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
            self._broadcast(wrapped)
        else:
            self._broadcast(proposal)
        # Local processing of our own proposal (no network hop for self).
        self._process_proposal(self.name, proposal)
        self._update_inflight_gauge()
        # Pipeline fill: with window room left, start assembling the next
        # instance immediately (a no-op at max_in_flight=1).
        self._maybe_propose()

    def _still_leading(self, regency: int) -> bool:
        """Whether we still lead ``regency`` in our view; if a regency change
        or a reconfiguration raced the batch cut, the assembly is over."""
        if regency == self.regency.current and self.is_leader:
            return True
        self._assembling = False
        return False

    def _update_inflight_gauge(self) -> None:
        self.monitor.gauge(self._inflight_gauge, float(self._open_count()))

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
        cost of one digest (memoised) + one keyed BLAKE2b over its 16
        bytes — never reaching the ``len(batch)``-signature validation
        loop.  A valid tag proves nothing about the *content* (the leader
        may be Byzantine), so the full proposal validation still runs
        after.
        """
        if not verify_mac_vector(self.registry, src, self.name,
                                 wrapped.proposal, dict(wrapped.vector)):
            self.monitor.record(self.name, "propose.bad_link_mac", src=src)
            return
        self._handle_propose(src, wrapped.proposal)

    def _process_proposal(self, src: str, proposal: Propose) -> bool:
        if not self._validate_proposal(src, proposal):
            return False
        d = proposal.batch_digest()
        instance = self._instance(proposal.cid)
        if not instance.note_proposal(proposal.regency, d, proposal.batch):
            self.monitor.record(self.name, "consensus.equivocation", cid=proposal.cid)
            return False
        if instance.should_write(proposal.regency):
            instance.mark_write_sent(proposal.regency)
            write = Write(self.group_id, proposal.regency, proposal.cid, d, self.name)
            if proposal.leader != self.name:
                # The leader's PROPOSE is its WRITE (PBFT's pre-prepare):
                # counted from the proposal validated here; the leader
                # broadcasts no WRITE of its own.
                self._apply_write(proposal.leader, write)
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
            self._stash(src, proposal)
            record(self.name, "propose.wrong_cid", cid=proposal.cid)
            return False
        chain: List[Tuple[Request, ...]] = []
        if proposal.cid > cursor:
            # Pipelined proposal: per-sender FIFO must chain through the
            # batches of every instance between the cursor and this cid.
            chain = self._chain(proposal.cid, proposal.regency)
            if chain is None:
                # A link of the chain is unknown here (its PROPOSE is still
                # in flight): stash and re-validate once it lands.
                self._stash(src, proposal)
                record(self.name, "propose.missing_link", cid=proposal.cid)
                return False
        floors: Dict[str, int] = {}
        for batch in chain:
            _raise_floors(floors, batch)
        virtual: Dict[str, int] = {}
        seen = set()
        for position, request in enumerate(proposal.batch):
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
            if request.signature is None:
                verdict = self.app.vouch(request, self._ahead(
                    chain, proposal.batch[:position]))
                if verdict is None:
                    # An ordered batch ahead may change the verdict: judge
                    # the proposal again once it executed.
                    self._stash(src, proposal)
                    self._stashed_for_execution = True
                    record(self.name, "propose.unsettled_request",
                           sender=request.sender)
                    return False
                if not verdict:
                    record(self.name, "propose.unsigned_request",
                           sender=request.sender)
                    return False
            elif not self._signed_by_client(request, "propose.unsigned_request",
                                            "propose.bad_signature"):
                return False
        return True

    def _stash(self, src: str, proposal: Propose) -> None:
        """Keep a proposal ahead of the cursor, if not too far ahead."""
        bound = max(8, 2 * self.config.max_in_flight)
        if 0 <= proposal.cid - self.log.next_execute <= bound:
            self._future_proposals[proposal.cid] = (src, proposal)

    def _chain(self, cid: int,
               regency: int) -> Optional[List[Tuple[Request, ...]]]:
        """The batches of the instances below ``cid``, from the cursor on.

        A pipelined proposal at ``cid > next_execute`` must extend the
        sender sequences claimed by every instance in ``[next_execute,
        cid)`` (the FIFO floors): decided batches (buffered or still in
        their instance) count unconditionally, undecided instances count
        through their proposal of the *same* regency (the leader's own
        chain — each link was FIFO-validated before being recorded, so the
        floors compose).  Returns ``None`` when any link is unknown locally.
        """
        chain: List[Tuple[Request, ...]] = []
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
            chain.append(batch)
        return chain

    def _reconfig_authorized(self, request: Request) -> bool:
        """Only the group's view manager may change membership.

        Evaluated once, when the Reconfig is ordered (deterministically,
        from ordered data), so an unauthorized Reconfig is simply refused
        with an error reply instead of poisoning proposals or the sender's
        FIFO stream.
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
            self._consensus[cid] = ConsensusInstance(
                cid=cid, quorum=self.view.quorum, members=self.view.replicas)
        return self._consensus[cid]

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

    def _apply_accept(self, sender: str, accept: Accept) -> None:
        if accept.cid < self.log.next_execute:
            return
        instance = self._instance(accept.cid)
        if instance.add_accept(accept.regency, accept.digest, sender):
            self._on_decided(instance)

    # ------------------------------------------------------------ decision

    def _on_decided(self, instance: ConsensusInstance) -> None:
        batch = instance.decided_batch()
        if self.monitor.enabled:
            self.monitor.record(self.name, "consensus.decided",
                                cid=instance.cid)
        else:
            self.monitor.count("consensus.decided")
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
        costs = self.config.costs
        for cid, batch in self.log.ready_batches():
            ordered, boundary = self._order(cid, batch)
            # A reply is charged where it may leave live (_execute_batch).
            replied = (len(ordered) if self.in_quorum()
                       else sum(pending for __, __, pending in ordered))
            cost = ((costs.execute_per_msg + costs.reply_per_msg) * replied
                    + costs.execute_per_msg * (len(ordered) - replied))
            # Execution is per carried message, everything else per request.
            carried = sum(self.app.carried(request) for request, __, __ in ordered)
            cost += costs.execute_per_msg * (carried - len(ordered))
            if boundary is not None:
                cost += costs.checkpoint_fixed
            self.work(cost, partial(self._execute_batch, cid, ordered, boundary))
        self._drain_future_proposals()
        self._maybe_propose()

    def _order(self, cid: int,
               batch: Tuple[Request, ...]) -> Tuple[Ordered, Boundary]:
        """Advance the ordering state past decided batch ``cid``.

        Runs synchronously at decision (or adoption) time, while execution
        may be CPU-deferred: a proposal for cid+1 may be validated before
        the execution job runs and must see the up-to-date FIFO tracker and
        view.  For the same reason a due checkpoint's tracker and view are
        captured here, or a later batch's Reconfig/ordering could leak into
        the snapshot and break digest agreement across replicas.
        """
        self._consensus.pop(cid, None)
        self._started.pop(cid, None)
        ordered = []
        for request in batch:
            pending = self._pending_since.pop(request.key(), None) is not None
            self.pool.remove(request.sender, request.seq)
            if not self.log.mark_ordered(request):
                continue  # a duplicate slipped through (e.g. a carried batch)
            result = (self._apply_reconfig(request)
                      if isinstance(request.command, Reconfig) else None)
            ordered.append((request, result, pending))
        # only the batch's senders moved in the tracker
        self.pool.prune_ordered(self.log.tracker,
                                {request.sender for request in batch})
        boundary = None
        if self.checkpoints.due(cid):
            boundary = (cid, self.log.tracker.snapshot(), self.view)
        return ordered, boundary

    def _execute_batch(self, cid: int, ordered: Ordered, boundary: Boundary,
                       live: bool = True) -> None:
        """Execute what ``_order`` returned for ``cid`` and reply.

        A live batch runs as a CPU job and lets the leader propose again.
        It replies to every sender the application answers at once
        (``Application.sends_reply``) when we are in the current regency's
        quorum, and otherwise to the requests that were pending here: those
        senders asked *us* (docs/PROTOCOL.md, "Who is sent what").  A batch
        adopted by state transfer runs inline and replies only to requests
        that were pending here, still waiting — in particular the admin
        client behind a Reconfig needs f+1 matching replies to confirm the
        new view.  Historical requests a joiner replays were never pending
        here, so bulk catch-up stays reply-silent; every result is still
        kept for a sender that retransmits.
        """
        ctx = ExecutionContext(replica=self, time=self.clock.now)
        kind = "replica.executed" if live else "replica.executed_catchup"
        answer_all = live and self.in_quorum()
        regency = self.regency.current
        monitor = self.monitor
        for request, result, pending in ordered:
            if result is None:
                result = self.app.execute(request, ctx)
            elif result[0] == "error":  # a refused Reconfig
                monitor.record(self.name, "reconfig.denied",
                               sender=request.sender)
            if monitor.enabled:
                monitor.record(self.name, kind, sender=request.sender,
                               seq=request.seq)
            else:
                monitor.count(kind)
            if result is not None:
                self._replies.keep(request.sender, request.seq, result)
                if ((answer_all or pending)
                        and self.app.sends_reply(request, result)):
                    self._send_reply(request, Reply(
                        self.group_id, self.name, request.sender,
                        request.seq, result, regency))
        self.app.end_batch(ctx)
        if cid > self._applied_cid:
            self._applied_cid = cid
        if boundary is not None:
            self._take_checkpoint(*boundary)
        if live:
            if self._stashed_for_execution:
                self._stashed_for_execution = False
                self._drain_future_proposals()
            self._maybe_propose()

    def _drain_future_proposals(self) -> None:
        """Re-process stashed proposals that fell inside the window.

        A drained proposal may immediately re-stash itself (its chain link
        is still missing), so each cid is attempted at most once per drain
        to guarantee termination.
        """
        if not self._future_proposals:
            return
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
        waited = self.clock.now - oldest
        delay = self.config.request_timeout - waited
        if waited >= self.config.request_timeout * 0.999:
            self.regency.suspect()
            # Anti-entropy: the stall may be because *we* fell behind the
            # quorum (our votes or decisions were lost); ask peers for their
            # executed log alongside the leader-change vote.
            self._request_state()
            now = self.clock.now
            for key in self._pending_since:
                self._pending_since[key] = now
            delay = self.config.request_timeout
        self._request_timer = self.set_timer(delay, self._request_timer_fired)

    # ------------------------------------------------------ regency change

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

    def _transition_started(self) -> None:
        """A regency change began: our own open proposals are void."""
        self._assembling = False
        self._started.clear()

    def _regency_installed(self, sync: Sync) -> None:
        """Run the new regency: its carries first, then fresh proposals."""
        now = self.clock.now
        for key in self._pending_since:
            self._pending_since[key] = now
        for cid, batch in sync.carries:
            if cid < self.log.next_execute or not batch:
                continue
            carried = Propose(self.group_id, sync.regency, cid, batch, sync.leader)
            if sync.leader == self.name:
                # The new leader's carries are its own open instances.
                self._started.setdefault(cid, sync.regency)
            self._process_proposal(sync.leader, carried)
        self._update_inflight_gauge()
        self._drain_future_proposals()
        self._maybe_propose()

    # ------------------------------------------------------- state transfer

    def _note_progress_gap(self, cid: int, lead: int = 0) -> None:
        """Catch up if live traffic at ``cid`` leads our cursor by ``lead``
        (default: the window plus slack); it proves any backoff stale."""
        lead = lead or self.config.max_in_flight + STATE_GAP_SLACK
        if cid >= self.log.next_execute + lead:
            self.state_transfer.reachable()
            self._request_state()

    def _request_state(self) -> None:
        if self.state_transfer.open(self.clock.now):
            self._broadcast(StateRequest(self.group_id, self.name,
                                         self.log.next_execute))
            self.set_timer(STATE_RETRY_TIMEOUT,
                           lambda: self.state_transfer.expire(self.clock.now))

    def _handle_state_request(self, src: str, request: StateRequest) -> None:
        self.send(src, self.state_transfer.answer(request, self.regency.current))

    def _handle_state_response(self, src: str, response: StateResponse) -> None:
        adopted = self.state_transfer.offer(
            src, response, len(self.view.replicas) - 1, self._adopt_state)
        if adopted is None:
            return
        if adopted:
            self._execute_ready()
        self._drain_future_proposals()
        self._maybe_propose()

    def _adopt_state(self) -> bool:
        """Install what the state round vouches for — a checkpoint (jumping
        the cursor past the peers' truncation horizon), then each batch
        through the one execution path — and its regency; True if any."""
        regency = self.state_transfer.adopt(
            self._install_checkpoint, lambda cid, batch: self._execute_batch(
                cid, *self._order(cid, batch), live=False))
        if regency is not None and regency > self.regency.current:
            self.regency.install(regency)
        return regency is not None

    def _certified_digest(self, cid: int) -> Optional[bytes]:
        """The digest of our own write certificate for ``cid``, if any."""
        instance = self._consensus.get(cid)
        cert = instance.write_cert if instance is not None else None
        return cert.digest if cert is not None else None

    def _install_checkpoint(self, checkpoint: CheckpointData) -> None:
        """Jump the replica's state to a verified peer checkpoint."""
        # Kept until the next checkpoint, its state for good: neither may
        # hold a view of the StateResponse frame it arrived in.
        checkpoint = detach(checkpoint)
        new_view = View(tuple(checkpoint.view_replicas), checkpoint.view_f)
        was_active = self.active
        self.app.restore(checkpoint.state)
        self.log.install_checkpoint(checkpoint)
        for table in (self._consensus, self._started):
            for cid in [c for c in table if c <= checkpoint.cid]:
                del table[cid]
        if new_view.replicas != self.view.replicas:
            # The truncated prefix contained Reconfigs we will never
            # execute; the checkpoint carries the resulting view instead.
            self._adopt_view(new_view)
            self._assembling = False
        self.pool.prune_ordered(self.log.tracker)
        self._applied_cid = checkpoint.cid  # at or past the cursor
        for key in [k for k in self._pending_since
                    if self.log.tracker.last(k[0]) >= k[1]]:
            del self._pending_since[key]
        self.app.reoffer(self)
        self.monitor.record(self.name, "checkpoint.installed",
                            cid=checkpoint.cid, active=self.active)
        if self.active and not was_active:
            self._maybe_propose()

    def _take_checkpoint(self, cid: int, tracker_state: Dict[str, int],
                         view: View) -> None:
        """The checkpoint step of a boundary batch (override point)."""
        self.checkpoints.take(cid, tracker_state, view)
