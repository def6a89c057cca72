"""A state machine over :class:`~repro.bcast.statetransfer.StateTransfer`.

A lagging replica (the owner, ``g1/r0`` with ``F = 1``) catches up from
its peers' answers.  The ground truth is one decided history of ``H``
batches, checkpointed every ``INTERVAL`` cids.  Rules are what the
owner's state rounds can observe:

* correct responders (``g1/r1``, ``g1/r2``) executing the history one cid
  at a time, each at its own pace, and answering from their own log and
  checkpoints — the real :meth:`StateTransfer.answer`;
* a departed responder (``g1/r4``, a member until a reconfiguration at
  ``DEPARTED_AT``): correct, but its log stops there;
* the Byzantine responder ``g1/r3``: a checkpoint whose payload does not
  re-hash to the digest it claims, a self-consistent forged checkpoint, a
  forged batch at the owner's cursor listed once or several times in one
  answer (one responder vouching for several entries), an inflated
  ``next_cid`` that keeps a round open, or a correct answer replayed;
* the owner's own write certificates (2f+1 replicas write-certified the
  decided batch of a cid, so its digest is the truth's);
* rounds opening, expiring into the capped backoff, the backoff reset by
  live traffic, and time passing.

The invariants are the voucher rule's safety claims (docs/CHECKPOINTS.md):
the owner installs only a checkpoint that ``F + 1`` distinct responders
vouch for with verified payloads, and takes each batch only on ``F + 1``
agreeing responders or on one voucher matching its own write
certificate — so whatever it installs is the truth's.  A round never opens
inside its backoff, and the backoff stays under its cap.

Tier-1 runs the derandomized ``tier1`` profile; CI's seed sweep runs
``--hypothesis-profile=sweep`` (``tests/conftest.py``).
"""

from __future__ import annotations

import dataclasses

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bcast.app import EchoApplication
from repro.bcast.checkpoint import Checkpointer
from repro.bcast.config import capped_backoff
from repro.bcast.log import DecisionLog
from repro.bcast.messages import Request, StateRequest, StateResponse
from repro.bcast.reconfig import View
from repro.bcast.statetransfer import STATE_RETRY_TIMEOUT, StateTransfer
from repro.crypto.digest import digest
from repro.env import Monitor

F = 1
VIEW = View(("g1/r0", "g1/r1", "g1/r2", "g1/r3"), F)
OWNER = "g1/r0"
CORRECT = ("g1/r1", "g1/r2")
BYZANTINE = "g1/r3"
DEPARTED = "g1/r4"
#: the departed member's log stops after this cid
DEPARTED_AT = 5
#: decided batches in the history, checkpointed every INTERVAL cids
H = 14
INTERVAL = 4


def truth(cid: int):
    """The batch every correct replica decided at ``cid``."""
    return (Request("g1", "c0", cid + 1, ("op", cid + 1)),)


def forged(cid: int, variant: int = 0):
    return (Request("g1", "c0", cid + 1, ("forged", cid + 1, variant)),)


class Replica:
    """One replica's log, checkpoints and state-transfer answers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.app = EchoApplication()
        self.monitor = Monitor()
        self.log = DecisionLog(INTERVAL)
        self.checkpoints = Checkpointer(name, self.app, self.log,
                                        self.monitor)
        self.certified = {}
        self.transfer = StateTransfer(
            name, self.log, self.checkpoints, self.monitor,
            f=lambda: F, certified=self.certified.get)

    def execute_next(self) -> None:
        cid = self.log.next_execute
        self.log.record_decision(cid, truth(cid))
        for ready, batch in self.log.ready_batches():
            for request in batch:
                self.log.mark_ordered(request)
                self.app.execute(request, None)
            if self.checkpoints.due(ready):
                self.checkpoints.take(ready, self.log.tracker.snapshot(),
                                      VIEW)

    def answer(self, from_cid: int) -> StateResponse:
        return self.transfer.answer(
            StateRequest("g1", OWNER, from_cid), regency=0)


def honest_checkpoint(cid: int):
    """The checkpoint every correct replica takes at boundary ``cid``."""
    replica = Replica("reference")
    while replica.log.next_execute <= cid:
        replica.execute_next()
    return replica.log.checkpoint


class StateTransferMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.owner = Replica(OWNER)
        self.peers = {name: Replica(name) for name in (*CORRECT, DEPARTED)}
        self.now = 0.0
        #: what the owner's StateTransfer holds: every answer offered since
        #: the last round opened, but a closed round's non-proving straggler
        self.collected = {}
        self.variant = 0

    # -- the owner's callbacks ---------------------------------------------------

    def install(self, checkpoint) -> None:
        vouchers = {
            src for src, response in self.collected.items()
            if response.checkpoint is not None
            and response.checkpoint.cid == checkpoint.cid
            and response.checkpoint.state_digest == checkpoint.state_digest
            and self.owner.checkpoints.verified(response.checkpoint)}
        assert len(vouchers) >= F + 1, (
            f"checkpoint {checkpoint.cid} installed on vouchers "
            f"{sorted(vouchers)}")
        assert checkpoint == honest_checkpoint(checkpoint.cid), (
            f"installed a forged checkpoint at cid {checkpoint.cid}")
        self.owner.log.install_checkpoint(checkpoint)
        self.owner.app.restore(checkpoint.state)

    def execute(self, cid: int, batch) -> None:
        d = digest(batch)
        vouchers = {src for src, response in self.collected.items()
                    if any(at == cid and digest(entry) == d
                           for at, entry in response.batches)}
        certified = self.owner.certified.get(cid) == d
        assert len(vouchers) >= F + 1 or (certified and vouchers), (
            f"cid {cid} taken on vouchers {sorted(vouchers)}, "
            f"certificate {'matching' if certified else 'none'}")
        assert batch == truth(cid), f"took a forged batch at cid {cid}"
        for request in batch:
            self.owner.log.mark_ordered(request)
            self.owner.app.execute(request, None)

    def adopt(self) -> bool:
        return self.owner.transfer.adopt(self.install, self.execute) \
            is not None

    def offer(self, src: str, response: StateResponse) -> None:
        transfer = self.owner.transfer
        if (transfer.active
                or response.next_cid > self.owner.log.next_execute):
            self.collected[src] = response
        transfer.offer(src, response, VIEW.n - 1, self.adopt)

    # -- rules ----------------------------------------------------------------

    @rule(name=st.sampled_from((*CORRECT, DEPARTED)))
    def peer_executes(self, name):
        peer = self.peers[name]
        limit = DEPARTED_AT + 1 if name == DEPARTED else H
        if peer.log.next_execute < limit:
            peer.execute_next()

    @rule()
    def open_round(self):
        transfer = self.owner.transfer
        was_active = transfer.active
        opened = transfer.open(self.now)
        if was_active or self.now < transfer.backoff_until:
            assert not opened, "a round opened inside its backoff"
        else:
            assert opened
        if opened:
            self.collected = {}

    @rule(name=st.sampled_from((*CORRECT, DEPARTED)))
    def correct_answer(self, name):
        self.offer(name, self.peers[name].answer(self.owner.log.next_execute))

    @rule(name=st.sampled_from(CORRECT))
    def byzantine_replays(self, name):
        answer = self.peers[name].answer(self.owner.log.next_execute)
        self.offer(BYZANTINE, dataclasses.replace(answer, sender=BYZANTINE))

    @rule(copies=st.integers(min_value=1, max_value=3),
          ahead=st.integers(min_value=0, max_value=2),
          inflate=st.booleans())
    def byzantine_forges_batches(self, copies, ahead, inflate):
        """Forged batches from the cursor on, each listed ``copies`` times."""
        cursor = self.owner.log.next_execute
        self.variant += 1
        entries = tuple((cid, forged(cid, self.variant))
                        for cid in range(cursor, cursor + ahead + 1)
                        for __ in range(copies))
        next_cid = H + 10 if inflate else cursor + ahead + 1
        self.offer(BYZANTINE, StateResponse(
            group="g1", sender=BYZANTINE, from_cid=cursor, next_cid=next_cid,
            regency=0, batches=entries, checkpoint=None, horizon=cursor))

    @rule(boundary=st.integers(min_value=0, max_value=H // INTERVAL - 1),
          consistent=st.booleans())
    def byzantine_forges_checkpoint(self, boundary, consistent):
        """A checkpoint over forged state: claiming the honest digest (its
        payload does not re-hash to it) or its own (it does)."""
        cid = (boundary + 1) * INTERVAL - 1
        honest = honest_checkpoint(cid)
        state = (("forged", cid),) + honest.state[1:]
        claimed = honest.state_digest
        if consistent:
            claimed = self.owner.checkpoints.digest_of(
                cid, state, honest.tracker, honest.view_replicas,
                honest.view_f)
        fake = dataclasses.replace(honest, state=state, state_digest=claimed)
        self.offer(BYZANTINE, StateResponse(
            group="g1", sender=BYZANTINE, from_cid=0, next_cid=cid + 1,
            regency=0, batches=(), checkpoint=fake, horizon=cid + 1))

    @rule(ahead=st.integers(min_value=0, max_value=3))
    def owner_write_certificate(self, ahead):
        """2f+1 replicas write-certified the decided batch of a cid the
        owner has not executed: its digest is the truth's."""
        cid = self.owner.log.next_execute + ahead
        if cid < H:
            self.owner.certified[cid] = digest(truth(cid))

    @rule()
    def round_expires(self):
        self.owner.transfer.expire(self.now)

    @rule()
    def live_traffic(self):
        self.owner.transfer.reachable()

    @rule(seconds=st.sampled_from((0.25, 1.0, 4.0)))
    def time_passes(self, seconds):
        self.now += seconds

    # -- invariants -------------------------------------------------------------

    @invariant()
    def the_owner_holds_a_prefix_of_the_truth(self):
        cursor = self.owner.log.next_execute
        assert cursor <= H
        assert self.owner.app.executed == [
            ("op", cid + 1) for cid in range(cursor)]

    @invariant()
    def the_backoff_stays_under_its_cap(self):
        transfer = self.owner.transfer
        cap = capped_backoff(STATE_RETRY_TIMEOUT, H) * 1.25
        assert transfer.backoff_until - self.now <= cap


TestStateTransfer = StateTransferMachine.TestCase
TestStateTransfer.settings = settings(deadline=None, stateful_step_count=40)
