"""A state machine over :class:`~repro.bcast.checkpoint.Checkpointer`.

A lagging replica (the owner, ``g1/r0`` with ``F = 1``) elects a
checkpoint from what its state round collected: one answer per responder,
a later answer replacing an earlier one.  The ground truth is one decided
history of ``H`` batches, checkpointed every ``INTERVAL`` cids.  Rules are
what :meth:`Checkpointer.elect` can be handed:

* correct responders (``g1/r1``, ``g1/r2``), each at its own pace, whose
  answer carries their latest checkpoint — or none yet;
* a departed responder (``g1/r4``, a member until ``DEPARTED_AT``):
  correct, but its checkpoints stop there, so it vouches only for old
  ones;
* the Byzantine responder ``g1/r3``: a checkpoint whose payload or
  tracker does not re-hash to the honest digest it claims, one whose
  payload has no canonical form, a self-consistent forged checkpoint at
  a boundary or far beyond the history, a correct answer replayed, or no
  checkpoint at all;
* any responder answering again (its new answer replaces its old one),
  and the owner's cursor moving on.

The invariants are the checkpoint rule's claims (docs/CHECKPOINTS.md):
:meth:`Checkpointer.verified` accepts a payload exactly when it re-hashes
to the digest it claims; :meth:`Checkpointer.elect` returns the
highest-cid checkpoint at or past the cursor that ``F + 1`` distinct
responders vouch for with verified payloads — a brute-force count over
the collected answers says which — and so only ever the truth's; every
unverified answer at or past the cursor is recorded as a bad digest.

Tier-1 runs the derandomized ``tier1`` profile; CI's seed sweep runs
``--hypothesis-profile=sweep`` (``tests/conftest.py``).
"""

from __future__ import annotations

import dataclasses

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bcast.app import EchoApplication
from repro.bcast.checkpoint import Checkpointer
from repro.bcast.log import DecisionLog
from repro.bcast.messages import Request, StateResponse
from repro.bcast.reconfig import View
from repro.env import Monitor

F = 1
VIEW = View(("g1/r0", "g1/r1", "g1/r2", "g1/r3"), F)
OWNER = "g1/r0"
CORRECT = ("g1/r1", "g1/r2")
BYZANTINE = "g1/r3"
DEPARTED = "g1/r4"
#: decided batches in the history, checkpointed every INTERVAL cids
H = 16
INTERVAL = 4
BOUNDARIES = tuple(range(INTERVAL - 1, H, INTERVAL))
#: the departed member's last checkpoint
DEPARTED_AT = BOUNDARIES[1]


def _history():
    """The checkpoint every correct replica takes at each boundary."""
    app, log = EchoApplication(), DecisionLog(INTERVAL)
    checkpoints = Checkpointer("reference", app, log, Monitor())
    taken = {}
    for cid in range(H):
        log.record_decision(cid, (Request("g1", "c0", cid + 1,
                                          ("op", cid + 1)),))
        for ready, batch in log.ready_batches():
            for request in batch:
                log.mark_ordered(request)
                app.execute(request, None)
            if checkpoints.due(ready):
                taken[ready] = checkpoints.take(
                    ready, log.tracker.snapshot(), VIEW)
    return taken


HONEST = _history()


def answer(sender: str, checkpoint) -> StateResponse:
    cid = checkpoint.cid if checkpoint is not None else -1
    return StateResponse(group="g1", sender=sender, from_cid=0,
                         next_cid=cid + 1, regency=0, batches=(),
                         checkpoint=checkpoint, horizon=cid + 1)


class CheckpointerMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.monitor = Monitor()
        self.log = DecisionLog(INTERVAL)
        self.owner = Checkpointer(OWNER, EchoApplication(), self.log,
                                  self.monitor)
        #: what the owner's round collected: each responder's last answer
        self.collected = {}
        #: responder -> whether its answer's payload re-hashes to its claim
        self.consistent = {}
        #: a correct responder's latest boundary (its pace)
        self.pace = {name: -1 for name in (*CORRECT, DEPARTED)}
        self.variant = 0

    def offer(self, src: str, checkpoint, consistent: bool = True) -> None:
        self.collected[src] = answer(src, checkpoint)
        self.consistent[src] = consistent

    def vouchers(self):
        """(cid, digest) -> the distinct responders vouching with verified
        payloads at or past the cursor, counted by hand."""
        counted = {}
        for src, response in self.collected.items():
            ckpt = response.checkpoint
            if (ckpt is not None and ckpt.cid >= self.log.next_execute
                    and self.consistent[src]):
                counted.setdefault((ckpt.cid, ckpt.state_digest),
                                   set()).add(src)
        return counted

    # -- rules ------------------------------------------------------------------

    @rule(name=st.sampled_from((*CORRECT, DEPARTED)),
          steps=st.integers(min_value=0, max_value=2))
    def correct_answer(self, name, steps):
        """A correct responder answers with its latest checkpoint, having
        taken ``steps`` more since its last answer (a departed one stops
        at ``DEPARTED_AT``)."""
        limit = DEPARTED_AT if name == DEPARTED else BOUNDARIES[-1]
        at = self.pace[name]
        ahead = [at] + [cid for cid in BOUNDARIES if at < cid <= limit]
        at = self.pace[name] = ahead[min(steps, len(ahead) - 1)]
        self.offer(name, HONEST[at] if at >= 0 else None)

    @rule(boundary=st.sampled_from(BOUNDARIES))
    def byzantine_replays(self, boundary):
        self.offer(BYZANTINE, HONEST[boundary])

    @rule()
    def byzantine_withholds(self):
        self.offer(BYZANTINE, None)

    @rule(boundary=st.sampled_from(BOUNDARIES),
          part=st.sampled_from(("state", "tracker", "view_f")))
    def byzantine_forges_under_the_honest_digest(self, boundary, part):
        """The honest digest over a forged payload: it must not re-hash."""
        honest = HONEST[boundary]
        self.variant += 1
        forged = {"state": (("forged", self.variant),),
                  "tracker": (("c0", boundary + 1 + self.variant),),
                  "view_f": F + 1}[part]
        self.offer(BYZANTINE, dataclasses.replace(honest, **{part: forged}),
                   consistent=False)

    @rule(boundary=st.sampled_from(BOUNDARIES))
    def byzantine_ships_an_unencodable_payload(self, boundary):
        self.offer(BYZANTINE, dataclasses.replace(
            HONEST[boundary], state=(("op", object()),)), consistent=False)

    @rule(cid=st.sampled_from((*BOUNDARIES, H + INTERVAL - 1, 4 * H)))
    def byzantine_forges_a_consistent_checkpoint(self, cid):
        """Forged state under its own digest: it re-hashes, and only one
        responder vouches for it."""
        self.variant += 1
        state = (("forged", self.variant),)
        honest = HONEST[BOUNDARIES[-1]]
        self.offer(BYZANTINE, dataclasses.replace(
            honest, cid=cid, state=state,
            state_digest=self.owner.digest_of(
                cid, state, honest.tracker, honest.view_replicas,
                honest.view_f)))

    @rule(name=st.sampled_from((*CORRECT, DEPARTED, BYZANTINE)))
    def answer_again(self, name):
        """A responder repeats its last answer: still one voucher."""
        if name in self.collected:
            self.collected[name] = dataclasses.replace(self.collected[name])

    @rule(ahead=st.integers(min_value=1, max_value=INTERVAL + 1))
    def owner_executes(self, ahead):
        self.log.next_execute = min(H, self.log.next_execute + ahead)

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def verified_means_the_payload_rehashes(self):
        for src, response in self.collected.items():
            if response.checkpoint is not None:
                assert (self.owner.verified(response.checkpoint)
                        == self.consistent[src]), (
                    f"{src}'s checkpoint at {response.checkpoint.cid}")

    @invariant()
    def elect_takes_the_highest_vouched_checkpoint(self):
        carried = {key: srcs for key, srcs in self.vouchers().items()
                   if len(srcs) >= F + 1}
        unverified = sum(
            1 for src, response in self.collected.items()
            if response.checkpoint is not None
            and response.checkpoint.cid >= self.log.next_execute
            and not self.consistent[src])
        before = self.monitor.counters.get("checkpoint.bad_digest", 0)
        chosen = self.owner.elect(self.collected, F)
        assert (self.monitor.counters.get("checkpoint.bad_digest", 0)
                == before + unverified)
        if not carried:
            assert chosen is None, (
                f"elected {chosen.cid} on vouchers {self.vouchers()}")
            return
        cid, claimed = max(carried)
        assert chosen is not None, f"nothing elected, {cid} carried"
        assert (chosen.cid, chosen.state_digest) == (cid, claimed), (
            f"elected {chosen.cid}, the highest carried is {cid}")
        assert chosen == HONEST[cid], f"elected a forged checkpoint at {cid}"


TestCheckpointer = CheckpointerMachine.TestCase
TestCheckpointer.settings = settings(deadline=None, stateful_step_count=40)
