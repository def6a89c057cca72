"""A state machine over one parent replica's relay outbox into a child
group, and the acknowledgements the child's members send it.

The parent replica ``h1/r0`` relays into ``g1`` (f = 2) through a
:class:`RelayOutbox` on a model of its actor: sends are recorded and the
one retransmission timer fires when a rule says so.  The child is a model:
it decides the stream's batches in index order, and each member acknowledges
by the child's ack rule.  Rules are what the outbox can see:

* the parent relaying its next batch (one this replica may relay after the
  child already decided it: other relayers went first);
* the parent replica entering or leaving its own group's current quorum
  (a member of it relays live, any other keeps its copies);
* the child deciding its next batch;
* a correct member's ack: its own released next index, which never passes
  what the child decided and never falls (the ack rule), and its regency,
  which never passes the child's highest and never falls;
* a Byzantine member's ack: regressing, absurd (``next_index + 10**6``, as
  :class:`~repro.faults.behaviors.LyingAckReplica` sends) or any index,
  under any regency;
* the child changing regency;
* a departed member's or a stranger's ack, at any index;
* every ack travels on a link that delivers it late, out of order, or
  drops it;
* a ``MembershipUpdate`` of the child (at most f Byzantine members each);
* time passing, and the retransmission timer firing when it is due.

The invariants: a copy leaves the outbox only when f+1 current members
acknowledged past it — so the child decided it — whatever the Byzantine,
departed and reordered acks said; a first send, made only while the parent
replica is in its group's quorum, goes to the quorum of the
regency the outbox estimates, the (f+1)-th highest that current members
reported, which never falls and never passes the child's; a timer fire
resends at least the copy
sent longest ago, and each copy it resends to exactly the current members
that do not cover it, never within a retransmission timeout of that copy's
last send or of the last advance of the covered prefix; and a timer is
armed while copies are kept.

Tier-1 runs the derandomized ``tier1`` profile; CI's seed sweep runs
``--hypothesis-profile=sweep`` (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.bcast.reconfig import regency_quorum
from repro.core.messages import RelayAck, RelayBatch, WireMulticast
from repro.core.relay import RelayOutbox
from repro.crypto.keys import KeyRegistry
from repro.env import Monitor

F = 2
CORRECT = tuple(f"g1/r{index}" for index in range(6))
BYZANTINE = ("g1/r6", "g1/r7", "g1/r8")
#: every membership of g1 holds at most F Byzantine members among 3F+1 or
#: more; the others are departed members or future joiners
MEMBERSHIPS = (
    ("g1/r0", "g1/r1", "g1/r2", "g1/r3", "g1/r4", "g1/r6", "g1/r7"),
    ("g1/r0", "g1/r1", "g1/r2", "g1/r3", "g1/r5", "g1/r6", "g1/r8"),
    ("g1/r1", "g1/r2", "g1/r3", "g1/r4", "g1/r5", "g1/r7", "g1/r8"),
    ("g1/r0", "g1/r1", "g1/r2", "g1/r3", "g1/r4", "g1/r5", "g1/r6", "g1/r7"),
)
LENGTH = 6
LEAD = 10 ** 6
TIMEOUT = 1.0
SEQUENCE = tuple(
    RelayBatch((WireMulticast("client", index + 1, ("g1", "g2"),
                              ("m", index)),), index)
    for index in range(LENGTH))


class _Timer:
    def __init__(self, due, callback) -> None:
        self.due = due
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _Clock:
    now = 0.0


class Owner:
    """The parent replica the outbox sends through: records every send and
    keeps the timers it set; a rule moves its clock and fires them."""

    name = "h1/r0"

    def __init__(self) -> None:
        self.clock = _Clock()
        self.monitor = Monitor()
        self.sent = []
        self.timers = []
        #: whether it is in its group's current quorum (relays live)
        self.live = True

    def in_quorum(self) -> bool:
        return self.live

    def send(self, dst, payload) -> None:
        self.sent.append((dst, payload))

    def set_timer(self, delay, callback) -> _Timer:
        timer = _Timer(self.clock.now + delay, callback)
        self.timers.append(timer)
        return timer

    def pending(self):
        return [timer for timer in self.timers if not timer.cancelled]


class RelayOutboxMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.owner = Owner()
        self.members = MEMBERSHIPS[0]
        self.outbox = RelayOutbox(self.owner, "g1", self.members, F,
                                  KeyRegistry(), retransmit_timeout=TIMEOUT)
        self.outbox.max_retries = 10 ** 6
        #: how many batches the parent relayed, and the child decided
        self.relayed = 0
        self.decided = 0
        #: correct member -> the next index it released (its ack rule),
        #: and the regency it runs
        self.released = {name: 0 for name in CORRECT}
        self.regencies = {}
        #: acks sent and not delivered or dropped yet, in sending order
        self.links = []
        #: current member -> the highest next index the outbox heard from
        #: it while a member: what covers a copy
        self.heard = {}
        self.kept = set()
        #: index -> when the copy was last sent; when the covered prefix
        #: (the (f+1)-th highest current mark) last grew, and its length
        self.sent_at = {}
        self.progress = 0.0
        self.covered = 0
        #: the child's highest regency; per current member, the highest
        #: regency the outbox heard from it; the estimate those give
        self.child_regency = 0
        self.reported = {}
        self.estimate = 0

    # -- the model's bookkeeping ---------------------------------------------

    def covering(self, index: int):
        return [name for name in self.members
                if self.heard.get(name, 0) > index]

    def settle(self) -> None:
        """Check each copy that left since the last step."""
        now = set(self.outbox.unacked())
        for index in self.kept - now:
            assert len(self.covering(index)) >= F + 1, (
                f"copy {index} left, covered by {self.covering(index)}")
            assert index < self.decided, f"copy {index} left undecided"
        self.kept = now
        marks = sorted((self.heard.get(name, 0) for name in self.members),
                       reverse=True)
        if marks[F] > self.covered:
            self.progress = self.owner.clock.now
        self.covered = marks[F]

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: self.relayed < LENGTH)
    @rule()
    def relay(self):
        index = self.relayed
        self.relayed += 1
        before = len(self.owner.sent)
        self.outbox.submit(SEQUENCE[index])
        sent = self.owner.sent[before:]
        if index in self.outbox.unacked():
            self.sent_at[index] = self.owner.clock.now
            assert [dst for dst, __ in sent] == (list(
                regency_quorum(self.members, F, self.estimate))
                if self.owner.live else [])
            assert all(copy.seq == index + 1 and copy.command == SEQUENCE[index]
                       and copy.sender == self.owner.name for __, copy in sent)
        else:
            assert sent == [] and len(self.covering(index)) >= F + 1
        self.settle()

    @rule()
    def parent_quorum_moves(self):
        """A regency change of the parent group moves this replica into or
        out of its quorum."""
        self.owner.live = not self.owner.live

    @precondition(lambda self: self.decided < LENGTH)
    @rule(data=st.data())
    def child_decides(self, data):
        self.decided = data.draw(st.integers(self.decided + 1, LENGTH))

    def send(self, ack: RelayAck, late: bool) -> None:
        """Put ``ack`` on its link, or deliver it at once."""
        if late:
            self.links.append(ack)
        else:
            self.deliver(ack)

    def deliver(self, ack: RelayAck) -> None:
        if ack.sender in self.members:
            if ack.next_index > self.heard.get(ack.sender, 0):
                self.heard[ack.sender] = ack.next_index
            if ack.regency > self.reported.get(ack.sender, 0):
                self.reported[ack.sender] = ack.regency
            marks = sorted((self.reported.get(name, 0)
                            for name in self.members), reverse=True)
            self.estimate = max(self.estimate, marks[F])
        self.outbox.handle_reply(ack.sender, ack)
        assert self.outbox.regency == self.estimate
        assert self.estimate <= self.child_regency, (
            f"f liars raised the estimate to {self.estimate}")
        self.settle()

    @rule(member=st.sampled_from(CORRECT), late=st.booleans(), data=st.data())
    def correct_ack(self, member, late, data):
        """The member releases up to what the child decided and acks its
        next index and its regency (an ack of a member that departed or
        did not join yet is sent all the same: the outbox must ignore it)."""
        released = data.draw(st.integers(self.released[member], self.decided))
        self.released[member] = released
        regency = data.draw(st.integers(self.regencies.get(member, 0),
                                        self.child_regency))
        self.regencies[member] = regency
        self.send(RelayAck("g1", "h1", member, released, regency), late)

    @rule()
    def child_changes_regency(self):
        self.child_regency += 1

    @rule(member=st.sampled_from(BYZANTINE),
          kind=st.sampled_from(("absurd", "regress", "any")),
          late=st.booleans(), data=st.data())
    def byzantine_ack(self, member, kind, late, data):
        if kind == "regress":
            index = data.draw(st.integers(0, self.heard.get(member, 0)))
        elif kind == "absurd":
            index = self.decided + LEAD
        else:
            index = data.draw(st.integers(0, LENGTH + 2))
        regency = data.draw(st.sampled_from(
            (0, self.child_regency, self.child_regency + 1, LEAD)))
        self.send(RelayAck("g1", "h1", member, index, regency), late)

    @rule(data=st.data())
    def stranger_ack(self, data):
        """An ack from outside the child: another group's replica, a parent
        replica, a client."""
        index = data.draw(st.integers(0, LENGTH + LEAD))
        sender = data.draw(st.sampled_from(("g2/r0", "h1/r1", "client")))
        self.deliver(RelayAck("g1", "h1", sender, index, LEAD))

    @precondition(lambda self: self.links)
    @rule(newest=st.booleans(), drop=st.booleans())
    def link(self, newest, drop):
        """The oldest ack on the links, or the newest: deliver it, or drop
        it."""
        ack = self.links.pop(-1 if newest else 0)
        if not drop:
            self.deliver(ack)

    @rule(members=st.sampled_from(MEMBERSHIPS))
    def membership_update(self, members):
        self.members = members
        self.heard = {name: index for name, index in self.heard.items()
                      if name in members}
        self.reported = {name: regency for name, regency
                         in self.reported.items() if name in members}
        self.outbox.update_replicas(members, F)
        self.settle()

    @rule(dt=st.sampled_from((0.25, TIMEOUT)))
    def time_passes(self, dt):
        self.owner.clock.now += dt

    @precondition(lambda self: self.owner.pending())
    @rule()
    def timer_fires(self):
        (timer,) = self.owner.pending()
        timer.cancelled = True
        now = self.owner.clock.now = max(self.owner.clock.now, timer.due)
        kept = self.outbox.unacked()
        before = len(self.owner.sent)
        timer.callback()
        resent = {}
        for dst, copy in self.owner.sent[before:]:
            resent.setdefault(copy.command.index, []).append(dst)
        oldest = min(kept, key=lambda index: self.sent_at[index])
        assert oldest in resent, "a fire resent not the oldest copy"
        for index, targets in resent.items():
            assert targets == [name for name in self.members
                               if self.heard.get(name, 0) <= index]
            assert now >= max(self.sent_at[index], self.progress) + TIMEOUT, (
                f"copy {index} resent early")
            self.sent_at[index] = now
        assert all(kept[copy.command.index] is copy
                   for __, copy in self.owner.sent[before:])
        self.settle()

    # -- invariants --------------------------------------------------------

    @invariant()
    def a_timer_is_armed_while_copies_are_kept(self):
        assert len(self.owner.pending()) == (1 if self.outbox.unacked() else 0)

    def teardown(self):
        """Every example ends with the child deciding everything relayed and
        every current correct member's ack arriving: the outbox empties."""
        self.decided = max(self.decided, self.relayed)
        for member in self.members:
            if member in CORRECT:
                self.heard[member] = self.decided
                self.outbox.handle_reply(member, RelayAck("g1", "h1", member,
                                                        self.decided))
        self.settle()
        assert self.outbox.unacked() == {}
        assert self.owner.pending() == []


TestRelayOutbox = RelayOutboxMachine.TestCase
# Three times tier-1's example budget (the departed-member and regressing-
# index mutations need it, EXPERIMENTS.md), or the profile's when larger.
TestRelayOutbox.settings = settings(
    max_examples=max(300, settings.default.max_examples), deadline=None,
    stateful_step_count=30, report_multiple_bugs=False)
