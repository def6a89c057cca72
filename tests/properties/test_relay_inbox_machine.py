"""A state machine over one child replica's relay stream: the inbox of
votes, the certificates it pools, and the check a certificate passes
before the group orders it.

The child is ``g1`` of a two-level tree; its parent ``h1`` relays.  The
replica is the application under test (:class:`ByzCastApplication`) on a
model of the replica around it: a pool, a FIFO tracker, and a queue of
ordered requests not executed yet.  Rules are what the stream can see:

* signed copies from correct relayers, any index in any order, each the
  correct batch of its index, and retransmissions of them;
* signed copies from Byzantine relayers (a member, and a departed one or a
  joiner) carrying any batch at any index — equivocation included;
* ``MembershipUpdate``\\ s of ``h1`` ordered ahead of anything still
  pooled, executed later;
* a correct leader proposing the pooled certificate next in FIFO order, and
  a Byzantine leader proposing any certificate: copies of any index or
  relayer it has seen, a duplicated signer, a forged signature, a copy of
  another index, or fewer than f+1 — each ordered only if correct followers
  accept it (``vouch``);
* executing the oldest ordered request;
* the replica losing its pool (a restart);
* at the end of every example, every correct copy arriving, after which
  the whole sequence must be released.

The invariants: the released batches are a prefix of the correct sequence,
so each is backed by a correct relayer; no index is used up unreleased
(the tracker and the stream's next index move together); and every index
the inbox can certify is pooled or ordered.

Tier-1 runs the derandomized ``tier1`` profile; CI's seed sweep runs
``--hypothesis-profile=sweep`` (``tests/conftest.py``).
"""

from __future__ import annotations

from collections import deque

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from repro.bcast.messages import Request
from repro.bcast.reconfig import admin_identity
from repro.core.messages import (
    MembershipUpdate, RelayBatch, RelayCertificate, WireMulticast,
)
from repro.core.node import ByzCastApplication
from repro.core.relay import relay_sender
from repro.core.tree import OverlayTree
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature, sign
from tests.helpers import FakeReplica, configs_for, run_batch

F = 1
TREE = OverlayTree.two_level(["g1", "g2"])
STREAM = relay_sender("h1")
CORRECT = ("h1/r0", "h1/r1", "h1/r2", "h1/r4")
BYZANTINE = ("h1/r3", "h1/r5")
#: every membership of h1 holds at most F Byzantine relayers among 3F+1 or
#: more; the other Byzantine one is a departed member or a future joiner
MEMBERSHIPS = (
    ("h1/r0", "h1/r1", "h1/r2", "h1/r3"),
    ("h1/r0", "h1/r1", "h1/r2", "h1/r5"),
    ("h1/r0", "h1/r1", "h1/r3", "h1/r4"),
    ("h1/r0", "h1/r1", "h1/r2", "h1/r3", "h1/r4"),
)
LENGTH = 4
#: the batch every correct relayer stamps with each index
SEQUENCE = tuple(
    RelayBatch((WireMulticast("client", index + 1, ("g1", "g2"),
                              ("m", index)),), index)
    for index in range(LENGTH))
#: what a Byzantine leader tries: ``attack`` in
#: :meth:`RelayStreamMachine.byzantine_leader_proposes`
ATTACKS = ("f copies", "duplicate signer", "departed signer", "mixed digests",
           "forged signer", "copied tag", "another index", "any copies")
JUNK = tuple(
    RelayBatch((WireMulticast("client", 100 + index, ("g1", "g2"),
                              ("junk", index)),), index)
    for index in range(LENGTH + 2))


class RelayStreamMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.registry = KeyRegistry()
        self.configs = configs_for(TREE)
        self.app = ByzCastApplication("g1", TREE, self.configs, self.registry)
        self.replica = FakeReplica("g1/r0", self.configs["g1"])
        #: ordered, not executed yet
        self.decided = deque()
        #: every signed copy sent so far, in sending order
        self.seen = []
        #: relayer -> its copies, for retransmission
        self.sent = {}
        self.admin_seq = 0

    # -- the wire ------------------------------------------------------

    def copy(self, sender: str, batch: RelayBatch) -> Request:
        unsigned = Request("g1", sender, batch.index + 1, batch)
        return unsigned.with_signature(
            sign(self.registry, sender, unsigned.signed_part()))

    def receive(self, copy: Request) -> None:
        """What the replica does with a relayer's signed copy."""
        self.seen.append(copy)
        self.sent.setdefault(copy.sender, []).append(copy)
        assert self.app.intake(copy, self.replica)

    @property
    def expected(self) -> int:
        """The seq the FIFO tracker admits next from the stream."""
        return self.replica.ordered.get(STREAM, 0) + 1

    def order(self, request: Request) -> bool:
        """Order ``request`` if correct followers accept it: next in FIFO
        order, and vouched for after what is ordered ahead of it."""
        if request.seq != self.expected:
            return False
        verdict = self.app.vouch(request, list(self.decided))
        if verdict is not True:
            return False
        self.replica.ordered[STREAM] = request.seq
        self.replica.pool.pop(request.key(), None)
        self.decided.append(request)
        return True

    # -- rules -----------------------------------------------------------

    @initialize(copies=st.lists(st.tuples(st.sampled_from(MEMBERSHIPS[0]),
                                          st.integers(0, LENGTH - 1)),
                                max_size=6))
    def copies_in_flight(self, copies):
        """Copies of the correct batches, the Byzantine member's included,
        that arrived before anything else happened."""
        for sender, index in copies:
            self.receive(self.copy(sender, SEQUENCE[index]))

    @rule(sender=st.sampled_from(CORRECT), index=st.integers(0, LENGTH - 1),
          eager=st.booleans())
    def correct_copy(self, sender, index, eager):
        """A correct relayer's copy; an ``eager`` leader proposes what it
        completed at once."""
        self.receive(self.copy(sender, SEQUENCE[index]))
        if eager:
            self.correct_leader_proposes()

    @rule(sender=st.sampled_from(BYZANTINE), index=st.integers(0, LENGTH),
          junk=st.booleans())
    def byzantine_copy(self, sender, index, junk):
        batch = JUNK[index] if junk or index == LENGTH else SEQUENCE[index]
        self.receive(self.copy(sender, batch))

    @rule(sender=st.sampled_from(CORRECT))
    def retransmission(self, sender):
        for copy in self.sent.get(sender, ()):
            self.app.intake(copy, self.replica)

    @rule(members=st.sampled_from(MEMBERSHIPS), eager=st.booleans())
    def membership_update(self, members, eager):
        """An ordered membership change of the parent, executed later; an
        ``eager`` leader proposes what it holds right behind it."""
        self.admin_seq += 1
        self.decided.append(Request(
            "g1", admin_identity("g1"), self.admin_seq,
            MembershipUpdate("h1", members, F)))
        if eager:
            self.correct_leader_proposes()

    @rule()
    def correct_leader_proposes(self):
        request = self.replica.pool.get((STREAM, self.expected))
        if request is not None:
            assert self.app.vouch(request, list(self.decided)) is not False, \
                "the pool holds a certificate the replica refuses"
            self.order(request)

    @rule(attack=st.sampled_from(ATTACKS), data=st.data())
    def byzantine_leader_proposes(self, attack, data):
        """A Byzantine leader orders a certificate of its making: it holds
        the Byzantine relayers' keys and every copy it has seen."""
        index = self.expected - 1
        members = self.app.group_configs["h1"].replicas
        inside = [name for name in BYZANTINE if name in members]
        outside = [name for name in BYZANTINE if name not in members]
        if attack in ("mixed digests", "copied tag") and index < LENGTH:
            # it waits for a correct member's genuine copy to mix in
            sender = data.draw(st.sampled_from(
                [name for name in CORRECT if name in members]))
            self.receive(self.copy(sender, SEQUENCE[index]))
        seen = [c for c in self.seen if c.command.index == index]
        later = [c for c in self.seen if c.command.index == index + 1]
        junk = [self.copy(name, JUNK[index]) for name in inside]
        genuine = [c for c in seen if c.sender in members
                   and c.sender not in BYZANTINE]
        pick = data.draw(st.sampled_from(genuine)) if genuine else None
        if attack == "f copies":
            copies = junk
        elif attack == "duplicate signer":
            copies = junk * 2
        elif attack == "departed signer":
            copies = junk + [self.copy(name, JUNK[index]) for name in outside]
        elif attack == "mixed digests":
            copies = junk + ([pick] if pick else [])
        elif attack in ("forged signer", "copied tag"):
            # a correct relayer's name on junk: under the forger's own key,
            # or with the tag of a real copy
            victim = data.draw(st.sampled_from(CORRECT))
            forged = Request("g1", victim, index + 1, JUNK[index])
            tag = (sign(self.registry, BYZANTINE[0], forged.signed_part()).tag
                   if attack == "forged signer" or not seen
                   else pick.signature.tag)
            copies = junk + [forged.with_signature(Signature(victim, tag))]
        elif attack == "another index":
            copies = later[:F + 1]
        else:  # any copies it has seen, of this index first
            copies = data.draw(st.lists(st.sampled_from(seen or self.seen),
                                        min_size=1, max_size=3)) \
                if self.seen else []
        if copies:
            self.order(Request("g1", STREAM, index + 1, RelayCertificate(
                "h1", index, tuple(copies))))

    @rule()
    def execute(self):
        if self.decided:
            run_batch(self.app, self.replica, self.decided.popleft())

    @rule()
    def pool_loss(self):
        self.replica.pool.clear()
        self.app.reoffer(self.replica)

    def teardown(self):
        """Every example ends with every correct copy arriving: the current
        correct relayers send all of theirs, and once all is ordered and
        executed the whole sequence is released."""
        while self.decided:
            self.execute()
        members = self.app.group_configs["h1"].replicas
        for sender in CORRECT:
            if sender in members:
                for batch in SEQUENCE:
                    self.receive(self.copy(sender, batch))
        while self.replica.pool:
            before = self.expected
            self.correct_leader_proposes()
            self.execute()
            if self.expected == before:
                break
        assert self.released() == [("m", index) for index in range(LENGTH)]

    # -- invariants ------------------------------------------------------

    def released(self):
        return [m.payload for m in self.app.delivered_messages()]

    @invariant()
    def released_a_prefix_of_the_correct_sequence(self):
        released = self.released()
        assert released == [("m", index) for index in range(len(released))]

    @invariant()
    def no_index_is_used_up_unreleased(self):
        ordered = sum(1 for request in self.decided
                      if request.sender == STREAM)
        next_index = self.app._inboxes["h1"].next_index
        assert self.replica.ordered.get(STREAM, 0) == next_index + ordered
        assert len(self.released()) == next_index

    @invariant()
    def every_certifiable_index_is_pooled_or_ordered(self):
        for index, __ in self.app._inboxes["h1"].certificates():
            assert ((STREAM, index + 1) in self.replica.pool
                    or self.replica.ordered.get(STREAM, 0) > index), index


TestRelayStream = RelayStreamMachine.TestCase
TestRelayStream.settings = settings(deadline=None, stateful_step_count=30,
                                   report_multiple_bugs=False)
