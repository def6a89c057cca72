"""Property: consensus agreement holds under arbitrary schedules + f Byzantine voters.

A pure-state-machine harness: 3 :class:`ConsensusInstance` objects, one per
correct replica.  The fourth replica is the Byzantine leader: its PROPOSE is
its WRITE, so each correct replica counts the leader's WRITE for the batch
it was proposed — A or B, the leader may equivocate — and the leader may
also inject arbitrary WRITE/ACCEPT votes.  Hypothesis drives the delivery
schedule and the adversary's vote choices; the invariant is that no two
replicas decide different batches for the same consensus instance.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bcast.consensus import ConsensusInstance
from repro.bcast.messages import Request
from repro.crypto.digest import digest

REPLICAS = ("r0", "r1", "r2", "r3")
CORRECT = REPLICAS[:3]
BYZANTINE = "r3"
QUORUM = 3

BATCH_A = (Request("g", "c", 1, ("a",)),)
BATCH_B = (Request("g", "c", 1, ("b",)),)
DIG_A, DIG_B = digest(BATCH_A), digest(BATCH_B)


@st.composite
def schedules(draw):
    """A byzantine-leader scenario: conflicting proposals + vote schedule."""
    # Which correct replica received which proposal (a Byzantine leader may
    # equivocate between A and B).
    proposals = {r: draw(st.sampled_from(["A", "B"])) for r in CORRECT}
    # The Byzantine voter's behaviour: any sequence of (phase, digest) votes.
    byz_votes = draw(st.lists(
        st.tuples(st.sampled_from(["write", "accept"]),
                  st.sampled_from(["A", "B"])),
        max_size=6,
    ))
    # Global delivery order of all vote messages (sender, phase).
    events = []
    for r in CORRECT:
        events.append((r, "write"))
        events.append((r, "accept-check"))
    for index, __ in enumerate(byz_votes):
        events.append((BYZANTINE, index))
    order = draw(st.permutations(events))
    return proposals, byz_votes, order


@given(schedules())
@settings(max_examples=300, deadline=None)
def test_no_two_correct_replicas_decide_differently(scenario):
    proposals, byz_votes, order = scenario
    digests = {"A": DIG_A, "B": DIG_B}
    batches = {"A": BATCH_A, "B": BATCH_B}
    instances = {r: ConsensusInstance(cid=0, quorum=QUORUM,
                                      members=REPLICAS) for r in CORRECT}
    for r in CORRECT:
        label = proposals[r]
        instances[r].note_proposal(0, digests[label], batches[label])
        # the leader's vote, carried by the proposal this replica validated
        instances[r].add_write(0, digests[label], BYZANTINE)

    # Broadcast pools: votes visible to every replica.
    writes = []   # (sender, digest)
    accepts = []  # (sender, digest)

    def deliver_all():
        """Deliver every pending vote to every correct instance."""
        for r in CORRECT:
            inst = instances[r]
            for sender, d in writes:
                inst.add_write(0, d, sender)
            label = proposals[r]
            if inst.should_accept(0, digests[label]):
                inst.mark_accept_sent(0)
                accepts.append((r, digests[label]))
            for sender, d in accepts:
                inst.add_accept(0, d, sender)

    for event in order:
        sender = event[0]
        if sender == BYZANTINE:
            phase, label = byz_votes[event[1]]
            if phase == "write":
                writes.append((BYZANTINE, digests[label]))
            else:
                accepts.append((BYZANTINE, digests[label]))
        elif event[1] == "write":
            label = proposals[sender]
            writes.append((sender, digests[label]))
        deliver_all()
    deliver_all()

    decided = {r: inst.decided_digest for r, inst in instances.items()
               if inst.decided}
    assert len(set(decided.values())) <= 1, (proposals, byz_votes, decided)
