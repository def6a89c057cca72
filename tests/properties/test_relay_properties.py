"""Property-based tests of the indexed f+1 relay rule (order preservation):
the per-stream inbox of votes, and a child ordering its certificates."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bcast.messages import Request
from repro.core.messages import RelayBatch, WireMulticast
from repro.core.node import ByzCastApplication
from repro.core.relay import RelayInbox
from repro.core.tree import OverlayTree
from repro.crypto.keys import KeyRegistry
from tests.helpers import FakeReplica, configs_for, execute, relayed

F = 1
PARENTS = tuple(f"p{i}" for i in range(3 * F + 1))
CORRECT = PARENTS[: 2 * F + 1]
BYZANTINE = PARENTS[2 * F + 1:]


@st.composite
def relay_schedules(draw):
    """A correct sequence, Byzantine (possibly skipping) streams, and a
    global interleaving of every stream's pushes."""
    length = draw(st.integers(min_value=1, max_value=12))
    sequence = [f"m{i}" for i in range(length)]
    streams = {sender: list(sequence) for sender in CORRECT}
    for sender in BYZANTINE:
        keep = draw(st.lists(st.booleans(), min_size=length, max_size=length))
        stream = [m for m, k in zip(sequence, keep) if k]
        if draw(st.booleans()):
            stream = list(reversed(stream))  # byzantine may also reorder
        streams[sender] = stream
    # interleave: a shuffled list of (sender) pulls
    pulls = []
    for sender, stream in streams.items():
        pulls.extend([sender] * len(stream))
    pulls = draw(st.permutations(pulls))
    return sequence, streams, pulls


def push(inbox, sender, index, batch) -> list:
    """``sender``'s copy of ``batch`` at ``index`` reaches the child; returns
    the batches released meanwhile — a leader orders each certified index
    once, in index order (the FIFO tracker's order of the stream)."""
    inbox.vote(Request("g1", sender, index + 1, RelayBatch((batch,), index)))
    released = []
    certified = dict(inbox.certificates())
    while inbox.next_index in certified:
        copies = certified[inbox.next_index]
        inbox.release(inbox.next_index)
        released.append(copies[0].command.wires[0])
    return released


def pushed(inbox, streams, pulls, fabricate=None):
    """Feed ``inbox`` every stream in the ``pulls`` interleaving.

    Each relayer stamps its copies with their position in its own stream,
    so a Byzantine one that skipped or reordered claims wrong indexes.
    ``fabricate`` (a pull position) turns the first Byzantine relayer's
    first copy from there on into ``"FAKE"``, or appends one past its
    stream if it has no copy left by then.
    """
    cursors = {sender: 0 for sender in streams}
    released = []
    byz = BYZANTINE[0]
    for position, sender in enumerate(pulls):
        index = cursors[sender]
        cursors[sender] += 1
        batch = streams[sender][index]
        if fabricate is not None and sender == byz and position >= fabricate:
            batch, fabricate = "FAKE", None
        released.extend(push(inbox, sender, index, batch))
    if fabricate is not None:
        released.extend(push(inbox, byz, cursors[byz], "FAKE"))
    return released


@given(relay_schedules())
@settings(max_examples=200, deadline=None)
def test_release_order_equals_correct_order(schedule):
    sequence, streams, pulls = schedule
    inbox = RelayInbox(PARENTS, threshold=F + 1)
    # Everything the correct parents relayed is eventually released, in
    # exactly their order — regardless of Byzantine skipping/reordering.
    assert pushed(inbox, streams, pulls) == sequence


@given(relay_schedules(), st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_fabricated_messages_never_released(schedule, fab_position):
    sequence, streams, pulls = schedule
    inbox = RelayInbox(PARENTS, threshold=F + 1)
    assert pushed(inbox, streams, pulls, fabricate=fab_position) == sequence


# ----------------------------------------- whole batches, in index order


@st.composite
def batched_schedules(draw):
    """The correct sequence cut once into indexed batches; the streams of
    copies each relayer sends; and the order the child orders them in.

    Every correct relayer sends that cut, but up to ``F`` of them skip a
    prefix of it, as a replica restored past those batches does.  A
    Byzantine relayer re-cuts its (skipping, maybe reordered) stream at will
    and stamps each piece with any index.
    """
    sequence, streams, __ = draw(relay_schedules())
    cuts = draw(st.sets(st.integers(1, max(1, len(sequence) - 1))))
    bounds = sorted({0, len(sequence), *cuts})
    batches = [(index, sequence[a:b])
               for index, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    copies = {}
    for position, sender in enumerate(CORRECT):
        skipped = draw(st.integers(0, len(batches))) if position < F else 0
        copies[sender] = batches[skipped:]
    for sender in BYZANTINE:
        stream = streams[sender]
        pieces = sorted(draw(st.sets(st.integers(1, max(1, len(stream))))))
        edges = sorted({0, len(stream), *pieces})
        copies[sender] = [
            (draw(st.integers(0, len(batches))), stream[a:b])
            for a, b in zip(edges, edges[1:])]
    pulls = [sender for sender, sent in copies.items() for __ in sent]
    return sequence, copies, draw(st.permutations(pulls))


@given(batched_schedules())
@settings(max_examples=200, deadline=None)
def test_correct_relayers_cutting_alike_release_the_correct_order(schedule):
    """A child fed indexed ``RelayBatch``es acts in exactly the correct
    relayers' order, whatever the Byzantine relayers send and however far
    behind a restored correct relayer starts."""
    sequence, copies, pulls = schedule
    tree = OverlayTree.paper_tree()
    configs = configs_for(tree)
    names = dict(zip(PARENTS, configs["h2"].replicas))  # g1's parent group
    wire_of = {m: WireMulticast("client", int(m[1:]), ("g1", "g2"), (m,))
               for m in sequence}
    app = ByzCastApplication("g1", tree, configs, KeyRegistry())
    replica = FakeReplica("g1/r0", configs["g1"])
    cursors = {sender: 0 for sender in copies}
    for sender in pulls:
        index, chunk = copies[sender][cursors[sender]]
        cursors[sender] += 1
        execute(app, replica, relayed("g1", names[sender], cursors[sender],
                                      *(wire_of[m] for m in chunk),
                                      index=index))
    assert [m.payload[0] for m in app.delivered_messages()] == sequence
