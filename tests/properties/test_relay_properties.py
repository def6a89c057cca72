"""Property-based tests of the quorum-head merge (order preservation)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.messages import WireMulticast
from repro.core.node import ByzCastApplication
from repro.core.relay import QuorumMerge
from repro.core.tree import OverlayTree
from repro.crypto.keys import KeyRegistry
from repro.sim.events import EventLoop
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


@given(relay_schedules())
@settings(max_examples=200, deadline=None)
def test_release_order_equals_correct_order(schedule):
    sequence, streams, pulls = schedule
    merge = QuorumMerge(PARENTS, threshold=F + 1)
    cursors = {sender: 0 for sender in streams}
    released = []
    for sender in pulls:
        stream = streams[sender]
        key = stream[cursors[sender]]
        cursors[sender] += 1
        released.extend(merge.push(sender, key, key))
    # Everything the correct parents relayed is eventually released, in
    # exactly their order — regardless of Byzantine skipping/reordering.
    assert released == sequence


@given(relay_schedules(), st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_fabricated_messages_never_released(schedule, fab_position):
    sequence, streams, pulls = schedule
    merge = QuorumMerge(PARENTS, threshold=F + 1)
    cursors = {sender: 0 for sender in streams}
    released = []
    byz = BYZANTINE[0]
    injected = False
    for index, sender in enumerate(pulls):
        if not injected and sender == byz and index >= fab_position:
            released.extend(merge.push(byz, "FAKE", "FAKE"))
            injected = True
        stream = streams[sender]
        key = stream[cursors[sender]]
        cursors[sender] += 1
        released.extend(merge.push(sender, key, key))
    if not injected:
        released.extend(merge.push(byz, "FAKE", "FAKE"))
    assert "FAKE" not in released
    assert [m for m in released if m != "FAKE"] == sequence


# ---------------------------------------------- batch boundaries mean nothing


@st.composite
def chunked_schedules(draw):
    """A relay schedule whose streams are cut into batches at random points
    (Byzantine stream included), plus the order the child orders them in."""
    sequence, streams, __ = draw(relay_schedules())
    chunks = {}
    for sender, stream in streams.items():
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(stream) - 1)))))
        bounds = [0] + [c for c in cuts if c < len(stream)] + [len(stream)]
        chunks[sender] = [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    pulls = [sender for sender, parts in chunks.items() for __ in parts]
    return sequence, chunks, draw(st.permutations(pulls))


@given(chunked_schedules())
@settings(max_examples=200, deadline=None)
def test_any_chunking_releases_what_unbatched_pushes_release(schedule):
    """A child fed ``RelayBatch``es acts in exactly the order it would act in
    had every wire arrived as its own relay, whatever the cut points."""
    sequence, chunks, pulls = schedule
    tree = OverlayTree.paper_tree()
    configs = configs_for(tree)
    parents = configs["h2"].replicas  # g1's parent group
    names = dict(zip(PARENTS, parents))
    wire_of = {m: WireMulticast("client", int(m[1:]), ("g1", "g2"), (m,))
               for m in sequence}

    def child():
        app = ByzCastApplication("g1", tree, configs, KeyRegistry())
        return app, FakeReplica("g1/r0", EventLoop(), configs["g1"])

    batched, batched_replica = child()
    unbatched, unbatched_replica = child()
    reference = QuorumMerge(parents, threshold=F + 1)
    released = []
    cursors = {sender: 0 for sender in chunks}
    for seq, sender in enumerate(pulls, start=1):
        chunk = chunks[sender][cursors[sender]]
        cursors[sender] += 1
        wires = [wire_of[m] for m in chunk]
        execute(batched, batched_replica, relayed("g1", names[sender], seq, *wires))
        for wire in wires:
            execute(unbatched, unbatched_replica,
                    relayed("g1", names[sender], seq, wire))
            released.extend(reference.push(names[sender], wire.identity(), wire))

    acted = [m.payload[0] for m in batched.delivered_messages()]
    assert acted == [m.payload[0] for m in unbatched.delivered_messages()]
    assert acted == [w.payload[0] for w in released]
    assert acted == sequence
