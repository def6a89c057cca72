"""Property: FIFO atomic broadcast — per-sender order holds in every run."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bcast.fifo import PendingPool, SenderTracker
from repro.bcast.messages import Request
from tests.helpers import Harness

SENDERS = ("a", "b", "c", "d")


@st.composite
def broadcast_workloads(draw):
    n_clients = draw(st.integers(min_value=1, max_value=4))
    counts = [draw(st.integers(min_value=1, max_value=12))
              for __ in range(n_clients)]
    seed = draw(st.integers(min_value=0, max_value=2000))
    crash_follower = draw(st.booleans())
    return n_clients, counts, seed, crash_follower


@given(broadcast_workloads())
@settings(max_examples=20, deadline=None)
def test_fifo_per_sender_and_total_order(case):
    n_clients, counts, seed, crash_follower = case
    h = Harness(seed=seed)
    if crash_follower:
        h.group.replicas[3].crash()
    clients = [h.add_client(f"cl{i}") for i in range(n_clients)]
    for client, count in zip(clients, counts):
        for j in range(count):
            client.submit((client.name, j))
    h.run(until=20.0)
    for client, count in zip(clients, counts):
        assert len(client.results) == count
    sequences = [r.app.executed for r in h.group.correct_replicas()]
    # Total order: identical sequences everywhere.
    assert all(seq == sequences[0] for seq in sequences)
    # FIFO: each client's commands appear in submission order.
    reference = sequences[0]
    for client, count in zip(clients, counts):
        mine = [cmd[1] for cmd in reference if cmd[0] == client.name]
        assert mine == list(range(count))
    # Completeness: nothing lost, nothing duplicated.
    assert len(reference) == sum(counts)
    assert len(set(reference)) == len(reference)


@st.composite
def pools_and_batches(draw):
    """Pooled (sender, seq)s, the tracker they were pruned against, and
    the tracker positions a decided batch moves to."""
    pooled = draw(st.lists(st.tuples(st.sampled_from(SENDERS),
                                     st.integers(1, 10)), max_size=40))
    floors = draw(st.fixed_dictionaries(
        {sender: st.integers(0, 5) for sender in SENDERS}))
    moved = draw(st.dictionaries(st.sampled_from(SENDERS),
                                 st.integers(1, 10)))
    return pooled, floors, moved


@given(pools_and_batches())
def test_batch_scoped_prune_leaves_the_full_prunes_pool(case):
    """Pruning only the decided batch's senders, as ``Replica._order``
    does, leaves exactly the pool a prune of every sender leaves."""
    pooled, floors, moved = case
    tracker = SenderTracker()
    for sender, last in floors.items():
        tracker.advance(sender, last)
    scoped, full = PendingPool(), PendingPool()
    for pool in (scoped, full):
        for sender, seq in pooled:
            pool.add(Request("g1", sender, seq, ("op", seq)))
        pool.prune_ordered(tracker)  # the pool a replica holds: no duplicate
    for sender, seq in moved.items():
        tracker.advance(sender, max(seq, tracker.last(sender)))
    scoped.prune_ordered(tracker, moved)
    full.prune_ordered(tracker)
    assert scoped._by_sender == full._by_sender
    assert scoped._arrival == full._arrival
    assert len(scoped) == len(full) == sum(
        len(per_sender) for per_sender in full._by_sender.values())
    assert all(scoped._by_sender.values())  # no empty sender entry kept
    assert scoped.admissible_batch(tracker, 64) == \
        full.admissible_batch(tracker, 64)
