"""Property: pipeline depth never changes what gets executed.

For any workload and any ``max_in_flight`` in {1, 2, 4, 8}, every correct
replica executes a gap-free, duplicate-free cid sequence, all replicas
agree on it, and each sender's commands appear exactly in submission order
— i.e. the pipelined schedule is indistinguishable from the sequential
one apart from timing.  With a single sender the *entire* executed
sequence is required to be identical to the depth-1 run.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from tests.helpers import Harness, make_config

DEPTHS = (1, 2, 4, 8)


@st.composite
def pipeline_workloads(draw):
    n_clients = draw(st.integers(min_value=1, max_value=3))
    counts = [draw(st.integers(min_value=1, max_value=5))
              for _ in range(n_clients)]
    seed = draw(st.integers(min_value=0, max_value=10_000))
    # max_batch=1 maximizes instance count, so the window actually fills
    # and out-of-order decisions occur; max_batch=4 exercises batching too.
    max_batch = draw(st.sampled_from([1, 4]))
    return n_clients, counts, seed, max_batch


def _run(depth, n_clients, counts, seed, max_batch):
    config = make_config(max_in_flight=depth, max_batch=max_batch)
    h = Harness(seed=seed, config=config)
    clients = [h.add_client(f"c{i}") for i in range(n_clients)]
    for i, client in enumerate(clients):
        for j in range(counts[i]):
            client.submit((f"c{i}", j))
    h.run(until=30.0)
    total = sum(counts)
    for i, client in enumerate(clients):
        assert len(client.results) == counts[i]
    replicas = h.group.correct_replicas()
    sequences = [replica.app.executed for replica in replicas]
    orders = [list(replica.log.executed_order) for replica in replicas]
    for replica in replicas:
        assert replica.log.order_violations == 0
    return total, sequences, orders


@given(pipeline_workloads())
@settings(max_examples=10, deadline=None)
def test_executed_sequence_is_depth_invariant(workload):
    n_clients, counts, seed, max_batch = workload
    reference = None
    for depth in DEPTHS:
        total, sequences, orders = _run(depth, n_clients, counts, seed,
                                        max_batch)
        # Gap-free and duplicate-free on every correct replica.
        for order in orders:
            assert order == list(range(len(order)))
        for seq in sequences:
            assert len(seq) == total
            assert len(set(seq)) == total
            # All replicas agree on one sequence.
            assert seq == sequences[0]
        # Per-sender projection equals submission order (FIFO), at any depth.
        for i in range(n_clients):
            projected = [cmd for cmd in sequences[0] if cmd[0] == f"c{i}"]
            assert projected == [(f"c{i}", j) for j in range(counts[i])]
        if depth == 1:
            reference = sequences[0]
        elif n_clients == 1:
            # Single sender: the total order itself is depth-invariant.
            assert sequences[0] == reference
