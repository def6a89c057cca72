"""End-to-end functional tests of the atomic broadcast engine."""

from __future__ import annotations

from tests.helpers import Harness


def test_single_request_is_executed_and_replied():
    h = Harness()
    client = h.add_client()
    client.submit(("hello",))
    h.run(until=5.0)
    assert client.results == [("ok", ("hello",))]
    for executed in h.executed_commands():
        assert executed == [("hello",)]


def test_total_order_across_replicas():
    h = Harness()
    clients = [h.add_client() for _ in range(5)]
    for i, client in enumerate(clients):
        for j in range(20):
            client.submit((client.name, j))
    h.run(until=10.0)
    sequences = h.executed_commands()
    assert all(len(seq) == 100 for seq in sequences)
    assert all(seq == sequences[0] for seq in sequences)


def test_fifo_order_per_sender():
    h = Harness()
    client = h.add_client()
    for j in range(50):
        client.submit(("op", j))
    h.run(until=10.0)
    for executed in h.executed_commands():
        mine = [cmd[1] for cmd in executed if cmd[0] == "op"]
        assert mine == list(range(50))


def test_all_clients_get_all_replies():
    h = Harness()
    clients = [h.add_client() for _ in range(3)]
    for client in clients:
        for j in range(10):
            client.submit((client.name, j))
    h.run(until=10.0)
    for client in clients:
        assert len(client.results) == 10
        assert client.proxy.pending() == 0


def test_batching_keeps_throughput_with_many_requests():
    h = Harness()
    client = h.add_client()
    for j in range(500):
        client.submit(("op", j))
    h.run(until=10.0)
    assert len(client.results) == 500
    # Sequential consensus with batching: far fewer consensus instances
    # than requests.
    decided = h.monitor.counters.get("consensus.decided", 0)
    n = h.config.n
    rounds = decided / n
    assert rounds < 250


def test_requests_survive_duplicate_submission():
    """Retransmitted requests are executed once (reply cache answers dups)."""
    h = Harness()
    client = h.add_client(retransmit_timeout=0.01)  # aggressive retransmit
    client.submit(("only-once",))
    h.run(until=5.0)
    assert client.results == [("ok", ("only-once",))]
    for executed in h.executed_commands():
        assert executed.count(("only-once",)) == 1
