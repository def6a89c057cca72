"""Robustness under message loss and partitions (bcast layer)."""

from __future__ import annotations

from repro.env.chaos import ChaosConfig
from tests.helpers import Harness


class LossyHarness(Harness):
    """Replica and client messages alike are lost at ``drop_rate``, by the
    ChaosTransport every actor registers through."""

    def __init__(self, drop_rate: float, **kwargs):
        super().__init__(chaos=ChaosConfig(drop_rate=drop_rate), **kwargs)


def test_progress_with_5_percent_drops():
    h = LossyHarness(drop_rate=0.05)
    client = h.add_client(retransmit_timeout=0.5)
    for j in range(30):
        client.submit(("op", j))
    h.run(until=60.0)
    assert len(client.results) == 30
    assert h.monitor.counters["chaos.dropped"] > 0
    sequences = [r.app.executed for r in h.group.correct_replicas()]
    # At least a quorum of replicas share the full, identical order
    # (laggards may still be catching up via state transfer).
    complete = [seq for seq in sequences if len(seq) == 30]
    assert len(complete) >= 3
    assert all(seq == complete[0] for seq in complete)


def test_progress_with_20_percent_drops():
    h = LossyHarness(drop_rate=0.20)
    client = h.add_client(retransmit_timeout=0.5)
    for j in range(10):
        client.submit(("op", j))
    h.run(until=120.0)
    assert len(client.results) == 10
    assert h.monitor.counters["chaos.dropped"] > 0


def test_a_retransmission_is_answered_after_later_requests():
    """The first replies of three replicas to an open-loop sender are
    lost while it keeps submitting.  Its retransmission of that request
    must still be answered, from each replica's reply window, though every
    replica has answered later requests of the same sender since."""
    h = Harness()
    client = h.add_client(retransmit_timeout=1.0)
    lost = set()
    handle = client.on_message

    def lossy(src, payload):
        if payload.req_seq == 1 and src != "g1/r0" and src not in lost:
            lost.add(src)
            return
        handle(src, payload)

    client.on_message = lossy
    for j in range(5):
        client.submit(("op", j))
    h.run(until=0.5)
    assert len(client.results) == 4 and client.proxy.pending() == 1
    h.loop.run(until=2.0)
    assert len(client.results) == 5
    assert h.monitor.counters["proxy.retransmit"] == 1


def test_temporary_full_partition_of_leader_heals():
    h = Harness()
    client = h.add_client(retransmit_timeout=1.0)
    # Cut the leader off from everyone (including the client) for a while.
    def cut():
        for peer in ("g1/r1", "g1/r2", "g1/r3", client.name):
            h.network.partition("g1/r0", peer)

    def heal():
        h.network.heal_all()

    h.loop.schedule(0.1, cut)
    h.loop.schedule(3.0, heal)
    client.submit(("before",))
    # Submit the rest while the leader is unreachable.
    h.loop.schedule(0.5, lambda: [client.submit(("op", j)) for j in range(4)])
    h.run(until=30.0)
    assert len(client.results) == 5
    # A regency change happened while the leader was unreachable.
    survivors = [h.group.replicas[i] for i in (1, 2, 3)]
    assert all(r.regency.current >= 1 for r in survivors)
    # After healing, the old leader catches up via state transfer.
    h.loop.run(until=60.0)
    old_leader = h.group.replicas[0]
    assert old_leader.log.next_execute == survivors[0].log.next_execute


def test_minority_partition_does_not_split_brain():
    """Two replicas cut off from the other two: no quorum on either side,
    so nothing is decided until the partition heals — never two outcomes."""
    h = Harness()
    client = h.add_client(retransmit_timeout=1.0)
    h.network.partition("g1/r0", "g1/r2")
    h.network.partition("g1/r0", "g1/r3")
    h.network.partition("g1/r1", "g1/r2")
    h.network.partition("g1/r1", "g1/r3")
    client.submit(("split",))
    h.run(until=5.0)
    assert client.results == []  # no side can decide alone
    h.network.heal_all()
    h.loop.run(until=40.0)
    assert len(client.results) == 1
    sequences = [r.app.executed for r in h.group.replicas]
    complete = [seq for seq in sequences if seq]
    assert all(seq == complete[0] for seq in complete)
