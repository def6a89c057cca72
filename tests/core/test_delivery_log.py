"""The a-delivery log: one shared message object per delivery, complete
across a checkpoint restore."""

from __future__ import annotations

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS

DESTINATIONS = (("g1",), ("g1", "g2"), ("g2",), ("g2", "g1"))


def test_every_replica_of_a_group_logs_the_same_message_objects():
    """In one process the replicas of a destination group share each
    a-delivered message: the entry group's and a relayed group's logs
    hold, at every position, the one object the client multicast."""
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            costs=FAST_COSTS, seed=5, max_in_flight=4)
    clients = [dep.add_client(f"c{index}") for index in range(2)]
    for round_ in range(6):
        for client in clients:
            for dst in DESTINATIONS:
                client.amulticast(destination(*dst), payload=(round_,))
    dep.run(until=5.0)
    assert all(client.pending() == 0 for client in clients)
    sent = {id(message): message for client in clients
            for message, __ in client.completions}
    for gid in ("g1", "g2"):
        logs = [replica.app.deliveries
                for replica in dep.groups[gid].correct_replicas()]
        assert len(logs) == 4
        assert len(logs[0]) == 2 * 6 * 3
        assert all(len(log) == len(logs[0]) for log in logs)
        for position in zip(*logs):
            assert all(message is position[0] for message in position)
            assert sent[id(position[0])] is position[0]


def test_a_replica_restored_from_a_checkpoint_logs_what_its_peers_do():
    """A replica that sleeps through several checkpoints installs a peer's
    and rebuilds its log from the acted ids: its ``delivered_messages()``
    equal its peers', before and after traffic it ordered itself."""
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            costs=FAST_COSTS, request_timeout=0.5,
                            checkpoint_interval=4, max_batch=2, seed=3)
    client = dep.add_client("c1", retransmit_timeout=0.5)
    lagger = dep.groups["g1"].replica("g1/r2")
    peers = [r for r in dep.groups["g1"].replicas if r is not lagger]

    def burst(tag, count):
        for index in range(count):
            dst = destination("g1", "g2") if index % 3 else destination("g1")
            client.amulticast(dst, payload=(tag, index))
        dep.runtime.run_until(lambda: client.pending() == 0, timeout=30.0)

    lagger.crash()
    burst("missed", 30)
    assert all(r.log.horizon > 0 for r in peers)
    lagger.recover()
    dep.runtime.run_until(
        lambda: lagger.log.next_execute == peers[0].log.next_execute,
        timeout=30.0)
    assert dep.monitor.counters["checkpoint.installed"] >= 1
    expected = peers[0].app.delivered_messages()
    assert len(expected) == 30
    assert lagger.app.delivered_messages() == expected
    burst("after", 12)
    dep.run(until=dep.runtime.clock.now + 1.0)
    expected = peers[0].app.delivered_messages()
    assert len(expected) == 42
    for replica in dep.groups["g1"].replicas:
        assert replica.app.delivered_messages() == expected
