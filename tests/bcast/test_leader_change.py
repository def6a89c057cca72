"""Leader failure, regency change, and catch-up behaviour."""

from __future__ import annotations

from repro.bcast.messages import Stop
from repro.bcast.reconfig import View
from tests.helpers import Harness


def test_leader_crash_before_any_request_still_makes_progress():
    h = Harness()
    client = h.add_client()
    h.group.replicas[0].crash()  # replica 0 leads regency 0
    client.submit(("after-crash",))
    h.run(until=20.0)
    assert client.results == [("ok", ("after-crash",))]
    survivors = h.group.correct_replicas()
    assert all(r.regency.current >= 1 for r in survivors)
    for replica in survivors:
        assert ("after-crash",) in replica.app.executed


def test_leader_crash_mid_stream_preserves_order_and_liveness():
    h = Harness()
    client = h.add_client()
    for j in range(10):
        client.submit(("pre", j))
    h.run(until=1.0)
    h.group.replicas[0].crash()
    for j in range(10):
        client.submit(("post", j))
    h.loop.run(until=30.0)
    assert len(client.results) == 20
    survivors = h.group.correct_replicas()
    sequences = [r.app.executed for r in survivors]
    assert all(seq == sequences[0] for seq in sequences)
    # FIFO for the client across the leader change:
    labels = [cmd for cmd in sequences[0]]
    assert labels == [("pre", j) for j in range(10)] + [("post", j) for j in range(10)]


def test_two_successive_leader_crashes():
    h = Harness()
    client = h.add_client()
    h.group.replicas[0].crash()
    h.group.replicas[1].crash()  # also kill the next leader: exceeds f=1 ...
    h.group.replicas[1].recover()  # ... so bring it back as a fresh process
    client.submit(("x",))
    h.run(until=30.0)
    assert client.results == [("ok", ("x",))]


def test_crashed_follower_does_not_block_progress():
    h = Harness()
    client = h.add_client()
    h.group.replicas[3].crash()  # follower, not leader
    for j in range(20):
        client.submit(("op", j))
    h.run(until=5.0)
    assert len(client.results) == 20
    # No regency change was necessary.
    assert all(r.regency.current == 0 for r in h.group.correct_replicas())


def test_recovered_replica_catches_up_via_state_transfer():
    h = Harness()
    client = h.add_client()
    lagger = h.group.replicas[3]
    lagger.crash()
    for j in range(30):
        client.submit(("op", j))
    h.run(until=5.0)
    assert len(client.results) == 30
    lagger.recover()
    h.loop.run(until=12.0)
    assert lagger.app.executed == h.group.replicas[1].app.executed
    assert lagger.log.next_execute == h.group.replicas[1].log.next_execute


def test_stops_left_by_departed_members_do_not_force_a_leader_change():
    """After a 7 -> 4 scale-down, two STOPs from removed members and one from
    a current member are one vote, not the new view's 2f+1 = 3."""
    h = Harness(f=2)
    replica = h.group.replicas[3]
    for sender in ("g1/r5", "g1/r6"):
        replica._handle_control(sender, Stop("g1", 0, sender))
    replica._adopt_view(View(h.config.replicas[:4], 1))
    replica._handle_control("g1/r1", Stop("g1", 0, "g1/r1"))
    assert replica.regency.current == 0 and not replica.regency.in_transition
    assert h.monitor.counters["regency.transition"] == 0
