"""Leader heartbeats: quiesced laggards catch up without new traffic."""

from __future__ import annotations

import pytest

from tests.helpers import Harness


def test_quiesced_laggard_catches_up_via_heartbeat():
    h = Harness()
    client = h.add_client()
    lagger = h.group.replicas[3]
    lagger.crash()
    for j in range(10):
        client.submit(("op", j))
    h.run(until=2.0)
    assert len(client.results) == 10
    # Recover *after* the system went quiet; un-crash without state
    # transfer to simulate a replica that silently missed everything.
    lagger.crashed = False
    h.loop.run(until=10.0)
    # The leader's heartbeat exposed the gap and the laggard state-transferred.
    assert lagger.log.next_execute == h.group.replicas[0].log.next_execute
    assert lagger.app.executed == h.group.replicas[0].app.executed


def test_only_the_leader_beats():
    h = Harness()
    client = h.add_client()
    client.submit(("x",))
    h.run(until=3.5)
    # The run is quiet after ~0.01s; messages in the last seconds are
    # heartbeats from the single leader to its 3 peers (~1/s each).
    sent_before = h.monitor.counters["net.sent"]
    h.loop.run(until=6.5)
    sent_after = h.monitor.counters["net.sent"]
    beats = sent_after - sent_before
    assert 6 <= beats <= 12  # 3 peers x ~3 ticks, one beating leader only


def test_a_recover_before_the_next_beat_leaves_one_heartbeat_chain():
    """The tick armed before a crash dies with it; ``recover`` arms the one
    chain that runs afterwards (ticks at 1.0 s intervals, crash at 3.25 s
    with a tick pending for 4.0 s, recover at 3.5 s)."""
    h = Harness()
    leader = h.group.replicas[0]
    ticks = []
    tick = leader._heartbeat_tick

    def counted_tick():
        ticks.append(h.loop.now)
        tick()

    leader._heartbeat_tick = counted_tick
    h.run(until=3.25)
    assert len(ticks) == 3
    leader.crash()
    h.loop.run(until=3.5)
    leader.recover()
    h.loop.run(until=13.6)
    after = [at for at in ticks if at > 3.5]
    assert after == pytest.approx([4.5 + k for k in range(10)])
