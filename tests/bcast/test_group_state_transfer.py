"""Deeper state-transfer scenarios at the broadcast layer."""

from __future__ import annotations

from repro.bcast.messages import Request, StateResponse
from repro.crypto.digest import digest
from tests.helpers import Harness


def answer(sender, next_cid, *batches):
    return StateResponse(group="g1", sender=sender, from_cid=0,
                         next_cid=next_cid, regency=0, batches=batches,
                         checkpoint=None, horizon=0)


def test_a_straggler_answer_after_the_round_closed_is_adopted():
    """cid 0 decided at r3 alone: r0 holds its write certificate, but the
    ACCEPTs that would have decided it here were lost, and r1 and r2 are
    stuck at the same cursor.  Their answers close the state round; r3's,
    arriving after, must still install cid 0, or r0..r2 wait forever (the
    group livelocks through regency changes that skip an executed cid)."""
    h = Harness()
    r0 = h.group.replicas[0]
    r0.send = lambda dst, payload, **kw: None
    r0._broadcast = lambda payload, **kw: None
    batch = (Request("g1", "c0", 1, ("op", 1)),)
    instance = r0._instance(0)
    instance.note_proposal(0, digest(batch), batch)
    for voter in ("g1/r0", "g1/r1", "g1/r2"):
        instance.add_write(0, digest(batch), voter)
    r0._request_state()
    r0._handle_state_response("g1/r1", answer("g1/r1", 0))
    r0._handle_state_response("g1/r2", answer("g1/r2", 0))
    assert not r0.state_transfer.active and r0.log.next_execute == 0
    r0._handle_state_response("g1/r3", answer("g1/r3", 1, (0, batch)))
    assert r0.log.next_execute == 1
    assert r0.app.executed == [("op", 1)]
    assert h.monitor.counters["state.cert_adopt"] == 1


def test_two_laggards_catch_up_together():
    """f=1 tolerates one crash; a second laggard created by a partition
    must also converge once everything heals."""
    h = Harness()
    client = h.add_client(retransmit_timeout=1.0)
    # Isolate r3 (partition, not crash) and crash nobody: quorum {r0,r1,r2}.
    for peer in ("g1/r0", "g1/r1", "g1/r2", client.name):
        h.network.partition("g1/r3", peer)
    for j in range(15):
        client.submit(("op", j))
    h.run(until=2.0)
    assert len(client.results) == 15
    assert h.group.replicas[3].log.next_execute == 0
    h.network.heal_all()
    h.loop.run(until=10.0)
    # Heartbeats + state transfer bring r3 level.
    assert h.group.replicas[3].log.next_execute == \
        h.group.replicas[0].log.next_execute
    assert h.group.replicas[3].app.executed == h.group.replicas[0].app.executed


def test_state_transfer_preserves_fifo_tracker():
    """After catch-up, the laggard rejects duplicates like everyone else."""
    h = Harness()
    client = h.add_client()
    lagger = h.group.replicas[2]
    lagger.crash()
    for j in range(10):
        client.submit(("op", j))
    h.run(until=2.0)
    lagger.recover()
    h.loop.run(until=8.0)
    assert lagger.log.tracker.snapshot() == \
        h.group.replicas[0].log.tracker.snapshot()


def test_catchup_executes_through_application_exactly_once():
    h = Harness()
    client = h.add_client()
    lagger = h.group.replicas[1]
    lagger.crash()
    for j in range(8):
        client.submit(("op", j))
    h.run(until=2.0)
    lagger.recover()
    h.loop.run(until=8.0)
    assert lagger.app.executed == [("op", j) for j in range(8)]
    # No duplicates even though requests may also have been retransmitted.
    assert len(lagger.app.executed) == 8


def test_recovering_replica_learns_current_regency():
    h = Harness()
    client = h.add_client()
    # Force a leader change first.
    h.group.replicas[0].crash()
    client.submit(("x",))
    h.run(until=10.0)
    assert len(client.results) == 1
    survivors = [h.group.replicas[i] for i in (1, 2, 3)]
    assert all(r.regency.current >= 1 for r in survivors)
    # Now revive the old leader: it must adopt the new regency.
    h.group.replicas[0].recover()
    h.loop.run(until=20.0)
    assert h.group.replicas[0].regency.current >= 1
