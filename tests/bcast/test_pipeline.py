"""Directed tests for pipelined consensus (``max_in_flight`` > 1).

Covers the behaviours docs/PIPELINE.md promises that the property suites
only exercise statistically: the leader genuinely overlaps instances,
out-of-order decisions execute strictly in cid order, open instances
reserve their requests against double-proposal, a regency change recovers
a window where only the *middle* cid is write-certified, and state
transfer tolerates a checkpoint boundary falling inside the window.
"""

from __future__ import annotations

from repro.bcast.fifo import PendingPool, SenderTracker
from repro.bcast.messages import Propose, Request, Write
from repro.crypto.digest import digest
from repro.crypto.signatures import sign

from tests.helpers import Harness, make_config


def _pipeline_config(**overrides):
    # max_batch=1 forces one request per instance, so a burst of client
    # requests can only drain through window parallelism — the sharpest
    # way to make overlap observable (and deterministic).
    params = dict(max_in_flight=4, max_batch=1)
    params.update(overrides)
    return make_config(**params)


def _signed_request(harness: Harness, sender: str, seq: int, command) -> Request:
    unsigned = Request("g1", sender, seq, command, None)
    signature = sign(harness.registry, sender, unsigned.signed_part())
    return Request("g1", sender, seq, command, signature)


class TestPipelinedExecution:
    def test_leader_overlaps_instances_and_executes_in_order(self):
        h = Harness(config=_pipeline_config())
        client = h.add_client()
        for j in range(12):
            client.submit(("op", j))
        h.run(until=5.0)
        assert len(client.results) == 12
        # The burst genuinely filled the window (the gauge records depth
        # at every transition, so its peak is the high-water mark).
        leader = h.group.replicas[0]
        peak = h.monitor.gauges.get(f"consensus.in_flight.{leader.name}.peak", 0.0)
        assert peak >= 2.0
        for replica in h.group.correct_replicas():
            assert replica.log.order_violations == 0
            assert list(replica.log.executed_order) == list(range(12))
            assert replica.app.executed == [("op", j) for j in range(12)]

    def test_depth_one_config_never_overlaps(self):
        h = Harness(config=_pipeline_config(max_in_flight=1))
        client = h.add_client()
        for j in range(12):
            client.submit(("op", j))
        h.run(until=5.0)
        assert len(client.results) == 12
        leader = h.group.replicas[0]
        peak = h.monitor.gauges.get(f"consensus.in_flight.{leader.name}.peak", 0.0)
        assert peak <= 1.0

    def test_no_request_is_proposed_twice(self):
        h = Harness(config=_pipeline_config())
        client = h.add_client()
        for j in range(16):
            client.submit(("op", j))
        h.run(until=5.0)
        assert len(client.results) == 16
        # Under a quiet network every proposal decides; double-proposing a
        # claimed request would surface as more proposals than decisions or
        # as a FIFO violation at validation time.
        counters = h.monitor.snapshot()
        assert counters.get("propose.fifo_violation", 0) == 0
        for replica in h.group.correct_replicas():
            executed = [cmd for cmd in replica.app.executed]
            assert len(executed) == len(set(executed)) == 16


class TestReservedFloors:
    def test_batch_extends_the_claimed_prefix(self):
        pool = PendingPool()
        tracker = SenderTracker()
        for seq in range(1, 7):
            pool.add(Request("g1", "c", seq, ("op", seq), None))
        # Open in-flight instances claim seqs 1..3: the next batch must
        # start at 4, not overlap the claimed prefix.
        batch = pool.admissible_batch(tracker, 10, reserved={"c": 3})
        assert [r.seq for r in batch] == [4, 5, 6]
        # Without reservations the same pool batches from the tracker floor.
        assert [r.seq for r in pool.admissible_batch(tracker, 10)] == [1, 2, 3, 4, 5, 6]

    def test_gap_above_reservation_blocks_the_sender(self):
        pool = PendingPool()
        tracker = SenderTracker()
        for seq in (2, 3):
            pool.add(Request("g1", "c", seq, ("op", seq), None))
        # seq 1 is claimed in flight; 2 extends it, 3 chains on 2.
        assert [r.seq for r in pool.admissible_batch(tracker, 10, reserved={"c": 1})] == [2, 3]
        # A reservation ending below the pooled seqs admits nothing.
        pool2 = PendingPool()
        pool2.add(Request("g1", "c", 5, ("op", 5), None))
        assert pool2.admissible_batch(tracker, 10, reserved={"c": 3}) == ()


class TestRegencyChangeMidWindow:
    def test_only_middle_cid_certified_recovers_gap_free(self):
        """Leader fails with 3 open instances; only cid 1 is certified.

        The new leader's SYNC must re-propose the certified value at cid 1
        and fill the uncertified gap at cid 0 (below it) from the reported
        proposals; the uncertified tail at cid 2 is recycled through the
        pool.  Execution stays gap-free and FIFO across the change.
        """
        h = Harness(config=make_config(max_in_flight=4, request_timeout=0.5))
        client = h.add_client()  # registered so replies have a live endpoint
        followers = h.group.replicas[1:]
        names = [r.name for r in followers]
        # Votes between followers are cut while the window is staged, so
        # write certificates form only where we inject them.
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                h.network.partition(names[i], names[j])
        h.group.start()
        h.loop.run(until=0.02)

        requests = [_signed_request(h, client.name, seq, ("op", seq))
                    for seq in (1, 2, 3)]
        # Pool the requests at the followers (as a client broadcast would):
        # their pending-request timers are what triggers the STOP later.
        for replica in followers:
            for request in requests:
                replica.on_message(client.name, request)
        h.loop.run(until=0.04)

        # The (about-to-fail) leader's window: cids 0..2, one request each.
        leader_name = h.group.replicas[0].name
        proposals = [Propose("g1", 0, cid, (requests[cid],), leader_name)
                     for cid in range(3)]
        for replica in followers:
            for proposal in proposals:
                replica.on_message(leader_name, proposal)
        h.loop.run(until=0.06)
        for replica in followers:
            for cid in range(3):
                assert replica._consensus[cid].proposed_batch == (requests[cid],)

        # Complete a WRITE quorum for the *middle* cid only.
        d1 = digest((requests[1],))
        for replica in followers:
            for voter in names:
                if voter != replica.name:
                    replica.on_message(voter, Write("g1", 0, 1, d1, voter))
        h.loop.run(until=0.08)
        for replica in followers:
            assert replica._consensus[1].write_cert is not None
            assert replica._consensus[0].write_cert is None
            assert replica._consensus[2].write_cert is None
            assert replica.log.next_execute == 0  # nothing decided yet

        h.group.replicas[0].crash()
        h.network.heal_all()
        h.loop.run(until=30.0)

        survivors = h.group.correct_replicas()
        assert all(r.regency.current >= 1 for r in survivors)
        for replica in survivors:
            assert replica.log.order_violations == 0
            # Gap-free: cid 0 (uncertified, below the cert) was filled, cid 1
            # re-proposed from its certificate, cid 2 recycled via the pool.
            assert replica.log.next_execute >= 3
            executed = list(replica.log.executed_order)
            assert executed == list(range(len(executed)))
            assert replica.app.executed[:3] == [("op", 1), ("op", 2), ("op", 3)]
        # The new leader's SYNC carried exactly the gap filler + the cert.
        syncs = h.monitor.records("regency.sync")
        assert syncs and syncs[0].get("carries") == 2


class TestCheckpointBoundaryMidWindow:
    def test_recovering_replica_crosses_a_checkpoint_inside_the_window(self):
        """A checkpoint boundary falling mid-window must not strand a joiner.

        With ``checkpoint_interval=4`` and one request per instance, the
        boundary lands inside almost every in-flight window.  A follower
        that misses a long stretch must catch up through the checkpoint and
        re-join the pipelined stream gap-free above it.
        """
        h = Harness(config=_pipeline_config(checkpoint_interval=4))
        client = h.add_client()
        for j in range(6):
            client.submit(("pre", j))
        h.run(until=2.0)
        straggler = h.group.replicas[3]
        straggler.crash()
        for j in range(14):
            client.submit(("post", j))
        h.loop.run(until=6.0)
        straggler.recover()
        h.loop.run(until=30.0)

        assert len(client.results) == 20
        survivors = h.group.correct_replicas()
        assert straggler in survivors
        # The straggler caught up through a checkpoint (its journal floor
        # sits above zero) yet shows no order violation above it.
        assert straggler.log.checkpoint is not None
        assert straggler.log.next_execute == h.group.replicas[0].log.next_execute
        for replica in survivors:
            assert replica.log.order_violations == 0
            assert replica.app.executed[-14:] == [("post", j) for j in range(14)]
