"""Checkpointing: log truncation, digest quorums, checkpoint state transfer.

Covers the bounded-memory mechanism end to end — periodic snapshots with
log truncation, the f+1 matching-digest install rule (including forged
payloads from Byzantine peers), catch-up of a replica that fell behind the
truncation horizon, and composition with ordered reconfiguration — plus
unit coverage of the `DecisionLog` suffix/checkpoint edge cases.
"""

from __future__ import annotations

import pytest

from repro.bcast.app import EchoApplication
from repro.bcast.log import DecisionLog
from repro.bcast.messages import CheckpointData, Request, StateRequest, StateResponse
from repro.bcast.reconfig import View, ViewManager
from repro.bcast.replica import Replica
from repro.core.deployment import ByzCastDeployment
from repro.core.messages import RelayBatch
from repro.core.node import ByzCastApplication
from repro.core.tree import OverlayTree
from repro.crypto.cache import caching_disabled
from repro.crypto.digest import digest
from repro.faults.elasticity import elasticity_controller
from repro.types import destination
from tests.helpers import (FAST_COSTS, Harness, doubled, first_altered,
                           make_config, reshaped, state_response, swapped)


def req(seq: int, command=None, sender: str = "c0") -> Request:
    return Request("g1", sender, seq, command if command is not None else ("op", seq))


def make_checkpoint(cid: int, state, tracker, replicas, f) -> CheckpointData:
    """A well-formed checkpoint whose digest matches its payload."""
    tracker = tuple(sorted(tracker))
    return CheckpointData(
        cid=cid,
        state_digest=digest(("ckpt", cid, state, tracker, tuple(replicas), f)),
        state=state,
        tracker=tracker,
        view_replicas=tuple(replicas),
        view_f=f,
    )


# ---------------------------------------------------------------- DecisionLog


class TestDecisionLogSuffix:
    def test_install_suffix_refuses_gaps(self):
        log = DecisionLog()
        installed = log.install_suffix(((0, (req(1),)), (2, (req(3),))))
        assert [cid for cid, __ in installed] == [0]
        assert log.next_execute == 1  # stopped at the gap

    def test_install_suffix_skips_entries_below_cursor(self):
        log = DecisionLog()
        log.record_decision(0, (req(1),))
        list(log.ready_batches())
        assert log.next_execute == 1
        installed = log.install_suffix(((0, (req(1),)), (1, (req(2),))))
        assert [cid for cid, __ in installed] == [1]
        assert log.next_execute == 2

    def test_install_suffix_duplicate_cids_no_typeerror(self):
        # A Byzantine peer duplicates a cid with a different (unorderable)
        # payload: sorting must key on the cid alone and the first entry
        # wins — the old sorted(batches) fell back to comparing Request
        # tuples and crashed with a TypeError.
        log = DecisionLog()
        good = (req(1, ("x",)),)
        forged = (req(1, 12345),)
        installed = log.install_suffix(((0, good), (0, forged)))
        assert [cid for cid, __ in installed] == [0]
        assert installed[0][1] == good
        assert log.next_execute == 1

    def test_install_suffix_unsorted_input(self):
        log = DecisionLog()
        installed = log.install_suffix(((1, (req(2),)), (0, (req(1),))))
        assert [cid for cid, __ in installed] == [0, 1]


class TestDecisionLogCheckpoints:
    def test_checkpoint_due_boundaries(self):
        log = DecisionLog(checkpoint_interval=4)
        assert [cid for cid in range(10) if log.checkpoint_due(cid)] == [3, 7]
        assert not DecisionLog().checkpoint_due(3)  # interval 0 = off

    def test_note_checkpoint_truncates_and_counts(self):
        log = DecisionLog(checkpoint_interval=4)
        for cid in range(4):
            log.record_decision(cid, (req(cid + 1),))
        list(log.ready_batches())
        assert log.executed_count == 4
        ckpt = make_checkpoint(3, (), (("c0", 4),), (), 1)
        dropped = log.note_checkpoint(ckpt)
        assert dropped == 4
        assert log.executed_count == 0
        assert log.horizon == 4
        assert log.truncated_total == 4
        # Stale checkpoints are ignored.
        assert log.note_checkpoint(make_checkpoint(2, (), (), (), 1)) == 0
        assert log.horizon == 4

    def test_install_checkpoint_jumps_cursor_and_tracker(self):
        log = DecisionLog(checkpoint_interval=4)
        log.record_decision(9, (req(99),))  # covered by the checkpoint
        ckpt = make_checkpoint(11, ("state",), (("c0", 12),), (), 1)
        log.install_checkpoint(ckpt)
        assert log.next_execute == 12
        assert log.tracker.last("c0") == 12
        assert log.highest_decided() is None
        with pytest.raises(ValueError):
            log.install_checkpoint(make_checkpoint(5, (), (), (), 1))

    def test_max_retained_high_water(self):
        log = DecisionLog(checkpoint_interval=2)
        for cid in range(8):
            log.record_decision(cid, (req(cid + 1),))
            list(log.ready_batches())
            if log.checkpoint_due(cid):
                log.note_checkpoint(
                    make_checkpoint(cid, (), (("c0", cid + 1),), (), 1))
        assert log.max_retained <= 2 * log.checkpoint_interval
        assert log.truncated_total == 8


# --------------------------------------------------------- live group runs


class TestCheckpointingLive:
    def test_retention_bounded_and_digests_agree(self):
        h = Harness(config=make_config("g1", checkpoint_interval=4, max_batch=1))
        client = h.add_client()
        for j in range(18):
            client.submit(("op", j))
        h.run(until=5.0)
        assert len(client.results) == 18
        checkpoints = [r.log.checkpoint for r in h.group.replicas]
        assert all(c is not None for c in checkpoints)
        top = max(c.cid for c in checkpoints)
        at_top = [c for c in checkpoints if c.cid == top]
        assert len(at_top) >= h.config.quorum
        # The digest quorum rule only works if identical prefixes produce
        # identical digests on every replica.
        assert len({c.state_digest for c in at_top}) == 1
        for replica in h.group.replicas:
            assert replica.log.max_retained <= 2 * 4
            assert replica.log.executed_count < 18
        assert h.monitor.counters["checkpoint.taken"] > 0

    def test_laggard_rejoins_via_checkpoint_transfer(self):
        h = Harness(config=make_config("g1", checkpoint_interval=4, max_batch=1))
        client = h.add_client()
        lagger = h.group.replicas[2]
        lagger.crash()
        for j in range(20):
            client.submit(("op", j))
        h.run(until=5.0)
        assert len(client.results) == 20
        # Peers truncated well past the laggard's cursor (0): the retained
        # suffix alone can no longer catch it up.
        assert all(r.log.horizon > 0 for r in h.group.replicas
                   if r is not lagger)
        lagger.recover()
        h.loop.run(until=20.0)
        reference = h.group.replicas[0]
        assert lagger.log.next_execute == reference.log.next_execute
        assert lagger.app.executed == reference.app.executed
        assert lagger.log.tracker.snapshot() == reference.log.tracker.snapshot()
        assert h.monitor.counters["checkpoint.installed"] >= 1
        # The rejoined replica keeps the memory bound too.
        assert lagger.log.max_retained <= 2 * 4

    def test_truncated_log_answers_with_checkpoint_not_partial_suffix(self):
        h = Harness(config=make_config("g1", checkpoint_interval=4, max_batch=1))
        client = h.add_client()
        for j in range(10):
            client.submit(("op", j))
        h.run(until=5.0)
        r0 = h.group.replicas[0]
        horizon = r0.log.horizon
        assert horizon > 0
        sent = []
        r0.send = lambda dst, payload, **kw: sent.append((dst, payload))
        # A request from behind the horizon gets checkpoint + full retained
        # suffix — never a suffix with a silent gap.
        r0._handle_state_request("g1/r3", StateRequest("g1", "g1/r3", 0))
        __, response = sent[-1]
        assert response.checkpoint is not None
        assert response.checkpoint.cid == horizon - 1
        assert response.horizon == horizon
        assert all(cid >= horizon for cid, __ in response.batches)
        assert [cid for cid, __ in response.batches] == list(
            range(horizon, r0.log.next_execute))
        # At or above the horizon, no checkpoint is attached.
        r0._handle_state_request("g1/r3", StateRequest("g1", "g1/r3", horizon))
        __, response = sent[-1]
        assert response.checkpoint is None


# ------------------------------------------------- digest quorum unit tests


class TestCheckpointQuorum:
    def _fresh_replica(self):
        h = Harness(config=make_config("g1", checkpoint_interval=4))
        r0 = h.group.replicas[0]
        r0.send = lambda dst, payload, **kw: None
        r0._broadcast = lambda payload, **kw: None
        return h, r0

    def _response(self, sender: str, ckpt: CheckpointData) -> StateResponse:
        return StateResponse(
            group="g1", sender=sender, from_cid=0,
            next_cid=ckpt.cid + 1, regency=0, batches=(),
            checkpoint=ckpt, horizon=ckpt.cid + 1,
        )

    def test_f_plus_one_matching_digests_install(self):
        h, r0 = self._fresh_replica()
        state = (("op", 0), ("op", 1))
        ckpt = make_checkpoint(7, state, (("c0", 2),),
                               h.config.replicas, h.config.f)
        r0._request_state()
        r0._handle_state_response("g1/r1", self._response("g1/r1", ckpt))
        assert r0.log.next_execute == 0  # one vote is not enough
        r0._handle_state_response("g1/r2", self._response("g1/r2", ckpt))
        assert r0.log.next_execute == 8
        assert r0.app.executed == [("op", 0), ("op", 1)]
        assert r0.log.tracker.last("c0") == 2
        assert h.monitor.counters["checkpoint.installed"] == 1

    def test_forged_payload_cannot_poison_the_vote(self):
        # A Byzantine peer echoes the *correct* digest over forged state;
        # the payload re-hash must disqualify its vote, leaving the honest
        # checkpoint one vote short.
        h, r0 = self._fresh_replica()
        honest = make_checkpoint(7, (("op", 0),), (("c0", 1),),
                                 h.config.replicas, h.config.f)
        forged = CheckpointData(
            cid=honest.cid, state_digest=honest.state_digest,
            state=(("evil", 666),), tracker=honest.tracker,
            view_replicas=honest.view_replicas, view_f=honest.view_f,
        )
        r0._request_state()
        r0._handle_state_response("g1/r1", self._response("g1/r1", honest))
        r0._handle_state_response("g1/r3", self._response("g1/r3", forged))
        assert r0.log.next_execute == 0
        assert r0.app.executed == []
        assert h.monitor.counters["checkpoint.bad_digest"] == 1
        assert h.monitor.counters["checkpoint.installed"] == 0

    def test_highest_verified_checkpoint_wins(self):
        h, r0 = self._fresh_replica()
        low = make_checkpoint(3, (("op", 0),), (("c0", 1),),
                              h.config.replicas, h.config.f)
        high = make_checkpoint(7, (("op", 0), ("op", 1)), (("c0", 2),),
                               h.config.replicas, h.config.f)
        r0._request_state()
        r0._handle_state_response("g1/r1", self._response("g1/r1", high))
        r0._handle_state_response("g1/r2", self._response("g1/r2", high))
        r0._handle_state_response("g1/r3", self._response("g1/r3", low))
        assert r0.log.next_execute == 8
        assert r0.app.executed == [("op", 0), ("op", 1)]

    def test_stale_checkpoint_not_installed(self):
        h, r0 = self._fresh_replica()
        # Locally execute past the offered checkpoint first.
        for cid in range(10):
            r0.log.record_decision(cid, (req(cid + 1),))
        list(r0.log.ready_batches())
        stale = make_checkpoint(7, (("op", 0),), (("c0", 8),),
                                h.config.replicas, h.config.f)
        r0._request_state()
        r0._handle_state_response("g1/r1", self._response("g1/r1", stale))
        r0._handle_state_response("g1/r2", self._response("g1/r2", stale))
        assert r0.log.next_execute == 10
        assert h.monitor.counters["checkpoint.installed"] == 0

    def test_a_late_checkpoint_does_not_reactivate_a_retired_joiner(self):
        # A joiner still in state transfer is retired; the f+1 answers to
        # its earlier request arrive afterwards, as stragglers, and elect a
        # verified checkpoint whose view includes it.  The install adopts
        # that view but must leave the replica inactive: the view-agreement
        # invariant counts every active replica.
        h, r0 = self._fresh_replica()
        r0.view = View(("g1/r1", "g1/r2", "g1/r3", "g1/r4"), h.config.f)
        r0.active = False
        r0.decommission()
        ckpt = make_checkpoint(7, (("op", 0),), (("c0", 1),),
                               h.config.replicas, h.config.f)
        r0._handle_state_response("g1/r1", self._response("g1/r1", ckpt))
        r0._handle_state_response("g1/r2", self._response("g1/r2", ckpt))
        assert r0.log.next_execute == 8
        assert r0.view.replicas == h.config.replicas
        assert not r0.active


# --------------------------------------------- composition with reconfig


class LateJoinerHarness(Harness):
    """A group with checkpointing, a cold standby replica, and an admin."""

    def __init__(self, **kwargs):
        super().__init__(
            config=make_config("g1", checkpoint_interval=4, max_batch=1),
            **kwargs,
        )
        initial = View(self.config.replicas, self.config.f)
        self.joiner = Replica(
            name="g1/r4",
            config=self.config,
            runtime=self.runtime,
            registry=self.registry,
            app=EchoApplication(),
            view=initial,
        )
        self.network.register(self.joiner)
        self.admin = ViewManager("g1", self.runtime, initial,
                                 self.registry)
        self.network.register(self.admin)


def test_joiner_behind_truncated_reconfig_installs_checkpoint():
    """The Reconfig that admitted the joiner is itself truncated away; the
    joiner must learn the membership from the checkpoint's carried view."""
    h = LateJoinerHarness()
    client = h.add_client()
    for j in range(5):
        client.submit(("pre", j))
    h.group.start()  # the joiner stays down
    h.loop.run(until=2.0)
    assert len(client.results) == 5

    new_members = ("g1/r0", "g1/r1", "g1/r2", "g1/r4")
    confirmed = []
    h.admin.reconfigure(new_members, callback=lambda r: confirmed.append(r))
    h.loop.run(until=6.0)
    assert confirmed, "reconfiguration was not acknowledged"
    client.proxy.update_replicas(new_members, h.config.f)
    for j in range(10):
        client.submit(("post", j))
    h.loop.run(until=12.0)
    assert len(client.results) == 15
    # The prefix containing the Reconfig is gone from every live member.
    for replica in h.group.replicas[:3]:
        assert replica.log.horizon > 6

    h.joiner.start()
    h.loop.run(until=30.0)
    assert h.joiner.active
    assert h.joiner.view.replicas == new_members
    reference = h.group.replicas[0]
    assert h.joiner.app.executed == reference.app.executed
    assert h.monitor.counters["checkpoint.installed"] >= 1
    assert h.joiner.log.max_retained <= 2 * 4

    # The joiner participates in ordering new traffic.
    for j in range(4):
        client.submit(("after", j))
    h.loop.run(until=40.0)
    assert len(client.results) == 19
    assert h.joiner.app.executed == reference.app.executed


def test_checkpoint_install_races_concurrent_reconfig():
    """A second Reconfig is ordered while the joiner is still installing a
    checkpoint carrying the first; the suffix replay must apply it."""
    h = LateJoinerHarness()
    client = h.add_client()
    for j in range(5):
        client.submit(("pre", j))
    h.group.start()
    h.loop.run(until=2.0)

    members_a = ("g1/r0", "g1/r1", "g1/r2", "g1/r4")
    h.admin.reconfigure(members_a)
    h.loop.run(until=6.0)
    client.proxy.update_replicas(members_a, h.config.f)
    for j in range(10):
        client.submit(("mid", j))
    h.loop.run(until=12.0)

    # Start the joiner and immediately order another membership change —
    # the install and the Reconfig race on the runtime clock.
    h.joiner.start()
    members_b = ("g1/r0", "g1/r1", "g1/r3", "g1/r4")
    h.admin.reconfigure(members_b)
    h.loop.run(until=30.0)
    client.proxy.update_replicas(members_b, h.config.f)
    for j in range(4):
        client.submit(("after", j))
    h.loop.run(until=45.0)

    assert len(client.results) == 19
    assert h.joiner.active
    assert h.joiner.view.replicas == members_b
    reference = h.group.replicas[0]
    assert h.joiner.app.executed == reference.app.executed
    assert reference.view.replicas == members_b


# ------------------------------------------------ composition with relaying


class BoundaryProbeApp(ByzCastApplication):
    """Records, at each snapshot, what the batch just flushed and what (if
    anything) is still buffered for relay."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.probes = []
        self._flushed = 0

    def end_batch(self, ctx):
        self._flushed = sum(len(w) for w in self._relay_buffers.values())
        super().end_batch(ctx)

    def snapshot(self):
        buffered = sum(len(w) for w in self._relay_buffers.values())
        self.probes.append((self._flushed, buffered))
        return super().snapshot()


def test_relays_leave_before_the_checkpoint_and_a_restored_joiner_relays():
    """Relays are flushed at the batch boundary, before the snapshot, so the
    relay buffer is never checkpoint state; a joiner restored from such a
    checkpoint relays (h1) and merges (g1) like an incumbent.  The joiner
    is last in h1's view, outside regency 0's quorum, so it relays live
    once the leader's crash moves the quorum over it."""
    tree = OverlayTree.two_level(["g1", "g2"])
    probes = {name: BoundaryProbeApp for name in make_config("h1").replicas}
    dep = ByzCastDeployment(tree, costs=FAST_COSTS, request_timeout=0.5,
                            checkpoint_interval=4, max_batch=2, seed=7,
                            app_overrides={"h1": probes})
    client = dep.add_client("c1", retransmit_timeout=0.5)

    def burst(tag, count, until):
        for j in range(count):
            client.amulticast(destination("g1", "g2"), payload=(tag, j))
        dep.run(until=until)
        dep.runtime.run_until(lambda: client.pending() == 0, timeout=30.0)

    burst("pre", 30, until=3.0)
    for app in dep.apps("h1"):
        assert app.probes, "no checkpoint was taken"
        assert all(buffered == 0 for __, buffered in app.probes)
        # Every h1 batch here relays, the checkpointed ones included.
        assert all(flushed > 0 for flushed, __ in app.probes)
    assert all(r.log.horizon > 0 for gid in ("h1", "g1")
               for r in dep.groups[gid].replicas)

    controller = elasticity_controller(dep)
    controller.join("h1")
    controller.join("g1")
    dep.runtime.run_until(controller.idle, timeout=30.0)
    relayer = dep.groups["h1"].replica("h1/r4")
    merger = dep.groups["g1"].replica("g1/r4")
    dep.runtime.run_until(lambda: relayer.active and merger.active,
                          timeout=30.0)
    assert relayer.active and merger.active
    assert dep.monitor.counters["checkpoint.installed"] >= 2

    relayed_by_joiner = []
    send = relayer.send

    def spy(dst, payload):
        if isinstance(payload, Request) and isinstance(payload.command,
                                                       RelayBatch):
            relayed_by_joiner.append(dst)
        send(dst, payload)

    relayer.send = spy
    assert not relayer.in_quorum()
    dep.groups["h1"].replica("h1/r0").crash()
    burst("post", 10, until=dep.runtime.clock.now + 3.0)
    assert relayer.in_quorum()
    assert relayer.app._relay_buffers == {}
    assert any(dst.startswith("g1/") for dst in relayed_by_joiner)
    expected = [("pre", j) for j in range(30)] + [("post", j) for j in range(10)]
    for gid in ("g1", "g2"):
        for replica in dep.groups[gid].replicas:
            if replica.active:  # g1/r3 was swapped out
                assert [m.payload for m in
                        replica.app.delivered_messages()] == expected
    assert merger in dep.groups["g1"].replicas


def laggard_run():
    """A ``g1`` replica sleeps through several checkpoints of global
    traffic, installs a peer checkpoint, then checkpoints on its own.
    Returns the checkpoint every ``g1`` replica ends on."""
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            costs=FAST_COSTS, request_timeout=0.5,
                            checkpoint_interval=4, max_batch=2, seed=3)
    client = dep.add_client("c1", retransmit_timeout=0.5)
    lagger = dep.groups["g1"].replica("g1/r2")

    def burst(tag, count, until):
        for j in range(count):
            dst = destination("g1", "g2") if j % 3 else destination("g1")
            client.amulticast(dst, payload=(tag, j))
        dep.run(until=until)
        dep.runtime.run_until(lambda: client.pending() == 0, timeout=30.0)

    lagger.crash()
    burst("missed", 30, until=3.0)
    peers = [r for r in dep.groups["g1"].replicas if r is not lagger]
    assert all(r.log.horizon > 0 for r in peers)
    lagger.recover()
    dep.runtime.run_until(
        lambda: lagger.log.next_execute == peers[0].log.next_execute,
        timeout=30.0)
    assert dep.monitor.counters["checkpoint.installed"] >= 1
    installed_at = lagger.log.checkpoint.cid
    burst("after", 20, until=dep.runtime.clock.now + 3.0)
    dep.run(until=dep.runtime.clock.now + 1.0)
    checkpoints = [r.log.checkpoint for r in dep.groups["g1"].replicas]
    assert lagger.log.checkpoint.cid > installed_at, "no checkpoint of its own"
    assert dep.monitor.counters["checkpoint.bad_digest"] == 0
    return checkpoints


def test_a_restored_replica_checkpoints_to_the_digest_of_its_peers():
    """``restore`` reseeds the running sequence digests: the laggard's next
    own checkpoint must be one its peers would vouch for — and the digests
    must not depend on whether the identity memos are switched on."""
    checkpoints = laggard_run()
    assert len({c.cid for c in checkpoints}) == 1
    assert len({c.state_digest for c in checkpoints}) == 1
    assert len({c.state for c in checkpoints}) == 1
    with caching_disabled():
        uncached = laggard_run()
    assert ([(c.cid, c.state_digest) for c in uncached]
            == [(c.cid, c.state_digest) for c in checkpoints])


@pytest.mark.parametrize("forge", [swapped, doubled, first_altered])
@pytest.mark.parametrize("sequence", ["acted"])
def test_reordered_or_rewritten_history_is_not_installed(sequence, forge):
    """Insertion order is the canonical order, so it must be bound: a
    Byzantine peer claiming the honest digest over a state whose acted ids
    are permuted, duplicated, or altered before the previous checkpoint is
    disqualified, and the honest voucher stays one short."""
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            costs=FAST_COSTS, request_timeout=0.5,
                            checkpoint_interval=4, max_batch=2, seed=5)
    client = dep.add_client("c1", retransmit_timeout=0.5)
    lagger = dep.groups["g1"].replica("g1/r2")
    lagger.crash()
    for j in range(24):
        client.amulticast(destination("g1", "g2"), payload=("m", j))
    dep.run(until=3.0)
    dep.runtime.run_until(lambda: client.pending() == 0, timeout=30.0)
    honest = dep.groups["g1"].replica("g1/r0").log.checkpoint
    assert honest.cid >= 7, "the first id must predate the last checkpoint"
    forged = reshaped(honest, **{sequence: forge})

    lagger.recover()    # opens a state round; the answers are ours
    lagger._handle_state_response("g1/r0", state_response("g1/r0", honest))
    lagger._handle_state_response("g1/r3", state_response("g1/r3", forged))
    assert lagger.log.next_execute == 0
    assert lagger.app.delivered_messages() == []
    assert dep.monitor.counters["checkpoint.bad_digest"] == 1
    assert dep.monitor.counters["checkpoint.installed"] == 0
    lagger._handle_state_response("g1/r1", state_response("g1/r1", honest))
    assert lagger.log.next_execute == honest.cid + 1
    assert len(lagger.app.delivered_messages()) == len(honest.state[1])
