"""The checkpoint collaborator on its own: no deployment, no network.

Take / digest / verify / vote of :class:`repro.bcast.checkpoint.Checkpointer`
over a hand-driven application — the whole-state digest of an application
without the incremental hook, and the running sequence digests of
``ByzCastApplication``: what they bind (order, multiplicity, every old
item) and what a checkpoint costs (nothing that grows with history).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import canonical
from repro.bcast.app import EchoApplication
from repro.bcast.checkpoint import Checkpointer
from repro.bcast.log import DecisionLog
from repro.bcast.messages import CheckpointData, Request
from repro.bcast.reconfig import View
from repro.core.node import ByzCastApplication
from repro.core.tree import OverlayTree
from repro.crypto.cache import caching_disabled
from repro.crypto.digest import SequenceDigest, digest
from repro.crypto.keys import KeyRegistry
from repro.env import Monitor
from tests.helpers import (FakeReplica, configs_for, doubled, execute,
                           first_altered, relayed, replica_names, reshaped,
                           state_response, swapped, wire_for)

VIEW = View(replica_names("g1"), 1)


def vouch(ckpt: CheckpointData, *senders: str):
    return {sender: state_response(sender, ckpt) for sender in senders}


# ------------------------------------------------- whole-state applications


class TestWholeStateDigest:
    def make(self, interval: int = 4):
        app, monitor = EchoApplication(), Monitor()
        return app, monitor, Checkpointer("g1/r0", app, DecisionLog(interval),
                                          monitor)

    def test_take_records_truncates_and_digests_the_whole_state(self):
        app, monitor, checkpoints = self.make()
        for cid in range(4):
            checkpoints.log.record_decision(cid, (Request("g1", "c0", cid + 1,
                                                          ("op", cid)),))
            app.executed.append(("op", cid))
        list(checkpoints.log.ready_batches())
        assert [cid for cid in range(8) if checkpoints.due(cid)] == [3, 7]
        ckpt = checkpoints.take(3, {"c0": 4}, VIEW)
        assert checkpoints.log.checkpoint is ckpt
        assert checkpoints.log.executed_count == 0
        assert monitor.counters["checkpoint.taken"] == 1
        # No incremental hook: the digest is over the state itself.
        assert ckpt.state_digest == digest(
            ("ckpt", 3, ckpt.state, (("c0", 4),), VIEW.replicas, VIEW.f))
        assert checkpoints.verified(ckpt)
        assert not checkpoints.verified(replace(ckpt, state=(("evil", 1),)))
        assert not checkpoints.verified(replace(ckpt, tracker=(("c0", 5),)))
        assert not checkpoints.verified(replace(ckpt, view_f=2))

    def test_an_app_without_snapshot_never_checkpoints(self):
        class Bare:
            pass

        checkpoints = Checkpointer("g1/r0", Bare(), DecisionLog(4), Monitor())
        assert not checkpoints.enabled and not checkpoints.due(3)
        assert checkpoints.elect({}, 1) is None

    def test_elect_needs_f_plus_one_verified_vouchers_and_takes_the_highest(
            self):
        __, monitor, checkpoints = self.make()
        source = self.make()[2]
        source.app.executed = [("op", 0)]
        low = source.take(3, {"c0": 1}, VIEW)
        source.app.executed = [("op", 0), ("op", 1)]
        high = source.take(7, {"c0": 2}, VIEW)
        assert checkpoints.elect(vouch(high, "g1/r1"), 1) is None
        assert checkpoints.elect(vouch(high, "g1/r1", "g1/r2"), 1) is high
        mixed = {**vouch(low, "g1/r1", "g1/r2"), **vouch(high, "g1/r3")}
        assert checkpoints.elect(mixed, 1) is low
        mixed["g1/r2"] = state_response("g1/r2", high)
        assert checkpoints.elect(mixed, 1) is high
        # The right digest over forged state does not count as a voucher.
        forged = replace(high, state=(("evil", 666),))
        assert checkpoints.elect(
            {**vouch(high, "g1/r1"), **vouch(forged, "g1/r3")}, 1) is None
        assert monitor.counters["checkpoint.bad_digest"] == 1
        # Behind the cursor there is nothing to adopt.
        checkpoints.log.next_execute = 8
        assert checkpoints.elect(vouch(high, "g1/r1", "g1/r2"), 1) is None


# ------------------------------------------------ the ByzCast running digests


class Node:
    """A ``g1`` replica of the paper tree driven by hand: local messages
    enter directly, global ones arrive relayed by f+1 replicas of ``h2``."""

    def __init__(self, interval: int = 4) -> None:
        tree = OverlayTree.paper_tree()
        configs = configs_for(tree)
        self.registry = KeyRegistry()
        self.app = ByzCastApplication("g1", tree, configs, self.registry)
        self.replica = FakeReplica("g1/r0", configs["g1"])
        self.checkpoints = Checkpointer("g1/r0", self.app,
                                        DecisionLog(interval),
                                        self.replica.monitor)
        self.seq = 0
        self.relays = 0
        self.cid = -1

    def run_interval(self, messages: int = 6) -> CheckpointData:
        """Act on ``messages`` new ids (half relayed), then checkpoint."""
        for index in range(messages):
            self.seq += 1
            if index % 2:
                wire = wire_for("client", self.seq,
                                ("g1", "g2"))
                for parent in ("h2/r0", "h2/r1"):
                    execute(self.app, self.replica,
                            relayed("g1", parent, self.seq, wire,
                                    index=self.relays))
                self.relays += 1
            else:
                wire = wire_for("client", self.seq, ("g1",))
                execute(self.app, self.replica,
                        Request("g1", "client", self.seq, wire))
        self.cid += self.checkpoints.log.checkpoint_interval
        return self.checkpoints.take(self.cid, {"client": self.seq}, VIEW)


class TestSequenceDigests:
    def test_live_summary_is_what_a_receiver_recomputes(self):
        node, receiver = Node(), Node()
        for __ in range(3):
            ckpt = node.run_interval()
            live = node.app.state_summary(ckpt.state)
            assert receiver.app.state_summary(ckpt.state) == live
        acted = ckpt.state[1]
        assert len(acted) == 18
        # The summary carries a digest where the state carries the ids.
        assert live[1] == SequenceDigest(acted).value()
        assert receiver.checkpoints.verified(ckpt)

    @pytest.mark.parametrize("forge", [swapped, doubled, first_altered])
    @pytest.mark.parametrize("sequence", ["acted"])
    def test_order_multiplicity_and_every_old_id_are_bound(self, sequence,
                                                           forge):
        node, receiver = Node(), Node()
        node.run_interval()
        honest = node.run_interval()   # ids[0] predates the last checkpoint
        forged = reshaped(honest, **{sequence: forge})
        assert forged.state != honest.state
        assert forged.state_digest == honest.state_digest
        assert not receiver.checkpoints.verified(forged)
        votes = {**vouch(honest, "g1/r1"), **vouch(forged, "g1/r3")}
        assert receiver.checkpoints.elect(votes, 1) is None
        assert receiver.replica.monitor.counters["checkpoint.bad_digest"] == 1

    @pytest.mark.parametrize("state", [
        None, (), ("byzcast",), ("byzcast", 1, 2, 3, 4, 5),
        ("byzcast", (), ((), 1, ()), None, (), (0, (), (), ())),
        ("byzcast", (object(),), None, None, (), (0, (), (), ())),
    ])
    def test_a_state_of_any_shape_is_a_forgery_not_a_crash(self, state):
        node, receiver = Node(), Node()
        honest = node.run_interval()
        assert not receiver.checkpoints.verified(replace(honest, state=state))

    def test_restore_reseeds_the_running_digests(self):
        node, restored = Node(), Node()
        first = node.run_interval()
        restored.app.restore(first.state)
        restored.seq, restored.cid = node.seq, node.cid
        restored.relays = node.relays
        # the FIFO tracker travels with a checkpoint
        restored.replica.ordered = dict(node.replica.ordered)
        assert ([m.mid for m in restored.app.delivered_messages()]
                == [m.mid for m in node.app.delivered_messages()])
        ahead, behind = node.run_interval(), restored.run_interval()
        assert behind.state == ahead.state
        assert behind.state_digest == ahead.state_digest

    def test_digests_do_not_depend_on_the_memos(self):
        with_memos = [Node().run_interval().state_digest for __ in range(2)]
        with caching_disabled():
            node = Node()
            without = node.run_interval()
            assert Node().checkpoints.verified(without)
        assert with_memos == [without.state_digest] * 2


class TestCheckpointCost:
    """Counts, not timings: what the k-th checkpoint encodes and hashes."""

    def test_checkpoint_work_is_flat_in_history(self, monkeypatch):
        calls = {"encode": 0, "hash": 0}
        encode_into, add = canonical.encode_into, SequenceDigest.add

        def counted_encode(out, value):
            calls["encode"] += 1
            return encode_into(out, value)

        def counted_add(self, item_digest):
            calls["hash"] += 1
            return add(self, item_digest)

        monkeypatch.setattr(canonical, "encode_into", counted_encode)
        monkeypatch.setattr(SequenceDigest, "add", counted_add)
        node, per_interval = Node(), 6
        in_take, in_interval = [], []
        take = node.checkpoints.take

        def counted_take(*args):
            start = dict(calls)
            result = take(*args)
            in_take.append({k: calls[k] - start[k] for k in calls})
            return result

        node.checkpoints.take = counted_take
        for __ in range(10):
            before = dict(calls)
            node.run_interval(per_interval)
            in_interval.append({k: calls[k] - before[k] for k in calls})
        assert len(in_take) == 10
        assert len(node.app._acted) == 10 * per_interval
        # The checkpoint itself feeds no sequence digest and encodes only
        # the bounded rest: the same count at every boundary.
        assert all(c["hash"] == 0 for c in in_take)
        assert len({c["encode"] for c in in_take}) == 1
        # Over a whole interval — execution included — the work is one
        # update per acted id.
        assert all(c["hash"] == per_interval for c in in_interval)
        assert len({c["encode"] for c in in_interval}) == 1
        assert in_interval[-1]["encode"] <= 40 * per_interval
