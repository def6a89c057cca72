"""Unit tests for the ByzCast application (Algorithm 1 node logic)."""

from __future__ import annotations

import pytest

from repro.bcast.app import ExecutionContext
from repro.bcast.messages import Request
from repro.bcast.reconfig import admin_identity
from repro.core.invariants import check_prefix_order
from repro.core.messages import (
    DeliveryQuery, MembershipUpdate, MulticastReply, RelayAck, RelayBatch,
    RelayCertificate, TreeUpdate, WireMulticast,
)
from repro.core.node import ByzCastApplication
from repro.core.relay import QuorumMerge
from repro.core.tree import OverlayTree
from repro.crypto.keys import KeyRegistry
from repro.sim.events import EventLoop
from repro.types import ClientId, GroupId, MessageId, MulticastMessage
from tests.helpers import (
    FAST_COSTS, FakeReplica, acks, configs_for, execute, relayed, wire_for,
)


@pytest.fixture
def setup():
    tree = OverlayTree.paper_tree()
    configs = configs_for(tree)
    registry = KeyRegistry()
    loop = EventLoop()

    def make(group_id, replica_name=None, **kwargs):
        app = ByzCastApplication(group_id, tree, configs, registry, **kwargs)
        replica = FakeReplica(replica_name or f"{group_id}/r0",
                              configs[group_id])
        return app, replica

    return tree, configs, registry, loop, make


class TestDirectSubmissions:
    def test_local_message_delivered_and_acked(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1", on_deliver=lambda m, ctx: ("value", m.payload))
        wire = wire_for("client", 1, ("g1",))
        result = execute(app, replica, Request("g1", "client", 1, wire))
        # The ordered reply carries the a-delivery; nothing else is sent.
        assert result == ("delivered", ("value", ("p",)))
        assert [m.payload for m in app.delivered_messages()] == [("p",)]
        assert replica.sent == []

    def test_wrong_entry_group_rejected(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1", "g2"))  # lca is h2
        result = execute(app, replica, Request("g1", "client", 1, wire))
        assert result[0] == "error"
        assert app.delivered_messages() == []

    def test_a_forged_origin_is_rejected(self, setup):
        """A wire carries no signature: a client that names another client
        as its origin is refused, and the origin's own message under the
        same seq still delivers."""
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        forged = wire_for("client", 1, ("g1",), payload=("forged",))
        result = execute(app, replica, Request("g1", "mallory", 1, forged))
        assert result == ("error", "submitted by someone other than its origin")
        assert app.delivered_messages() == []
        own = wire_for("client", 1, ("g1",))
        assert execute(app, replica, Request("g1", "client", 1, own)) == (
            "delivered", None)
        assert [m.payload for m in app.delivered_messages()] == [("p",)]

    def test_signature_must_match_sender(self):
        """The request's signature is the only proof of a wire's origin:
        one signed by someone other than its claimed sender is refused at
        admission, and one its signer submits under its own name is refused
        as a foreign submission; nothing delivers."""
        from repro.core.deployment import ByzCastDeployment
        from repro.crypto.signatures import Signature, sign

        dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                                costs=FAST_COSTS)
        mallory = dep.add_client("mallory")
        wire = wire_for("client", 1, ("g1",))
        mallory._proxy("g1").submit(wire)
        for signer in ("mallory", "client"):
            unsigned = Request("g1", "client", 1, wire)
            tag = sign(dep.registry, "mallory", unsigned.signed_part()).tag
            forged = unsigned.with_signature(Signature(signer, tag))
            for replica in dep.groups["g1"].replicas:
                mallory.send(replica.name, forged)
        dep.run(until=5.0)
        counters = dep.monitor.counters
        assert counters["request.unsigned"] == 4       # signer != sender
        assert counters["request.bad_signature"] == 4  # not client's tag
        assert counters["byzcast.foreign_submission"] == 4
        assert all(app.delivered_messages() == [] for app in dep.apps("g1"))

    def test_a_wire_submitted_first_by_another_sender_is_rejected(self, setup):
        """A replica that saw a client's wire cannot order it as its
        own request first: it would take the ``("delivered", r)`` reply and
        leave the client's own copy a duplicate answered ``("ack",)``."""
        tree, configs, registry, loop, make = setup
        app, replica = make("g1", on_deliver=lambda m, ctx: ("value", 1))
        wire = wire_for("client", 1, ("g1",))
        stolen = execute(app, replica, Request("g1", "g1/r3", 1, wire))
        assert stolen == ("error", "submitted by someone other than its origin")
        assert app.delivered_messages() == []
        own = execute(app, replica, Request("g1", "client", 1, wire))
        assert own == ("delivered", ("value", 1))
        assert replica.monitor.counters["byzcast.foreign_submission"] == 1

    def test_bad_destinations_rejected(self, setup):
        """Including what only a Byzantine client sends: a decoded ``dst``
        that is no tuple, or holds an unhashable or non-string element, is
        refused, not a crash of the executing replica."""
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        for dst in ((), ("g1", "g1"), ("g9",), ("g2", "g1"), ["g1"],
                    frozenset({"g1"}), ("g1", 1), (["g1"],), 5, None):
            wire = WireMulticast(sender="c", seq=1, dst=dst, payload=())
            result = execute(app, replica, Request("g1", "c", 1, wire))
            assert result[0] == "error", dst
        assert app.delivered_messages() == []

    @pytest.mark.parametrize("payload", [["x"], ("x", ["y"]), ({"k": 1},)])
    def test_an_unhashable_payload_is_refused(self, setup, payload):
        """What only a Byzantine client sends: a payload that holds a list
        or a dict has no dedup key, so it is refused as an invalid wire
        instead of raising out of ``execute``; the next wire delivers."""
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = WireMulticast(sender="c", seq=1, dst=("g1",), payload=payload)
        result = execute(app, replica, Request("g1", "c", 1, wire))
        assert result == ("error", "unhashable content")
        assert replica.monitor.counters["byzcast.invalid_wire"] == 1
        own = wire_for("c", 2, ("g1",))
        assert execute(app, replica, Request("g1", "c", 2, own)) == (
            "delivered", None)

    def test_an_unhashable_payload_decoded_from_a_frame_is_refused(
            self, setup):
        """Both codecs decode lists, so such a wire arrives over TCP."""
        from repro.env import wire as binary

        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        sent = Request("g1", "c", 1, WireMulticast("c", 1, ("g1",), ["x"]))
        decoded = binary.decode(binary.encode(sent))
        assert decoded.command.payload == ["x"]
        assert execute(app, replica, decoded) == (
            "error", "unhashable content")
        assert app.delivered_messages() == []

    def test_non_multicast_command_rejected(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        result = execute(app, replica, Request("g1", "c", 1, ("raw",)))
        assert result == ("error", "not a multicast")


class TestReplyPaths:
    """Each member of the current regency's quorum answers the client once
    per group it a-delivers in: an entry destination through the ordered
    reply (the local case is ``test_local_message_delivered_and_acked``), a
    relayed destination through a ``MulticastReply``, which the others keep
    for a ``DeliveryQuery``; an entry group that is not a destination
    keeps ``("ack",)`` for a retransmission and does not send it live
    (``sends_reply``).  A child acknowledges a relay stream, not a copy."""

    @staticmethod
    def multicast_replies(replica):
        return [(dst, p) for dst, p in replica.sent
                if isinstance(p, MulticastReply)]

    def test_aux_entry_group_acks_and_relays(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("h2", "h2/r0")
        wire = wire_for("client", 1, ("g1", "g2"))
        request = Request("h2", "client", 1, wire)
        assert execute(app, replica, request) == ("ack",)
        assert not app.sends_reply(request, ("ack",))
        assert self.multicast_replies(replica) == []
        assert {dst.split("/")[0] for dst, __ in replica.sent} == {"g1", "g2"}

    def test_baseline_root_entry_acks(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("h1", "h1/r0", accept_any_ancestor=True)
        wire = wire_for("client", 1, ("g1",))
        request = Request("h1", "client", 1, wire)
        assert execute(app, replica, request) == ("ack",)
        assert not app.sends_reply(request, ("ack",))
        assert self.multicast_replies(replica) == []

    def test_every_other_result_is_sent_live(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1",))
        request = Request("g1", "client", 1, wire)
        for result in (execute(app, replica, request), ("error", "x"),
                       ("ok", "membership", "g1", ())):
            assert app.sends_reply(request, result)

    def test_relayed_delivery_sends_a_multicast_reply(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1", on_deliver=lambda m, ctx: ("value", 7))
        wire = wire_for("client", 1, ("g1", "g2"))
        for parent in ("h2/r0", "h2/r1", "h2/r2"):
            assert execute(app, replica, relayed("g1", parent, 1, wire)) is None
        assert self.multicast_replies(replica) == [
            ("client", MulticastReply(group="g1", replica="g1/r0",
                                      sender="client", seq=1,
                                      result=("value", 7)))]
        # Every relayer is acked once the batch released, a late one's
        # copy again at once; each ack names the stream's next index.
        assert acks(replica) == [("h2/r0", 1), ("h2/r1", 1), ("h2/r2", 1),
                                 ("h2/r3", 1), ("h2/r2", 1)]
        assert {(ack.group, ack.parent, ack.sender) for __, ack in replica.sent
                if isinstance(ack, RelayAck)} == {("g1", "h2", "g1/r0")}

    def test_a_member_outside_the_quorum_keeps_its_multicast_reply(
            self, setup):
        """g1/r3 is outside regency 0's quorum (g1/r0 to g1/r2): it
        a-delivers and acknowledges like the others, and keeps its
        MulticastReply for a DeliveryQuery instead of sending it."""
        tree, configs, registry, loop, make = setup
        app, replica = make("g1", "g1/r3", on_deliver=lambda m, ctx: 7)
        wire = wire_for("client", 1, ("g1", "g2"))
        for parent in ("h2/r0", "h2/r1"):
            execute(app, replica, relayed("g1", parent, 1, wire))
        assert len(app.delivered_messages()) == 1
        assert self.multicast_replies(replica) == []
        assert acks(replica) != []
        assert app.answer("client", DeliveryQuery("g1", "client", 1)) == (
            MulticastReply(group="g1", replica="g1/r3", sender="client",
                           seq=1, result=7))

    def test_a_delivery_query_repeats_the_multicast_reply(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1", on_deliver=lambda m, ctx: ("value", 7))
        wire = wire_for("client", 1, ("g1", "g2"))
        for parent in ("h2/r0", "h2/r1"):
            execute(app, replica, relayed("g1", parent, 1, wire))
        (__, sent), = self.multicast_replies(replica)
        assert app.answer("client", DeliveryQuery("g1", "client", 1)) == sent
        # Only the origin asks, for this group, about a delivered message.
        assert app.answer("mallory", DeliveryQuery("g1", "client", 1)) is None
        assert app.answer("client", DeliveryQuery("g2", "client", 1)) is None
        assert app.answer("client", DeliveryQuery("g1", "client", 2)) is None
        assert app.answer("client", ("not", "a", "query")) is None

    def test_inner_target_lca_answers_in_its_reply_its_child_by_multicast_reply(
            self):
        tree = OverlayTree({"g2": "g1"}, ["g1", "g2"])
        configs = configs_for(tree)
        registry = KeyRegistry()
        wire = wire_for("client", 1, ("g1", "g2"))
        lca = ByzCastApplication("g1", tree, configs, registry)
        lca_replica = FakeReplica("g1/r0", configs["g1"])
        result = execute(lca, lca_replica, Request("g1", "client", 1, wire))
        assert result == ("delivered", None)
        assert self.multicast_replies(lca_replica) == []
        # relayed to regency 0's quorum of the child
        assert {dst for dst, __ in lca_replica.sent} == set(
            configs["g2"].replicas[:3])
        child = ByzCastApplication("g2", tree, configs, registry)
        child_replica = FakeReplica("g2/r0", configs["g2"])
        for parent in ("g1/r0", "g1/r1"):
            execute(child, child_replica, relayed("g2", parent, 1, wire))
        assert acks(child_replica) == [(relayer, 1) for relayer
                                       in configs["g1"].replicas]
        assert [(dst, p.group) for dst, p in
                self.multicast_replies(child_replica)] == [("client", "g2")]


class TestRelayedCopies:
    def test_relay_confirmed_after_f_plus_1_parents(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")  # parent of g1 is h2
        wire = wire_for("client", 1, ("g1", "g2"))
        execute(app, replica, relayed("g1", "h2/r0", 1, wire))
        assert app.delivered_messages() == []  # one copy is not enough
        execute(app, replica, relayed("g1", "h2/r1", 1, wire))
        assert [m.payload for m in app.delivered_messages()] == [("p",)]

    def test_root_relays_to_routed_children_only(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("h1", "h1/r0")
        wire = wire_for("client", 1, ("g2", "g3"))
        ctx = ExecutionContext(replica=replica, time=loop.now)
        app.execute(Request("h1", "client", 1, wire), ctx)
        assert replica.sent == []  # nothing leaves before the batch boundary
        app.end_batch(ctx)
        # The root forwards to h2 and h3 replicas (4 each), delivers nothing.
        assert {dst.split("/")[0] for dst, __ in replica.sent} == {"h2", "h3"}
        assert all(p.command == RelayBatch((wire,), 0) for __, p in replica.sent)
        assert app.delivered_messages() == []

    def test_middle_group_relays_only_reached_destinations(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("h2", "h2/r0")
        wire = wire_for("client", 1, ("g2", "g3"))
        for parent in ("h1/r0", "h1/r1"):
            execute(app, replica, relayed("h2", parent, 1, wire))
        targets = {dst.split("/")[0] for dst, p in replica.sent
                   if isinstance(p, Request)}
        assert targets == {"g2"}  # g3 is h3's business

    def test_duplicate_relays_act_once(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g2")
        wire = wire_for("client", 1, ("g2",))
        # Direct submission at lca == g2 (local message).
        execute(app, replica, Request("g2", "client", 1, wire))
        execute(app, replica, Request("g2", "client", 1, wire))
        assert len(app.delivered_messages()) == 1

    def test_replayed_wire_delivers_once_before_and_after_a_restore(
            self, setup):
        """The acted ids are the only dedup state: a wire that comes back
        — resubmitted, or relayed again — is a-delivered exactly once, by
        the replica that saw it first and by one restored from it."""
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        local = wire_for("client", 1, ("g1",))
        relay = wire_for("client", 2, ("g1", "g2"))

        def replay(target, target_replica, seq):
            execute(target, target_replica,
                    Request("g1", "client", seq, local))
            for parent in ("h2/r0", "h2/r1", "h2/r2"):
                execute(target, target_replica,
                        relayed("g1", parent, seq, relay))

        replay(app, replica, 1)
        replay(app, replica, 2)
        assert [m.mid.seq for m in app.delivered_messages()] == [1, 2]
        restored, restored_replica = make("g1", "g1/r1")
        restored.restore(app.snapshot())
        restored_replica.ordered = dict(replica.ordered)  # the FIFO tracker
        assert [m.mid.seq for m in restored.delivered_messages()] == [1, 2]
        replay(restored, restored_replica, 3)
        assert [m.mid.seq for m in restored.delivered_messages()] == [1, 2]
        assert not [p for __, p in restored_replica.sent
                    if isinstance(p, MulticastReply)]
        assert not hasattr(app, "_a_delivered")

    def test_one_shared_wire_is_one_delivered_message_object(self, setup):
        """``to_message()`` is built once per wire: the 3f+1 replicas that
        execute a wire shared by reference a-deliver the same (frozen)
        message object, equal to one built without the memo; deliveries a
        restore rebuilds from acted ids are equal, from their own wires."""
        tree, configs, registry, loop, make = setup
        wire = wire_for("client", 1, ("g1",))
        assert wire.to_message() is wire.to_message()
        assert wire.to_message() == MulticastMessage(
            MessageId(ClientId("client"), 1), frozenset({GroupId("g1")}),
            ("p",))
        apps = []
        for name in configs["g1"].replicas:
            app, replica = make("g1", name)
            execute(app, replica, Request("g1", "client", 1, wire))
            apps.append(app)
        assert len(apps) == 4
        for app in apps:
            assert app.delivered_messages()[0] is wire.to_message()
        restored, __ = make("g1", "g1/r1")
        restored.restore(apps[0].snapshot())
        assert restored.delivered_messages() == [wire.to_message()]
        assert restored.delivered_messages()[0] is not wire.to_message()

    def test_wire_built_from_a_message_carries_that_message(self):
        """A client's wire shares the message it was built from, so the
        replicas a-delivering it build no second copy in the process."""
        message = MulticastMessage(MessageId(ClientId("client"), 1),
                                   frozenset({GroupId("g1")}), ("p",))
        wire = WireMulticast.from_message(message)
        assert wire.to_message() is message
        # a payload that is not a plain tuple is normalised, not shared
        listed = MulticastMessage(message.mid, message.dst, ["p"])
        assert WireMulticast.from_message(listed).to_message() == message

    def test_relay_from_nonparent_is_not_counted_as_relay(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1", "g2"))
        # h3 replicas are NOT g1's parent: a bare wire from one is a direct
        # submission and rejected (g1 is not the lca) ...
        result = execute(app, replica, Request("g1", "h3/r0", 1, wire))
        assert result[0] == "error"
        # ... and so is one from a parent replica: relays are RelayBatches.
        result = execute(app, replica, Request("g1", "h2/r0", 1, wire))
        assert result[0] == "error"
        assert app.delivered_messages() == []


def held(app, parent="h2"):
    """The relayed copies ``app`` holds, as ``{index: [relayer, ...]}``."""
    return {index: list(copies)
            for index, copies in app._inboxes[parent]._copies.items()}


def next_index(app, parent="h2"):
    return app._inboxes[parent].next_index


class TestStreamAcks:
    """A child replica acknowledges a relay stream, not a copy: one
    ``RelayAck`` of its next index to every relayer, at most once per ack
    interval (a quarter of the relay retransmission timeout)."""

    @staticmethod
    def release(app, replica, registry, count):
        for seq in range(1, count + 1):
            wire = wire_for("client", seq, ("g1", "g2"))
            for parent in ("h2/r0", "h2/r1"):
                execute(app, replica, relayed("g1", parent, seq, wire))

    def test_one_ack_per_interval_covers_every_release_since(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        relayers = configs["h2"].replicas
        self.release(app, replica, registry, 3)
        # the first release is acked at once, the next two wait
        assert acks(replica) == [(relayer, 1) for relayer in relayers]
        replica.runtime.run(until=app.relay_retransmit_timeout / 4)
        assert acks(replica)[4:] == [(relayer, 3) for relayer in relayers]
        replica.runtime.run(until=app.relay_retransmit_timeout)
        assert len(acks(replica)) == 8

    def test_without_retransmission_every_release_is_acked_at_once(
            self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        app.relay_retransmit_timeout = None
        self.release(app, replica, registry, 3)
        assert acks(replica) == [(relayer, index) for index in (1, 2, 3)
                                 for relayer in configs["h2"].replicas]

    def test_a_checkpoint_install_acks_every_stream_at_once(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        self.release(app, replica, registry, 3)
        restored, restored_replica = make("g1", "g1/r1")
        restored.restore(app.snapshot())
        restored.reoffer(restored_replica)
        assert acks(restored_replica) == [
            (relayer, 3) for relayer in configs["h2"].replicas]

    def test_a_parent_counts_acks_from_its_child_only(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("h2", "h2/r0")
        wire = wire_for("client", 1, ("g1", "g2"))
        execute(app, replica, Request("h2", "client", 1, wire))
        outbox = app._outboxes["g1"]
        assert list(outbox.unacked()) == [0]
        for src, ack in (("g1/r0", RelayAck("g1", "h1", "g1/r0", 1)),
                         ("g1/r1", RelayAck("g1", "h2", "g1/r2", 1)),
                         ("g2/r0", RelayAck("g1", "h2", "g2/r0", 1)),
                         ("g1/r0", RelayAck("g1", "h2", "g1/r0", 1))):
            assert app.answer(src, ack) is None
        assert list(outbox.unacked()) == [0]
        app.answer("g1/r1", RelayAck("g1", "h2", "g1/r1", 1))
        assert outbox.unacked() == {} and list(app._outboxes["g2"].unacked()) == [0]


class TestRelayBatchHardening:
    """What a child accepts inside a ``RelayBatch``, and from whom."""

    def test_a_copy_from_a_non_relayer_is_denied_and_counts_nothing(
            self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1", "g2"))
        for outsider in ("h3/r0", "client", "g1/r1"):
            assert execute(app, replica,
                           relayed("g1", outsider, 1, wire)) is None
        assert held(app) == {} and replica.sent == []
        assert replica.monitor.counters["byzcast.relay_denied"] == 3
        assert "byzcast.executed_wire" not in replica.monitor.counters

    def test_malformed_elements_are_skipped_and_the_rest_processed(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        first = wire_for("client", 1, ("g1", "g2"))
        second = wire_for("client", 2, ("g1", "g2"))
        junk = (
            ("raw",),                                     # not a multicast
            RelayBatch((first,), 0),                      # nested batch
            WireMulticast("client", 9, ("g9",), ()),      # unknown target
            wire_for("client", 8, ("g3", "g4")),  # not involved
        )
        batch = (junk[0], first, junk[1], junk[2], second, junk[3])
        for parent in ("h2/r0", "h2/r1", "h2/r2"):
            execute(app, replica, relayed("g1", parent, 1, *batch))
        assert len(acks(replica)) == 4 + 1  # the stream, the late copy
        assert [m.mid.seq for m in app.delivered_messages()] == [1, 2]
        # Validated once, when the batch is released: not once per copy.
        assert replica.monitor.counters["byzcast.invalid_wire"] == len(junk)
        assert replica.monitor.counters["byzcast.executed_wire"] == 2

    def test_an_unhashable_wire_in_a_batch_is_skipped(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        bad = WireMulticast("client", 1, ("g1", "g2"), ["x"])
        good = wire_for("client", 2, ("g1", "g2"))
        for parent in ("h2/r0", "h2/r1"):
            execute(app, replica, relayed("g1", parent, 1, bad, good))
        assert [m.mid.seq for m in app.delivered_messages()] == [2]
        assert replica.monitor.counters["byzcast.invalid_wire"] == 1

    @pytest.mark.parametrize("index", [-1, None, "0", 1.0, True])
    def test_an_index_that_is_not_a_natural_number_drops_the_batch(
            self, setup, index):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1", "g2"))
        for parent in ("h2/r0", "h2/r1"):
            request = Request("g1", parent, 1, RelayBatch((wire,), index))
            execute(app, replica, request)
        assert app.delivered_messages() == []
        assert replica.monitor.counters["byzcast.invalid_relay_batch"] == 2
        # acked at once: no index will ever release them
        assert acks(replica) == [("h2/r0", 0), ("h2/r1", 0)]
        assert held(app) == {} and next_index(app) == 0

    def test_oversize_batch_is_dropped_whole(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        limit = configs["g1"].max_batch
        wires = [wire_for("client", seq, ("g1", "g2"))
                 for seq in range(1, limit + 2)]
        for parent in ("h2/r0", "h2/r1"):
            execute(app, replica, relayed("g1", parent, 1, *wires))
        assert app.delivered_messages() == []
        assert held(app) == {} and next_index(app) == 0
        # One wire fewer is within the limit and goes through.
        for parent in ("h2/r0", "h2/r1"):
            execute(app, replica,
                    relayed("g1", parent, 2, *wires[:limit], index=0))
        assert len(app.delivered_messages()) == limit

    def test_wires_must_be_a_tuple(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1", "g2"))
        for wires in (None, 7, [wire], wire):
            request = Request("g1", "h2/r0", 1, RelayBatch(wires, 0))
            assert app.carried(request) == 1
            execute(app, replica, request)
        assert acks(replica) == [("h2/r0", 0)] * 4
        assert held(app) == {}

    def test_ack_does_not_depend_on_content(self, setup):
        """What the f Byzantine relayers sent changes no ack: an ack names
        the stream's next index only, and the stream's acks go to every
        relayer alike — to one that sent junk as to one that sent nothing.
        Within an ack interval the acks of several releases are one."""
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1", "g2"))
        limit = configs["g1"].max_batch
        contents = [(), (wire,), (wire, wire), (("raw",),), (wire,) * (limit + 1)]
        for seq, wires in enumerate(contents, start=1):
            execute(app, replica, relayed("g1", "h2/r0", seq, *wires))
        for parent in ("h2/r1", "h2/r2"):
            for seq in range(1, len(contents) + 1):
                execute(app, replica, relayed("g1", parent, seq, wire))
        assert next_index(app) == len(contents)
        replica.runtime.run(until=app.relay_retransmit_timeout)
        sent = [ack for __, ack in replica.sent if isinstance(ack, RelayAck)]
        assert {(ack.group, ack.parent, ack.sender) for ack in sent} == {
            ("g1", "h2", "g1/r0")}
        assert [index for dst, index in acks(replica) if dst == "h2/r3"] == [
            1, len(contents)]
        assert {dst for dst, index in acks(replica)
                if index == len(contents)} == set(configs["h2"].replicas)

    def test_carried_counts_wires_of_a_wellformed_batch(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1", "g2"))
        assert app.carried(Request("g1", "client", 1, wire)) == 1
        assert app.carried(relayed("g1", "h2/r0", 1, wire, wire, wire)) == 3
        assert app.carried(relayed("g1", "h2/r0", 1)) == 1
        # A certificate carries its batch's wires once.
        copies = tuple(relayed("g1", parent, 1, wire, wire)
                       for parent in ("h2/r0", "h2/r1"))
        certificate = Request("g1", "relay@h2", 1,
                              RelayCertificate("h2", 0, copies))
        assert app.carried(certificate) == 2


def parked(app, parent="h2"):
    """The relayed copies ``app`` holds for a later index than its next."""
    return sum(len(copies) for index, copies in held(app, parent).items()
               if index > next_index(app, parent))


class TestBatchRule:
    """A relayed batch is confirmed whole: each copy is one vote, by digest
    at its index, a certificate of f+1 matching votes is ordered once per
    index and in index order, and the wires of a confirmed batch are
    admitted and acted on once each."""

    @staticmethod
    def count_pushes(monkeypatch):
        pushes = []
        push = QuorumMerge.push

        def counted(merge, sender, key, value):
            pushes.append(sender)
            return push(merge, sender, key, value)

        monkeypatch.setattr(QuorumMerge, "push", counted)
        return pushes

    def test_each_copy_is_pushed_once_and_each_wire_acted_on_once(
            self, setup, monkeypatch):
        tree, configs, registry, loop, make = setup
        app, replica = make("h2", "h2/r0")
        pushes = self.count_pushes(monkeypatch)
        wires = [wire_for("client", seq, ("g1", "g2"))
                 for seq in (1, 2, 3)]
        for parent in ("h1/r0", "h1/r1"):
            execute(app, replica, relayed("h2", parent, 1, *wires))
        assert pushes == ["h1/r0", "h1/r1"]
        counters = replica.monitor.counters
        assert counters["byzcast.executed_wire"] == 3
        assert counters["byzcast.relay"] == 2 * 3  # into g1 and g2
        # Copies of a released batch are stale: neither pushed nor admitted.
        for parent in ("h1/r2", "h1/r3"):
            execute(app, replica, relayed("h2", parent, 1, *wires))
        assert pushes == ["h1/r0", "h1/r1"]
        assert counters["byzcast.executed_wire"] == 3
        assert next_index(app, "h1") == 1 and held(app, "h1") == {}

    @pytest.mark.parametrize("recut", ["order", "cut", "index"])
    def test_a_byzantine_recut_never_releases_alone(self, setup, recut):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wires = [wire_for("client", seq, ("g1", "g2"))
                 for seq in (1, 2, 3)]
        forged = {"order": relayed("g1", "h2/r3", 1, *wires[::-1]),
                  "cut": relayed("g1", "h2/r3", 1, *wires[:2]),
                  "index": relayed("g1", "h2/r3", 2, *wires)}[recut]
        execute(app, replica, forged)
        execute(app, replica, relayed("g1", "h2/r0", 1, *wires))
        assert app.delivered_messages() == []
        execute(app, replica, relayed("g1", "h2/r1", 1, *wires))
        assert [m.mid.seq for m in app.delivered_messages()] == [1, 2, 3]

    def test_a_duplicate_copy_of_a_released_batch_is_ignored(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wire = wire_for("client", 1, ("g1", "g2"))
        for parent in ("h2/r0", "h2/r1"):
            execute(app, replica, relayed("g1", parent, 1, wire))
        # Replayed under a new request seq, same index or the next one.
        execute(app, replica, relayed("g1", "h2/r0", 2, wire, index=0))
        execute(app, replica, relayed("g1", "h2/r3", 2, wire, index=1))
        assert len(app.delivered_messages()) == 1
        assert replica.monitor.counters["byzcast.executed_wire"] == 1
        assert next_index(app) == 1

    def test_a_later_batch_waits_for_an_earlier_one(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        first, second = (wire_for("client", seq, ("g1", "g2"))
                         for seq in (1, 2))
        for parent in ("h2/r0", "h2/r1"):
            execute(app, replica, relayed("g1", parent, 2, second))
        assert app.delivered_messages() == [] and parked(app) == 2
        execute(app, replica, relayed("g1", "h2/r2", 1, first))
        execute(app, replica, relayed("g1", "h2/r3", 1, first))
        assert [m.mid.seq for m in app.delivered_messages()] == [1, 2]
        assert parked(app) == 0 and next_index(app) == 2

    def test_a_membership_update_releases_whole_batches(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wires = [wire_for("client", seq, ("g1", "g2"))
                 for seq in (1, 2)]
        execute(app, replica, relayed("g1", "h2/r0", 1, *wires))
        execute(app, replica, relayed("g1", "h2/r0", 2, wires[1], index=1))
        assert app.delivered_messages() == []
        # h2 shrinks to one trusted replica: its copy of index 0 and then
        # its copy of index 1 each release alone.
        update = MembershipUpdate("h2", ("h2/r0",), 0)
        execute(app, replica, Request("g1", admin_identity("g1"), 1, update))
        assert [m.mid.seq for m in app.delivered_messages()] == [1, 2]
        assert replica.monitor.counters["byzcast.executed_wire"] == 3

    def test_a_drain_merge_releases_whole_batches(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("g1")
        wires = [wire_for("client", seq, ("g1", "g2"))
                 for seq in (1, 2)]
        execute(app, replica, relayed("g1", "h2/r0", 1, *wires))
        moved = OverlayTree({"g1": "h1", "g2": "h2", "g3": "h3", "g4": "h3",
                             "h2": "h1", "h3": "h1"}, tree.targets)
        switch = TreeUpdate(1, moved.parent_edges(), tuple(sorted(tree.targets)))
        execute(app, replica, Request("g1", admin_identity("g1"), 1, switch))
        assert app.tree.parent("g1") == "h1"
        execute(app, replica, relayed("g1", "h2/r1", 1, *wires))
        assert [m.mid.seq for m in app.delivered_messages()] == [1, 2]
        assert replica.monitor.counters["byzcast.executed_wire"] == 2

    def test_restore_agrees_on_stream_and_relay_indexes(self, setup):
        """A checkpoint carries each stream's next index, not the votes: a
        restored replica holds only the copies it received itself."""
        tree, configs, registry, loop, make = setup
        app, replica = make("h2", "h2/r0")
        wires = [wire_for("client", seq, ("g1", "g2"))
                 for seq in range(1, 5)]
        for parent in ("h1/r0", "h1/r1"):
            execute(app, replica, relayed("h2", parent, 1, wires[0]))
        execute(app, replica, relayed("h2", "h1/r0", 2, wires[1]))
        execute(app, replica, relayed("h2", "h1/r0", 3, wires[2]))  # parked
        state = app.snapshot()
        assert state[2] == (("h1", 1),)
        assert state[-1] == (("g1", 1), ("g2", 1))
        assert parked(app, "h1") == 1
        restored, restored_replica = make("h2", "h2/r1")
        restored.restore(state)
        restored_replica.ordered = dict(replica.ordered)  # the FIFO tracker
        assert held(restored, "h1") == {}
        # h1/r0's copies reach the restored replica too (a retransmission).
        for seq, wire in ((2, wires[1]), (3, wires[2])):
            execute(restored, restored_replica,
                    relayed("h2", "h1/r0", seq, wire))
        assert restored.snapshot() == state
        assert restored.state_summary(state) == app.state_summary(state)
        assert restored.state_summary(restored.snapshot()) == \
            app.state_summary(state)
        # Both go on identically: same releases, same relay indexes.
        for target, target_replica in ((app, replica),
                                       (restored, restored_replica)):
            del target_replica.sent[:]
            for seq, wire in ((2, wires[1]), (3, wires[2])):
                execute(target, target_replica,
                        relayed("h2", "h1/r1", seq, wire))
            assert [b.index for b in self.relayed_to(target_replica, "g1/r0")] \
                == [1, 2]
        assert restored.snapshot() == app.snapshot()
        assert restored.delivered_messages() == app.delivered_messages()

    @staticmethod
    def relayed_to(replica, child):
        return [r.command for dst, r in replica.sent if dst == child]


class TestRelayFlush:
    def test_one_request_per_child_in_act_order(self, setup):
        tree, configs, registry, loop, make = setup
        app, replica = make("h1", "h1/r0")
        wires = [wire_for("client", seq, dst) for seq, dst in
                 enumerate([("g1", "g3"), ("g2", "g4"), ("g1", "g4")], start=1)]
        ctx = ExecutionContext(replica=replica, time=loop.now)
        for wire in wires:
            app.execute(Request("h1", "client", wire.seq, wire), ctx)
        app.end_batch(ctx)
        per_child = {}
        for dst, request in replica.sent:
            per_child.setdefault(dst.split("/")[0], set()).add(request.command)
        assert per_child == {"h2": {RelayBatch(tuple(wires), 0)},
                             "h3": {RelayBatch(tuple(wires), 0)}}
        assert replica.monitor.counters["byzcast.relay"] == 6
        assert replica.monitor.counters["byzcast.relay_batch"] == 2
        # The buffer is empty again: a second boundary sends nothing.
        del replica.sent[:]
        app.end_batch(ctx)
        assert replica.sent == []

    def test_flush_chunks_at_the_childs_max_batch(self, setup):
        tree, configs, registry, loop, make = setup
        small = dict(configs, h2=configs_for(tree, max_batch=2)["h2"])
        app = ByzCastApplication("h1", tree, small, registry)
        replica = FakeReplica("h1/r0", small["h1"])
        ctx = ExecutionContext(replica=replica, time=loop.now)
        for seq in range(1, 6):
            wire = wire_for("client", seq, ("g1", "g3"))
            app.execute(Request("h1", "client", seq, wire), ctx)
        app.end_batch(ctx)
        to_h2 = [r.command for dst, r in replica.sent if dst == "h2/r0"]
        to_h3 = [r.command for dst, r in replica.sent if dst == "h3/r0"]
        assert [len(b.wires) for b in to_h2] == [2, 2, 1]
        assert [w.seq for b in to_h2 for w in b.wires] == [1, 2, 3, 4, 5]
        assert [len(b.wires) for b in to_h3] == [5]
        # Each child numbers its own relay sequence.
        assert [b.index for b in to_h2] == [0, 1, 2]
        assert [b.index for b in to_h3] == [0]

    def test_a_child_that_a_switch_takes_away_keeps_its_index(self, setup):
        """When it comes back, the child's stream from this group goes on
        where it stopped: its FIFO tracker has passed the earlier seqs."""
        tree, configs, registry, loop, make = setup
        app, replica = make("h2", "h2/r0")
        ctx = ExecutionContext(replica=replica, time=loop.now)
        away = OverlayTree({"g1": "h1", "g2": "h2", "g3": "h3", "g4": "h3",
                            "h2": "h1", "h3": "h1"}, tree.targets)
        admin = admin_identity("h2")
        for seq, update in enumerate((None, away, tree, None), start=1):
            if update is not None:
                app.execute(Request("h2", admin, seq, TreeUpdate(
                    seq, update.parent_edges(), tuple(sorted(tree.targets)))),
                    ctx)
            wire = wire_for("client", seq, ("g1", "g2"))
            app.execute(Request("h2", "client", seq, wire), ctx)
            app.end_batch(ctx)
        to_g1 = [r.command.index for dst, r in replica.sent if dst == "g1/r0"]
        to_g2 = [r.command.index for dst, r in replica.sent if dst == "g2/r0"]
        # While g1 hangs under h1, {g1, g2} enters at h1: h2 relays nothing.
        assert to_g1 == [0, 1, 2]
        assert to_g2 == [0, 1, 2]


class TestRelayIndex:
    """Parent replicas that installed a checkpoint never relay the batches
    it skipped; their copies of later batches must wait for those."""

    def test_relayers_restored_past_a_batch_cannot_release_a_later_one_first(
            self):
        tree = OverlayTree.paper_tree()
        configs = configs_for(tree)
        registry = KeyRegistry()
        first, second = (wire_for("client", seq, ("g1", "g2"))
                         for seq in (1, 2))
        parents = {name: (ByzCastApplication("h2", tree, configs, registry),
                          FakeReplica(name, configs["h2"]))
                   for name in configs["h2"].replicas}

        def order(name, wire):
            app, replica = parents[name]
            execute(app, replica, Request("h2", "client", wire.seq, wire))

        # h2/r1 and h2/r2 order the first message; h2/r0 and h2/r3 install
        # the checkpoint taken right after it instead.  h2/r3 is outside
        # regency 0's quorum: it keeps its copies and sends none live.
        for name in ("h2/r1", "h2/r2"):
            order(name, first)
        checkpoint = parents["h2/r2"][0].snapshot()
        for name in ("h2/r0", "h2/r3"):
            parents[name][0].restore(checkpoint)
        for name in parents:
            order(name, second)

        def relays(name, child):
            return [request for dst, request in parents[name][1].sent
                    if dst == f"{child}/r0"]

        assert [len(relays(name, "g1")) for name in sorted(parents)] == \
            [1, 2, 2, 0]
        assert list(parents["h2/r3"][0]._outboxes["g1"].unacked()) == [1]
        sequences = {}
        # g1 hears h2/r0's copy of batch 1 first, and h2/r1's of batches 0
        # and 1 next: batch 1 carries before batch 0 does.
        for child, arrival in (("g1", ("h2/r0", "h2/r1", "h2/r2")),
                               ("g2", ("h2/r1", "h2/r2", "h2/r0"))):
            app = ByzCastApplication(child, tree, configs, registry)
            replica = FakeReplica(f"{child}/r0", configs[child])
            for name in arrival:
                for request in relays(name, child):
                    execute(app, replica, request)
            sequences[child] = [app.delivered_messages()]
            assert [m.mid.seq for m in app.delivered_messages()] == [1, 2]
        assert check_prefix_order(sequences) == []
