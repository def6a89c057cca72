"""Unit tests for the multicast client's f+1 result voting and queries."""

from __future__ import annotations

import pytest

from repro.bcast.messages import ReadReply, Reply
from repro.core.client import MAX_DELIVERY_QUERIES
from repro.core.deployment import ByzCastDeployment
from repro.core.messages import DeliveryQuery, MulticastReply
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS


def submit(client, dst):
    """Multicast ``("x",)`` to ``dst``; returns the list the op's per-group
    results are appended to when it completes."""
    confirmed = []
    client.amulticast(
        destination(*dst), payload=("x",),
        callback=lambda message, latency, results: confirmed.append(results))
    return confirmed


@pytest.fixture
def client_rig():
    tree = OverlayTree.two_level(["g1", "g2"])
    dep = ByzCastDeployment(tree, costs=FAST_COSTS)
    client = dep.add_client("c1")
    # Submit without running the sim: we feed replies by hand.
    return dep, client, submit(client, ("g1", "g2"))


def reply(group, replica, seq=1, result=("r",)):
    return MulticastReply(group=group, replica=replica, sender="c1",
                          seq=seq, result=result)


def ordered_reply(group, replica, result, req_seq=1):
    """``replica``'s reply to the client's ``req_seq``-th request to ``group``."""
    return Reply(group=group, sender=replica, req_sender="c1",
                 req_seq=req_seq, result=result)


def feed(client, message):
    """Deliver ``message`` as if it came from the replica that signed it."""
    src = message.sender if isinstance(message, Reply) else message.replica
    client.on_message(src, message)


class TestResultVoting:
    def test_needs_f_plus_1_matching_per_group(self, client_rig):
        dep, client, confirmed = client_rig
        client._handle_multicast_reply("g1/r0", reply("g1", "g1/r0"))
        assert client.pending() == 1
        client._handle_multicast_reply("g1/r1", reply("g1", "g1/r1"))
        assert client.pending() == 1  # g2 still missing
        client._handle_multicast_reply("g2/r0", reply("g2", "g2/r0"))
        client._handle_multicast_reply("g2/r1", reply("g2", "g2/r1"))
        assert client.pending() == 0
        assert confirmed == [{"g1": ("r",), "g2": ("r",)}]

    def test_byzantine_minority_result_never_confirmed(self, client_rig):
        dep, client, confirmed = client_rig
        client._handle_multicast_reply("g1/r0", reply("g1", "g1/r0", result=("lie",)))
        client._handle_multicast_reply("g1/r1", reply("g1", "g1/r1", result=("truth",)))
        client._handle_multicast_reply("g1/r2", reply("g1", "g1/r2", result=("truth",)))
        client._handle_multicast_reply("g2/r0", reply("g2", "g2/r0"))
        client._handle_multicast_reply("g2/r1", reply("g2", "g2/r1"))
        assert client.pending() == 0
        assert confirmed[0]["g1"] == ("truth",)

    def test_duplicate_replica_votes_ignored(self, client_rig):
        dep, client, confirmed = client_rig
        for __ in range(3):
            client._handle_multicast_reply("g1/r0", reply("g1", "g1/r0"))
        assert client.pending() == 1

    def test_spoofed_source_ignored(self, client_rig):
        dep, client, confirmed = client_rig
        # src doesn't match the claimed replica
        client._handle_multicast_reply("g1/r3", reply("g1", "g1/r0"))
        # claimed replica not in the group
        client._handle_multicast_reply("impostor", reply("g1", "impostor"))
        # reply for someone else's message
        other = MulticastReply(group="g1", replica="g1/r0", sender="someone",
                               seq=1, result=())
        client._handle_multicast_reply("g1/r0", other)
        assert client.pending() == 1

    def test_reply_from_non_destination_group_ignored(self, client_rig):
        dep, client, confirmed = client_rig
        client._handle_multicast_reply("h1/r0", reply("h1", "h1/r0"))
        assert client.pending() == 1

    def test_unknown_seq_ignored(self, client_rig):
        dep, client, confirmed = client_rig
        client._handle_multicast_reply("g1/r0", reply("g1", "g1/r0", seq=99))
        assert client.pending() == 1

    def test_late_replies_after_completion_are_noops(self, client_rig):
        dep, client, confirmed = client_rig
        for group in ("g1", "g2"):
            for index in (0, 1):
                client._handle_multicast_reply(
                    f"{group}/r{index}", reply(group, f"{group}/r{index}"))
        assert client.pending() == 0
        # Extra reply after completion.
        client._handle_multicast_reply("g1/r2", reply("g1", "g1/r2"))
        assert len(client.completions) == 1

    def test_a_departed_replicas_vote_stops_counting(self, client_rig):
        """g2/r3 votes for a forged result and is swapped out: with one
        current member's vote for it, the forgery is one vote, not f+1."""
        dep, client, confirmed = client_rig
        for replica in ("g1/r0", "g1/r1"):
            client._handle_multicast_reply(replica, reply("g1", replica))
        forged = ("forged",)
        client._handle_multicast_reply(
            "g2/r3", reply("g2", "g2/r3", result=forged))
        client.update_group("g2", ("g2/r0", "g2/r1", "g2/r2", "g2/r4"), 1)
        client._handle_multicast_reply(
            "g2/r0", reply("g2", "g2/r0", result=forged))
        assert client.pending() == 1
        for replica in ("g2/r1", "g2/r4"):
            client._handle_multicast_reply(replica, reply("g2", replica))
        assert confirmed == [{"g1": ("r",), "g2": ("r",)}]


class TestReplyPaths:
    """An entry destination group confirms through the entry proxy's f+1
    matching ``("delivered", result)`` replies; a relayed destination
    through ``MulticastReply``; an ``("ack",)`` — an entry group that is no
    destination answering a retransmission — confirms no group.  Such an
    entry group's request completes with the first destination's
    confirmation."""

    @staticmethod
    def client_for(tree, dst):
        dep = ByzCastDeployment(tree, costs=FAST_COSTS)
        client = dep.add_client("c1")
        return client, submit(client, dst)

    def test_entry_destination_confirms_through_its_ordered_reply(self):
        client, confirmed = self.client_for(
            OverlayTree.two_level(["g1", "g2"]), ["g1"])
        feed(client, ordered_reply("g1", "g1/r0", ("delivered", ("lie",))))
        feed(client, ordered_reply("g1", "g1/r1", ("delivered", ("r",))))
        assert client.pending() == 1
        feed(client, ordered_reply("g1", "g1/r2", ("delivered", ("r",))))
        assert client.pending() == 0
        assert confirmed == [{"g1": ("r",)}]
        assert client._proxies["g1"].pending() == 0

    def test_acks_from_an_entry_destination_confirm_nothing(self):
        client, confirmed = self.client_for(
            OverlayTree.two_level(["g1", "g2"]), ["g1"])
        for index in range(4):
            feed(client, ordered_reply("g1", f"g1/r{index}", ("ack",)))
        assert client._proxies["g1"].pending() == 0
        assert client.pending() == 1

    def test_aux_entry_acks_then_relayed_groups_confirm(self, client_rig):
        dep, client, confirmed = client_rig
        for index in (0, 1):
            feed(client, ordered_reply("h1", f"h1/r{index}", ("ack",)))
        assert client._proxies["h1"].pending() == 0
        assert client.pending() == 1
        for group in ("g1", "g2"):
            for index in (0, 1):
                feed(client, reply(group, f"{group}/r{index}"))
        assert client.pending() == 0
        assert confirmed == [{"g1": ("r",), "g2": ("r",)}]

    def test_the_first_destination_confirmation_completes_an_aux_entry(
            self, client_rig):
        dep, client, confirmed = client_rig
        feed(client, reply("g2", "g2/r0"))
        assert client._proxies["h1"].pending() == 1  # one vote is no proof
        feed(client, reply("g2", "g2/r1"))
        assert client._proxies["h1"].pending() == 0
        assert client.pending() == 1

    def test_inner_target_lca_confirms_by_reply_its_child_by_multicast_reply(
            self):
        tree = OverlayTree({"g2": "g1"}, ["g1", "g2"])
        client, confirmed = self.client_for(tree, ["g1", "g2"])
        assert set(client._proxies) == {"g1"}
        for index in (0, 1):
            feed(client, ordered_reply("g1", f"g1/r{index}",
                                       ("delivered", ("one",))))
        assert client.pending() == 1
        for index in (0, 1):
            feed(client, reply("g2", f"g2/r{index}", result=("two",)))
        assert client.pending() == 0
        assert confirmed == [{"g1": ("one",), "g2": ("two",)}]


class TestDeliveryQueries:
    """Once the entry group answered, a destination group that has not
    confirmed is asked again for its MulticastReplies, with backoff."""

    @staticmethod
    def rig(tree=None, dst=("g1", "g2")):
        tree = tree if tree is not None else OverlayTree.two_level(["g1", "g2"])
        dep = ByzCastDeployment(tree, costs=FAST_COSTS)
        client = dep.add_client("c1", retransmit_timeout=1.0)
        sent = []
        client.send = lambda dst, payload, *args, **kw: sent.append(
            (dst, payload))
        client.amulticast(destination(*dst), payload=("x",))
        return dep, client, sent

    @staticmethod
    def rounds(sent):
        return [dst for dst, payload in sent
                if isinstance(payload, DeliveryQuery)]

    def test_only_unconfirmed_groups_are_asked_with_backoff(self):
        """The first destination's confirmation answers for the entry
        group, which sends no ack: a round after one timeout."""
        dep, client, sent = self.rig()
        for index in (0, 1):
            feed(client, reply("g1", f"g1/r{index}"))
        assert client._proxies["h1"].pending() == 0
        dep.run(until=0.99)
        assert self.rounds(sent) == []
        dep.run(until=1.01)
        assert self.rounds(sent) == [f"g2/r{index}" for index in range(4)]
        assert sent[-1][1] == DeliveryQuery(group="g2", sender="c1", seq=1)
        dep.run(until=7.5)      # rounds at 1, 3 and 7 s
        assert len(self.rounds(sent)) == 3 * 4
        for index in (0, 1):
            feed(client, reply("g2", f"g2/r{index}"))
        assert client.pending() == 0
        dep.run(until=60.0)
        assert len(self.rounds(sent)) == 3 * 4
        assert client._query_timer is None

    def test_the_client_gives_up_after_the_proxy_retransmission_cap(self):
        dep, client, sent = self.rig()
        for index in (0, 1):
            feed(client, ordered_reply("h1", f"h1/r{index}", ("ack",)))
        dep.run(until=10_000.0)
        assert len(self.rounds(sent)) == MAX_DELIVERY_QUERIES * 8
        assert client._query_timer is None and client.pending() == 1

    def test_an_entry_group_that_refused_the_message_is_not_asked(self):
        dep, client, sent = self.rig()
        for index in (0, 1):
            feed(client, ordered_reply(
                "h1", f"h1/r{index}",
                ("error", "submitted by someone other than its origin")))
        dep.run(until=30.0)
        assert self.rounds(sent) == []

    def test_an_inner_target_lca_asks_only_its_relayed_child(self):
        dep, client, sent = self.rig(OverlayTree({"g2": "g1"}, ["g1", "g2"]))
        for index in (0, 1):
            feed(client, ordered_reply("g1", f"g1/r{index}",
                                       ("delivered", ("one",))))
        dep.run(until=1.01)
        assert self.rounds(sent) == [f"g2/r{index}" for index in range(4)]


def test_two_areads_of_a_group_share_one_proxy_and_its_floor():
    """A group has one read proxy: a quorum accepted in the first round
    sets the floor that refuses a lower matching pair in the second."""
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            costs=FAST_COSTS)
    client = dep.add_client("c1")
    client.send = lambda dst, payload, *args, **kw: None
    outcomes = []
    first = client.aread("g1", ("k",), callback=outcomes.append)
    second = client.aread("g1", ("k",), callback=outcomes.append)
    [proxy] = client._read_proxies.values()
    assert sorted(proxy._outstanding) == [first, second]

    def read_reply(replica, rid, cid, result):
        client.on_message(replica, ReadReply(
            group="g1", sender=replica, req_sender="c1", rid=rid, cid=cid,
            result=result))

    for replica in ("g1/r0", "g1/r1"):
        read_reply(replica, first, 5, ("new",))
    assert [(o.rid, o.cid) for o in outcomes] == [(first, 5)]
    for replica in ("g1/r2", "g1/r3"):   # a laggard and an echo, below 5
        read_reply(replica, second, 2, ("old",))
    assert len(outcomes) == 1 and proxy.floor == 5
    assert dep.monitor.counters["read.stale_quorum"] == 1


def footprint(client):
    """The size of every container the client and its proxies hold, but
    ``completions``: what a completed multicast could leave behind."""
    holders = [("client", client), *client._proxies.items()]
    return {(who, name): len(value)
            for who, holder in holders
            for name, value in vars(holder).items()
            if name != "completions" and not isinstance(value, str)
            and hasattr(value, "__len__")}


def test_a_completed_multicast_leaves_only_its_completion_behind():
    """The op's results go to its callback; after it the client keeps the
    ``completions`` entry and nothing else that grows with the ops."""
    sizes = []
    for rounds in (1, 4):
        dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                                costs=FAST_COSTS)
        client = dep.add_client("c1")
        confirmed = [submit(client, dst) for __ in range(rounds)
                     for dst in (("g1",), ("g1", "g2"), ("g2",))]
        dep.run(until=5.0)
        assert client.pending() == 0
        assert len(client.completions) == 3 * rounds
        assert all(len(results) == 1 for results in confirmed)
        sizes.append(footprint(client))
    assert ("client", "_proxies") in sizes[0]
    assert sizes[0] == sizes[1]
