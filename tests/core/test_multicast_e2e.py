"""End-to-end ByzCast tests on the paper's Fig. 1 scenarios."""

from __future__ import annotations

from repro.bcast.messages import Reply
from repro.core.deployment import ByzCastDeployment
from repro.core.messages import MulticastReply
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS


def make_deployment(tree=None, **kwargs) -> ByzCastDeployment:
    tree = tree if tree is not None else OverlayTree.paper_tree()
    kwargs.setdefault("costs", FAST_COSTS)
    kwargs.setdefault("request_timeout", 0.5)
    return ByzCastDeployment(tree, **kwargs)


def test_local_message_delivered_by_destination_only():
    dep = make_deployment()
    client = dep.add_client("c1")
    client.amulticast(destination("g3"), payload=("m3",))
    dep.run(until=5.0)
    assert client.pending() == 0
    assert len(client.completions) == 1
    for app in dep.apps("g3"):
        assert [m.payload for m in app.delivered_messages()] == [("m3",)]
    # Genuineness for local messages: no other group saw anything.
    for gid in ("g1", "g2", "g4", "h1", "h2", "h3"):
        for app in dep.apps(gid):
            assert app.delivered_messages() == []


def test_global_message_reaches_all_destinations():
    dep = make_deployment()
    client = dep.add_client("c1")
    client.amulticast(destination("g2", "g3"), payload=("m2",))
    dep.run(until=5.0)
    assert client.pending() == 0
    for gid in ("g2", "g3"):
        for app in dep.apps(gid):
            assert [m.payload for m in app.delivered_messages()] == [("m2",)]
    # Auxiliary groups relay but never a-deliver.
    for gid in ("h1", "h2", "h3"):
        for app in dep.apps(gid):
            assert app.delivered_messages() == []
    # g1 and g4 are not destinations.
    for gid in ("g1", "g4"):
        for app in dep.apps(gid):
            assert app.delivered_messages() == []


def test_fig1b_scenario_three_messages():
    """m1 → {g1,g2}, m2 → {g2,g3}, m3 → {g3}: all delivered consistently."""
    dep = make_deployment()
    client = dep.add_client("c1")
    client.amulticast(destination("g1", "g2"), payload=("m1",))
    client.amulticast(destination("g2", "g3"), payload=("m2",))
    client.amulticast(destination("g3"), payload=("m3",))
    dep.run(until=5.0)
    assert client.pending() == 0
    assert len(client.completions) == 3

    def payloads(gid):
        return [[m.payload for m in seq] for seq in dep.delivered_sequences(gid)]

    for seq in payloads("g1"):
        assert seq == [("m1",)]
    for seq in payloads("g2"):
        assert seq == [("m1",), ("m2",)] or seq == [("m2",), ("m1",)]
    g2 = payloads("g2")
    g3 = payloads("g3")
    # All replicas of one group agree.
    assert all(seq == g2[0] for seq in g2)
    assert all(seq == g3[0] for seq in g3)
    # m2 and m3 both delivered at g3.
    assert sorted(g3[0]) == [("m2",), ("m3",)]


def test_prefix_order_on_common_destinations():
    """Two global messages to the same pair are delivered in one order."""
    dep = make_deployment()
    clients = [dep.add_client(f"c{i}") for i in range(4)]
    for i, client in enumerate(clients):
        for j in range(5):
            client.amulticast(destination("g2", "g3"), payload=(client.name, j))
    dep.run(until=10.0)
    for client in clients:
        assert client.pending() == 0
    g2 = dep.delivered_sequences("g2")
    g3 = dep.delivered_sequences("g3")
    order_g2 = [m.payload for m in g2[0]]
    order_g3 = [m.payload for m in g3[0]]
    assert len(order_g2) == 20
    assert order_g2 == order_g3
    for seq in g2 + g3:
        assert [m.payload for m in seq] == order_g2


def test_mixed_local_and_global_fifo_from_one_client():
    """FIFO atomic broadcast per group preserves one client's submission order
    when all messages enter at the same group."""
    dep = make_deployment()
    client = dep.add_client("c1")
    for j in range(10):
        client.amulticast(destination("g1"), payload=("local", j))
    dep.run(until=10.0)
    for seq in dep.delivered_sequences("g1"):
        assert [m.payload for m in seq] == [("local", j) for j in range(10)]


def test_two_level_tree_end_to_end():
    tree = OverlayTree.two_level(["g1", "g2", "g3", "g4"])
    dep = make_deployment(tree=tree)
    client = dep.add_client("c1")
    client.amulticast(destination("g1", "g4"), payload=("wide",))
    client.amulticast(destination("g2"), payload=("narrow",))
    dep.run(until=5.0)
    assert client.pending() == 0
    for gid in ("g1", "g4"):
        for app in dep.apps(gid):
            assert ("wide",) in [m.payload for m in app.delivered_messages()]
    for app in dep.apps("g2"):
        assert [m.payload for m in app.delivered_messages()] == [("narrow",)]


def test_target_group_as_inner_node():
    """§III-B: trees may consist of target groups only."""
    tree = OverlayTree({"g2": "g1", "g3": "g1"}, targets=["g1", "g2", "g3"])
    dep = make_deployment(tree=tree)
    client = dep.add_client("c1")
    client.amulticast(destination("g1", "g3"), payload=("both",))
    client.amulticast(destination("g2", "g3"), payload=("leaves",))
    dep.run(until=5.0)
    assert client.pending() == 0
    for app in dep.apps("g1"):
        assert [m.payload for m in app.delivered_messages()] == [("both",)]
    for app in dep.apps("g3"):
        assert sorted(m.payload for m in app.delivered_messages()) == [
            ("both",), ("leaves",)
        ]


def test_integrity_message_delivered_at_most_once_per_replica():
    dep = make_deployment()
    client = dep.add_client("c1")
    client.amulticast(destination("g1", "g2"), payload=("once",))
    dep.run(until=5.0)
    for gid in ("g1", "g2"):
        for app in dep.apps(gid):
            assert len(app.delivered_messages()) == 1


def test_lost_delivery_replies_of_a_local_multicast_are_sent_again():
    """The first delivery replies of g3/r1..r3 to a closed-loop client are
    lost, so one matching reply is all the client holds.  The delivery
    rides the ordered reply: the entry proxy retransmits once, the
    replicas answer the duplicate from their reply windows, and every op
    completes without a DeliveryQuery."""
    dep = make_deployment()
    client = dep.add_client("c1", retransmit_timeout=1.0)
    lost = []
    handle = client.on_message

    def lossy(src, payload):
        delivery = isinstance(payload, MulticastReply) or (
            isinstance(payload, Reply) and payload.result[0] == "delivered")
        if delivery and src != "g3/r0" and src not in lost:
            lost.append(src)
            return
        handle(src, payload)

    client.on_message = lossy
    issued = []

    def next_op(*__):
        if len(issued) < 3:
            issued.append(client.amulticast(destination("g3"),
                                            payload=(len(issued),)))

    client.on_complete = next_op
    next_op()
    dep.run(until=10.0)
    assert sorted(lost) == ["g3/r1", "g3/r2", "g3/r3"]
    assert len(client.completions) == 3 and client.pending() == 0
    assert dep.monitor.counters["proxy.retransmit"] == 1
    assert "client.delivery_query" not in dep.monitor.counters
    assert 1.0 <= client.completions[0][1] < 1.1


def test_lost_multicast_replies_of_a_relayed_delivery_are_asked_for_again():
    """The MulticastReplies of g2/r1..r3 for a global message are lost, so
    the client holds one.  g1's confirmation answers for the aux entry
    group h2, so its proxy no longer retransmits; the client asks g2 again
    with a DeliveryQuery and g2's replicas repeat their replies."""
    dep = make_deployment()
    client = dep.add_client("c1", retransmit_timeout=1.0)
    lost = []
    handle = client.on_message

    def lossy(src, payload):
        if (isinstance(payload, MulticastReply) and payload.group == "g2"
                and src != "g2/r0" and src not in lost):
            lost.append(src)
            return
        handle(src, payload)

    client.on_message = lossy
    client.amulticast(destination("g1", "g2"), payload=("m",))
    dep.run(until=10.0)
    assert sorted(lost) == ["g2/r1", "g2/r2", "g2/r3"]
    assert client.pending() == 0
    assert dep.monitor.counters["client.delivery_query"] == 1
    assert "proxy.retransmit" not in dep.monitor.counters
    assert 1.0 <= client.completions[0][1] < 1.1


def test_a_destination_entry_group_answers_live():
    """An entry group that is a destination sends ``("delivered", r)`` as
    it executes, from each of the 2f+1 members of its quorum; only the ack
    of an entry group that is not a destination waits for a
    retransmission."""
    dep = make_deployment()
    client = dep.add_client("c1", retransmit_timeout=1.0)
    replies = []
    handle = client.on_message

    def spy(src, payload):
        if isinstance(payload, Reply):
            replies.append((src, payload.result))
        handle(src, payload)

    client.on_message = spy
    client.amulticast(destination("g3"), payload=("local",))
    client.amulticast(destination("g1", "g2"), payload=("global",))
    dep.run(until=5.0)
    assert sorted(replies) == [(f"g3/r{index}", ("delivered", None))
                               for index in range(3)]
    assert client.pending() == 0
    assert all(latency < 0.1 for __, latency in client.completions)
    assert "proxy.retransmit" not in dep.monitor.counters


def test_a_non_destination_entry_that_loses_every_multicast_reply():
    """Every replica's first MulticastReply of a global message is lost, so
    no destination confirms and the aux entry group h2, which sent no ack,
    is asked again after one timeout.  It answers the retransmission with
    ``("ack",)`` from its reply windows, which says the destinations are
    overdue: the client asks them at once and completes within the one
    timeout it took when h2 acknowledged as it executed."""
    dep = make_deployment()
    client = dep.add_client("c1", retransmit_timeout=1.0)
    lost = []
    handle = client.on_message

    def lossy(src, payload):
        if isinstance(payload, MulticastReply) and src not in lost:
            lost.append(src)
            return
        handle(src, payload)

    client.on_message = lossy
    client.amulticast(destination("g1", "g2"), payload=("m",))
    dep.run(until=10.0)
    assert len(lost) == 8 and client.pending() == 0
    counters = dep.monitor.counters
    assert counters["proxy.retransmit"] == 1
    assert counters["client.delivery_query"] == 1
    assert 1.0 <= client.completions[0][1] < 1.1
