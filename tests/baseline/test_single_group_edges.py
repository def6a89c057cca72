"""Edge cases for the single-group (BFT-SMaRt) comparator: ByzCast over the
one group g1, the deployment ``protocol.kind: "bftsmart"`` builds."""

from __future__ import annotations

from repro.bcast.reconfig import regency_quorum
from repro.core.deployment import ByzCastDeployment
from repro.core.messages import WireMulticast
from repro.core.tree import OverlayTree
from repro.types import destination
from tests.helpers import FAST_COSTS


def one_group(**kwargs) -> ByzCastDeployment:
    kwargs.setdefault("costs", FAST_COSTS)
    kwargs.setdefault("request_timeout", 0.5)
    return ByzCastDeployment(OverlayTree({}, ("g1",)), **kwargs)


def test_f2_group_works():
    dep = one_group(f=2)
    assert dep.group_configs["g1"].n == 7
    client = dep.add_client("c1")
    for j in range(5):
        client.amulticast(destination("g1"), payload=("op", j))
    dep.run(until=5.0)
    assert client.pending() == 0
    assert len(client.completions) == 5


def test_invalid_wire_gets_error_not_delivery():
    dep = one_group()
    client = dep.add_client("c1")
    # Submit a raw (non-WireMulticast) command through the proxy.
    client._proxy("g1").submit(("raw", "junk"))
    dep.run(until=5.0)
    for app in dep.apps("g1"):
        assert app.delivered_messages() == []


def test_wire_of_another_origin_rejected():
    """c1 signs the request, but the wire names c2 as its origin: every
    replica refuses it, and c2's own multicast of that seq delivers."""
    dep = one_group()
    client, victim = dep.add_client("c1"), dep.add_client("c2")
    client._proxy("g1").submit(WireMulticast(sender="c2", seq=1, dst=("g1",),
                                             payload=("x",)))
    dep.run(until=5.0)
    assert dep.monitor.counters["byzcast.foreign_submission"] == 4
    for app in dep.apps("g1"):
        assert app.delivered_messages() == []
    victim.amulticast(destination("g1"), payload=("y",))
    dep.run(until=10.0)
    for app in dep.apps("g1"):
        assert [m.payload for m in app.delivered_messages()] == [("y",)]


def test_latency_measured_from_submit_to_f_plus_1_replies():
    dep = one_group()
    client = dep.add_client("c1")
    seen = []
    client.amulticast(destination("g1"), payload=("x",),
                      callback=lambda m, lat, results: seen.append(lat))
    dep.run(until=5.0)
    assert len(seen) == 1
    assert 0 < seen[0] < 0.1


def test_the_single_group_answers_live_with_the_delivery():
    """g1 is the message's destination entry group, so its ordered reply is
    the delivery itself: each of the 2f+1 members of regency 0's quorum,
    which the request went to, sends ``("delivered", ...)`` as it executes
    and no request is retransmitted."""
    dep = one_group()
    client = dep.add_client("c1", retransmit_timeout=0.5)
    replies = []
    handle = client.on_message

    def spy(src, payload):
        replies.append((src, payload.result[0]))
        handle(src, payload)

    client.on_message = spy
    client.amulticast(destination("g1"), payload=("x",))
    dep.run(until=5.0)
    config = dep.group_configs["g1"]
    assert sorted(replies) == [(name, "delivered") for name in regency_quorum(
        config.replicas, config.f, 0)]
    assert client.completions[0][1] < 0.1
    assert "proxy.retransmit" not in dep.monitor.counters


def test_wan_site_placement():
    regions = ["CA", "VA", "EU", "JP"]
    dep = one_group(sites=lambda group_id, index: regions[index])
    sites = {dep.network.site_of(name)
             for name in dep.group_configs["g1"].replicas}
    # Sites were honored... but the default network has no WAN matrix, so
    # just assert registration happened per-site.
    assert sites == set(regions)
