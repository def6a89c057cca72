"""Edge cases for the single-group (BFT-SMaRt) deployment."""

from __future__ import annotations

from repro.bcast.reconfig import regency_quorum
from repro.baseline.single_group import SingleGroupDeployment
from repro.types import destination
from tests.helpers import FAST_COSTS


def test_f2_group_works():
    dep = SingleGroupDeployment(f=2, costs=FAST_COSTS, request_timeout=0.5)
    assert dep.config.n == 7
    client = dep.add_client("c1")
    for j in range(5):
        client.amulticast(destination("g1"), payload=("op", j))
    dep.run(until=5.0)
    assert client.pending() == 0
    assert len(client.completions) == 5


def test_invalid_wire_gets_error_not_delivery():
    dep = SingleGroupDeployment(costs=FAST_COSTS, request_timeout=0.5)
    client = dep.add_client("c1")
    # Submit a raw (non-WireMulticast) command through the proxy.
    client.proxy.submit(("raw", "junk"))
    dep.run(until=5.0)
    for app in dep.apps():
        assert app.delivered_messages() == []


def test_unsigned_wire_rejected():
    from repro.core.messages import WireMulticast

    dep = SingleGroupDeployment(costs=FAST_COSTS, request_timeout=0.5)
    client = dep.add_client("c1")
    client.proxy.submit(WireMulticast(sender="c1", seq=1, dst=("g1",),
                                      payload=("x",)))
    dep.run(until=5.0)
    for app in dep.apps():
        assert app.delivered_messages() == []


def test_latency_measured_from_submit_to_f_plus_1_replies():
    dep = SingleGroupDeployment(costs=FAST_COSTS, request_timeout=0.5)
    client = dep.add_client("c1")
    seen = []
    client.amulticast(destination("g1"), payload=("x",),
                      callback=lambda m, lat: seen.append(lat))
    dep.run(until=5.0)
    assert len(seen) == 1
    assert 0 < seen[0] < 0.1


def test_the_single_group_answers_live_its_ack_is_the_delivery():
    """``("ack",)`` is what a ByzCast entry group that is not a destination
    holds back until a retransmission; here it is the delivery itself, so
    each of the 2f+1 members of regency 0's quorum, which the request went
    to, sends it as it executes and no request is retransmitted."""
    dep = SingleGroupDeployment(costs=FAST_COSTS, request_timeout=0.5)
    client = dep.add_client("c1", retransmit_timeout=0.5)
    replies = []
    handle = client.on_message

    def spy(src, payload):
        replies.append((src, payload.result))
        handle(src, payload)

    client.on_message = spy
    client.amulticast(destination("g1"), payload=("x",))
    dep.run(until=5.0)
    assert sorted(replies) == [(name, ("ack",)) for name in regency_quorum(
        dep.config.replicas, dep.config.f, 0)]
    assert client.completions[0][1] < 0.1
    assert "proxy.retransmit" not in dep.monitor.counters


def test_wan_site_placement():
    dep = SingleGroupDeployment(costs=FAST_COSTS,
                                sites=["CA", "VA", "EU", "JP"])
    sites = {dep.network.site_of(name) for name in dep.config.replicas}
    # Sites were honored... but the default network has no WAN matrix, so
    # just assert registration happened per-site.
    assert sites == {"CA", "VA", "EU", "JP"}
