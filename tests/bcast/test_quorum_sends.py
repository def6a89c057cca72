"""Who is sent what: requests go to the 2f+1 members of the quorum of the
regency a proxy estimates, replies come live from that quorum, and the
leader's PROPOSE is its WRITE (docs/PROTOCOL.md, "Who is sent what")."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bcast.consensus import ConsensusInstance
from repro.bcast.messages import Accept, Propose, Reply, Request, Write
from repro.bcast.reconfig import View, regency_quorum
from repro.crypto.signatures import sign
from repro.faults.behaviors import EquivocatingLeaderReplica
from tests.helpers import FAST_COSTS, Harness, make_config


class _Spy:
    """Records who a proxy's owner sent each request to."""

    def __init__(self, client) -> None:
        self.sends = []
        send = client.send

        def spy(dst, payload):
            if isinstance(payload, Request):
                self.sends.append((payload.seq, dst))
            send(dst, payload)

        client.send = spy

    def to(self, seq):
        return [dst for sent, dst in self.sends if sent == seq]


def test_a_quorum_is_the_leader_and_the_next_2f_members_in_view_order():
    members = tuple(f"g1/r{index}" for index in range(7))
    assert regency_quorum(members, 2, 0) == members[:5]
    assert regency_quorum(members, 2, 5) == (
        "g1/r5", "g1/r6", "g1/r0", "g1/r1", "g1/r2")
    view = View(members[:4], 1)
    for regency in range(8):
        quorum = view.quorum_of(regency)
        assert len(quorum) == 3 and quorum[0] == view.leader_of(regency)
    # the quorum of r holds the leaders of r ... r + 2f
    assert {view.leader_of(r) for r in range(3, 6)} == set(view.quorum_of(3))


def test_the_estimate_is_the_f_plus_1_th_highest_report_and_never_falls():
    h = Harness(f=2)
    proxy = h.add_client().proxy

    def report(member, regency):
        proxy.handle_reply(member, Reply("g1", member, "c0", 99, "x", regency))

    report("g1/r6", 10 ** 6)
    report("g1/r5", 10 ** 6)
    assert proxy.regency == 0  # f liars alone move nothing
    report("g1/r0", 3)
    assert proxy.regency == 3
    report("mallory", 9)        # not a member
    report("g1/r1", "nine")     # not a regency
    report("g1/r0", 1)          # lower: the estimate never falls
    assert proxy.regency == 3
    assert proxy.targets() == regency_quorum(proxy.replicas, 2, 3)
    # a departed member's report stops counting
    proxy.update_replicas(("g1/r0", "g1/r1", "g1/r2", "g1/r3", "g1/r4",
                           "g1/r7", "g1/r8"), 2)
    report("g1/r1", 4)
    report("g1/r2", 4)
    assert proxy.regency == 3  # the third highest report is g1/r0's
    report("g1/r3", 4)
    assert proxy.regency == 4


def test_a_request_goes_to_the_quorum_and_its_members_reply_live():
    h = Harness()
    client = h.add_client()
    spy = _Spy(client)
    replies = []
    handle = client.on_message

    def record(src, payload):
        replies.append(src)
        handle(src, payload)

    client.on_message = record
    client.submit(("op", 0))
    h.run(until=2.0)
    assert client.results == [("ok", ("op", 0))]
    assert spy.to(1) == ["g1/r0", "g1/r1", "g1/r2"]
    assert sorted(replies) == ["g1/r0", "g1/r1", "g1/r2"]
    # g1/r3 executed it and keeps the result for a retransmission
    assert h.group.replica("g1/r3")._replies.get("c0", 1) == ("ok", ("op", 0))
    assert "proxy.retransmit" not in h.monitor.counters


@pytest.mark.parametrize("f", [1, 2])
def test_a_crashed_leader_is_replaced_with_no_client_retransmission(f):
    """The quorum's f+1 correct followers hold the request, their request
    timers depose the crashed leader, and the next regency's quorum answers
    live: the client never times out."""
    h = Harness(f=f)
    client = h.add_client(retransmit_timeout=4.0)
    h.group.replica("g1/r0").crash()
    for op in range(3):
        client.submit(("op", op))
    h.run(until=3.5)
    assert sorted(client.results) == [("ok", ("op", op)) for op in range(3)]
    assert h.monitor.counters["regency.installed"] > 0
    assert "proxy.retransmit" not in h.monitor.counters


def test_a_proxy_2f_plus_1_regencies_behind_completes_by_widening():
    """The group runs regency 3 (leader g1/r3) and the proxy believes 0: its
    first send misses the leader, its retransmission goes to every member.
    The replies report regency 3, so the next request goes straight to
    regency 3's quorum."""
    h = Harness(config=make_config("g1", request_timeout=5.0))
    for replica in h.group.replicas:
        replica.regency.install(3)
    client = h.add_client(retransmit_timeout=0.5)
    spy = _Spy(client)
    client.submit(("op", 0))
    h.run(until=1.5)
    assert client.results == [("ok", ("op", 0))]
    assert spy.to(1) == ["g1/r0", "g1/r1", "g1/r2",
                         "g1/r0", "g1/r1", "g1/r2", "g1/r3"]
    assert h.monitor.counters["proxy.retransmit"] == 1
    assert client.proxy.regency == 3
    client.submit(("op", 1))
    h.loop.run(until=2.5)
    assert client.results[-1] == ("ok", ("op", 1))
    assert spy.to(2) == ["g1/r3", "g1/r0", "g1/r1"]
    assert h.monitor.counters["proxy.retransmit"] == 1
    assert "regency.installed" not in h.monitor.counters


def test_only_a_reply_that_may_leave_live_is_charged():
    """``reply_per_msg`` is charged at the quorum (the leader included,
    as before) and nowhere else: g1/r3 executes the request for its
    ``execute_per_msg`` alone."""
    costs = dataclasses.replace(FAST_COSTS, reply_per_msg=1e-3)
    h = Harness(config=make_config("g1", costs=costs))
    charged = {}
    for replica in h.group.replicas:
        def spy(cost, callback, name=replica.name, work=replica.work):
            func = getattr(callback, "func", None)
            if getattr(func, "__name__", "") == "_execute_batch":
                charged[name] = cost
            work(cost, callback)
        replica.work = spy
    client = h.add_client()
    client.submit(("op", 0))
    h.run(until=1.0)
    assert client.results == [("ok", ("op", 0))]
    live = costs.execute_per_msg + costs.reply_per_msg
    assert charged == {"g1/r0": live, "g1/r1": live, "g1/r2": live,
                       "g1/r3": costs.execute_per_msg}


# ------------------------------------------- the leader's PROPOSE is its WRITE


def _sent_by(replica, forward=True):
    """What ``replica`` sends from now on, as ``(dst, payload)`` pairs; with
    ``forward`` False nothing it sends leaves."""
    sent = []
    send = replica.send

    def spy(dst, payload):
        sent.append((dst, payload))
        if forward:
            send(dst, payload)

    replica.send = spy
    return sent


def test_the_leader_sends_no_write_and_each_follower_writes_to_its_peers():
    h = Harness()
    sent = {replica.name: _sent_by(replica) for replica in h.group.replicas}
    client = h.add_client()
    for op in range(10):
        client.submit(("op", op))
    h.run(until=5.0)
    assert len(client.results) == 10
    decided = h.group.replica("g1/r0").log.next_execute
    assert decided > 1
    writes = {name: [payload for __, payload in log
                     if isinstance(payload, Write)]
              for name, log in sent.items()}
    assert writes["g1/r0"] == []
    for follower in ("g1/r1", "g1/r2", "g1/r3"):
        assert len(writes[follower]) == 3 * decided
    assert "regency.installed" not in h.monitor.counters


def test_a_follower_reaches_its_write_quorum_with_no_write_from_the_leader():
    """The validated PROPOSE is the leader's vote: with the follower's own
    WRITE and one peer's, 2f+1 members voted, and the follower ACCEPTs."""
    h = Harness()
    follower = h.group.replica("g1/r1")
    sent = _sent_by(follower, forward=False)
    unsigned = Request("g1", "c0", 1, ("op", 0))
    request = unsigned.with_signature(
        sign(h.registry, "c0", unsigned.signed_part()))
    proposal = Propose("g1", 0, 0, (request,), "g1/r0")
    d = proposal.batch_digest()
    follower.on_message("g1/r0", proposal)
    h.loop.run(until=0.01)
    instance = follower._consensus[0]
    members = h.config.replicas
    assert instance.writes.voters((0, d), members) == ["g1/r0", "g1/r1"]
    assert [dst for dst, payload in sent if isinstance(payload, Write)] == [
        "g1/r0", "g1/r2", "g1/r3"]
    assert instance.write_cert is None
    follower.on_message("g1/r2", Write("g1", 0, 0, d, "g1/r2"))
    h.loop.run(until=0.02)
    assert instance.write_cert is not None and instance.write_cert.digest == d
    assert [dst for dst, payload in sent if isinstance(payload, Accept)] == [
        "g1/r0", "g1/r2", "g1/r3"]


@pytest.mark.parametrize("f", [1, 2])
def test_an_equivocating_leader_never_write_certifies_two_digests(
        f, monkeypatch):
    """The leader of regency 0 proposes a pooled batch to the first half of
    its followers and the batch reversed to the second half.  Over the run,
    per (cid, regency) at most one digest is write-certified anywhere.  At
    f = 1 the second half is 2f followers, so their WRITEs and the
    leader's PROPOSE certify the reversed batch in regency 0 — and the
    first half's digest stays uncertified."""
    certified = {}
    update = ConsensusInstance._update_cert

    def record(instance, regency, digest):
        certified.setdefault((instance.cid, regency), set()).add(digest)
        update(instance, regency, digest)

    monkeypatch.setattr(ConsensusInstance, "_update_cert", record)
    h = Harness(f=f, replica_classes={"g1/r0": EquivocatingLeaderReplica})
    # one request from each of six clients: either order is FIFO-valid
    requests = []
    for client in [h.add_client() for __ in range(6)]:
        unsigned = Request("g1", client.name, 1, ("op", client.name))
        requests.append(unsigned.with_signature(
            sign(h.registry, client.name, unsigned.signed_part())))
    for replica in h.group.replicas:
        for request in requests:
            replica.on_message(request.sender, request)
    h.run(until=30.0)
    assert h.monitor.counters["byzantine.equivocation"] > 0
    assert all(len(digests) == 1 for digests in certified.values())
    assert ((0, 0) in certified) == (f == 1)
    correct = h.group.replicas[1:]
    assert all(r.regency.current >= 1 for r in correct)
    sequences = [r.app.executed for r in correct]
    assert sorted(sequences[0]) == sorted(r.command for r in requests)
    assert all(seq == sequences[0] for seq in sequences)
