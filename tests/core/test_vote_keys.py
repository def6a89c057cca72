"""What a reply votes for: the canonical bytes of the result it carries.

A client accepts a result on f+1 matching replies (docs/PROTOCOL.md, "Who
counts"), and "matching" is byte equality of the results' canonical form
(:func:`repro.crypto.digest.canonical_bytes`), which tags every value with
its type: ``1``, ``True`` and ``1.0`` are three different votes, and so
are ``("x",)`` and ``["x"]``, which a peer decodes as different values.
Each test lets one Byzantine replica answer such a look-alike beside one
correct replica, at f = 1, for the three vote counters: the entry group's
:class:`~repro.bcast.client.GroupProxy`, the
:class:`~repro.bcast.client.ReadProxy` and the
:class:`~repro.core.client.MulticastClient`'s destination-group tally.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bcast.client import GroupProxy, ReadProxy
from repro.bcast.messages import ReadReply, Reply
from repro.core.deployment import ByzCastDeployment
from repro.core.messages import MulticastReply
from repro.core.tree import OverlayTree
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.env import Monitor
from repro.types import destination
from tests.helpers import FAST_COSTS

REPLICAS = ("g1/r0", "g1/r1", "g1/r2", "g1/r3")

#: (what the correct replicas answer, what the Byzantine one answers)
LOOKALIKES = [(1, True), (1, 1.0), (("x",), ["x"]), (True, 1.0),
              ((1, ("x",)), (True, ["x"]))]


class Owner:
    """A proxy's owner that sends nowhere and never fires a timer."""

    name = "c"

    def __init__(self) -> None:
        self.monitor = Monitor()

    def send(self, dst, payload) -> None:
        pass

    def set_timer(self, delay, callback):  # pragma: no cover - not armed
        raise AssertionError("no timer is armed in these tests")


def group_proxy():
    """A proxy at f = 1 with request 1 outstanding; its accepted results."""
    results = []
    proxy = GroupProxy(Owner(), "g1", REPLICAS, 1, KeyRegistry(),
                       retransmit_timeout=None)
    proxy.submit(("op",), results.append)
    return proxy, results


def ordered_reply(src, result):
    return Reply("g1", src, "c", 1, result)


def read_proxy():
    """A proxy at f = 1 with round 1 open; its accepted (cid, result)s."""
    accepted = []
    owner = Owner()
    owner.set_timer = lambda delay, callback: None
    proxy = ReadProxy(owner, "g1", REPLICAS, 1)
    proxy.read(("peek",),
               on_accept=lambda cid, result, voters:
                   accepted.append((cid, result, voters)),
               on_exhausted=lambda: None)
    return proxy, accepted


def read_reply(src, result, cid=5):
    return ReadReply("g1", src, "c", 1, cid, result)


@pytest.mark.parametrize("correct, lookalike", LOOKALIKES)
def test_the_group_proxy_counts_a_lookalike_apart(correct, lookalike):
    proxy, results = group_proxy()
    proxy.handle_reply("g1/r0", ordered_reply("g1/r0", correct))
    proxy.handle_reply("g1/r3", ordered_reply("g1/r3", lookalike))
    assert results == [] and proxy.pending() == 1
    proxy.handle_reply("g1/r1", ordered_reply("g1/r1", correct))
    assert results == [correct]
    assert type(results[0]) is type(correct)


@pytest.mark.parametrize("correct, lookalike", LOOKALIKES)
def test_the_read_proxy_counts_a_lookalike_apart(correct, lookalike):
    proxy, accepted = read_proxy()
    proxy.handle_read_reply("g1/r0", read_reply("g1/r0", correct))
    proxy.handle_read_reply("g1/r3", read_reply("g1/r3", lookalike))
    assert accepted == []
    proxy.handle_read_reply("g1/r1", read_reply("g1/r1", correct))
    [(cid, result, voters)] = accepted
    assert (cid, result, voters) == (5, correct, {"g1/r0", "g1/r1"})
    assert type(result) is type(correct)


@pytest.mark.parametrize("correct, lookalike", LOOKALIKES)
def test_the_multicast_client_counts_a_lookalike_apart(correct, lookalike):
    """g2 is a destination below the entry group h1: it confirms by
    MulticastReply, on f+1 of its members' matching results."""
    deployment = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                                   costs=FAST_COSTS)
    client = deployment.add_client("c1")
    client.send = lambda dst, payload, *args, **kw: None
    confirmed = []
    client.amulticast(destination("g1", "g2"), ("x",),
                      callback=lambda message, latency, results:
                          confirmed.append(results))

    def reply(group, replica, result):
        client.on_message(replica, MulticastReply(group, replica, "c1", 1,
                                                  result))

    reply("g1", "g1/r0", "ok")
    reply("g1", "g1/r1", "ok")
    reply("g2", "g2/r0", correct)
    reply("g2", "g2/r3", lookalike)
    assert confirmed == [] and client.pending() == 1
    reply("g2", "g2/r1", correct)
    assert confirmed == [{"g1": "ok", "g2": correct}]
    assert type(confirmed[0]["g2"]) is type(correct)


def test_a_decoded_result_votes_with_a_copy_of_its_frames_bytes():
    """A dataclass result decoded from a frame carries its canonical bytes
    as a view of that frame: its vote is a ``bytes`` copy (the tally keeps
    no frame alive) and matches the vote of the object that was sent."""
    from repro.canonical import detach
    from repro.crypto.digest import canonical_bytes
    from repro.env import wire
    from repro.types import MessageId, MulticastMessage

    sent = MulticastMessage(MessageId("c", 1), frozenset({"g1"}), ("p",))
    decoded = wire.decode(wire.encode(ordered_reply("g1/r1", sent)))
    assert type(canonical_bytes(decoded.result)) is memoryview
    proxy, results = group_proxy()
    proxy.handle_reply("g1/r1", decoded)
    [key] = proxy._outstanding[1].votes._votes
    assert type(key) is bytes and detach(key) is key
    proxy.handle_reply("g1/r0", ordered_reply("g1/r0", sent))
    assert results == [sent]


SCALARS = (st.integers(min_value=-3, max_value=3) | st.booleans()
           | st.sampled_from([0.0, -0.0, 1.0, 1.5, float("inf")])
           | st.binary(max_size=2) | st.text(max_size=2))
RESULTS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3).map(tuple)
                   | st.lists(inner, max_size=3)),
    max_leaves=6)


def lookalike(value):
    """``value`` with every tuple a list, every int a bool or float where
    one exists: equal under ``==``, different on the wire."""
    if isinstance(value, tuple):
        return [lookalike(item) for item in value]
    if isinstance(value, list):
        return tuple(lookalike(item) for item in value)
    if type(value) is int and value in (0, 1):
        return bool(value)
    if type(value) is int:
        return float(value)
    return value


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_two_results_share_a_vote_exactly_when_their_reply_digests_are_equal(
        data):
    """The vote key decides matching exactly as ``digest(("reply", r))``
    did: two replies complete a quorum at f = 1 iff those are equal."""
    first = data.draw(RESULTS)
    second = data.draw(st.sampled_from([first, lookalike(first)]) | RESULTS)
    proxy, results = group_proxy()
    proxy.handle_reply("g1/r0", ordered_reply("g1/r0", first))
    proxy.handle_reply("g1/r1", ordered_reply("g1/r1", second))
    same = digest(("reply", first)) == digest(("reply", second))
    assert bool(results) == same
