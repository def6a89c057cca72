"""Adversarial battery for the unordered read tier (docs/READS.md).

Every Byzantine read behaviour is exercised twice: with the f+1 quorum
check **disabled** (a ``ReadProxy`` mutant overriding ``quorum``) the
unsafe outcome is demonstrated, with the check on it is prevented —
pinning that the quorum match is the load-bearing defence, not an
accident of scheduling.  The
battery closes with the invariant the tier exists to uphold: a correct
client never returns a value no correct replica executed.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest

from repro.bcast.client import GroupProxy, ReadProxy
from repro.bcast.messages import ReadReply, ReadRequest, Reply
from repro.env.actor import Actor
from repro.faults.behaviors import (
    EquivocatingReadReplica,
    FabricatedReadReplica,
    SilentReadReplica,
    SlowReadReplica,
    StaleReadReplica,
)
from tests.helpers import Harness, make_config


class FirstReplyReadProxy(ReadProxy):
    """Mutant: any single valid reply is accepted."""

    quorum = 1


class FVotesReadProxy(ReadProxy):
    """Mutant: accepts f matching replies, not f+1."""

    @property
    def quorum(self) -> int:
        return self.f


class ReadClient(Actor):
    """A scripted client speaking both tiers: ordered writes + read probes."""

    def __init__(self, name, runtime, config, registry,
                 read_timeout: float = 0.3, read_proxy=ReadProxy) -> None:
        super().__init__(name, runtime)
        self.proxy = GroupProxy(
            self, config.group_id, config.replicas, config.f, registry,
            retransmit_timeout=4.0,
        )
        self.reads = read_proxy(
            self, config.group_id, config.replicas, config.f)
        self.reads.read_timeout = read_timeout
        self.reads.max_retries = 1
        self.results: List[Any] = []
        #: (cid, result, voters) per accepted read, in acceptance order
        self.accepted: List[Tuple[int, Any, frozenset]] = []
        self.exhausted = 0
        #: (rid, replica) per read probe sent, in send order
        self.probes: List[Tuple[int, str]] = []

    def send(self, dst: str, payload: Any) -> None:
        if isinstance(payload, ReadRequest):
            self.probes.append((payload.rid, dst))
        super().send(dst, payload)

    def asked(self, rid: int) -> set:
        return {dst for probe, dst in self.probes if probe == rid}

    def submit(self, command: Any) -> int:
        return self.proxy.submit(command, self.results.append)

    def read(self, payload: Any = ("peek",)) -> int:
        return self.reads.read(
            payload,
            on_accept=lambda cid, result, voters:
                self.accepted.append((cid, result, frozenset(voters))),
            on_exhausted=lambda: setattr(self, "exhausted", self.exhausted + 1),
        )

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Reply):
            self.proxy.handle_reply(src, payload)
        elif isinstance(payload, ReadReply):
            self.reads.handle_read_reply(src, payload)


def add_read_client(h: Harness, **kwargs) -> ReadClient:
    client = ReadClient(f"rc{len(h.clients)}", h.runtime, h.config,
                        h.registry, **kwargs)
    h.network.register(client)
    h.clients.append(client)
    return client


def correct_read_values(h: Harness, byzantine: Tuple[str, ...]) -> set:
    """Every value any correct replica would serve for ``("peek",)``."""
    values = set()
    for replica in h.group.replicas:
        if replica.name in byzantine:
            continue
        values.add(replica.app.read(("peek",)))
    return values


def test_optimistic_read_happy_path():
    h = Harness()
    client = add_read_client(h)
    for j in range(4):
        client.submit(("op", j))
    h.run(until=3.0)
    assert len(client.results) == 4
    client.read()
    h.loop.run(until=5.0)
    assert client.exhausted == 0
    [(cid, result, voters)] = client.accepted
    assert result == ("executed", 4)
    # cids number consensus *batches*; the quorum vouched for the replicas'
    # fully-applied cursor, whatever batching produced it
    assert cid == h.group.replicas[0]._applied_cid >= 0
    assert len(voters) >= h.config.f + 1


def test_stale_read_replica_cannot_roll_back():
    byz = ("g1/r3",)
    h = Harness(replica_classes={"g1/r3": StaleReadReplica})
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    client.read()  # pins the stale replica at ("executed", 1)
    h.loop.run(until=3.0)
    for j in range(1, 5):
        client.submit(("op", j))
    h.loop.run(until=6.0)
    client.read()
    h.loop.run(until=8.0)
    assert client.exhausted == 0
    fresh = client.accepted[-1]
    # The stale pair never outvotes the honest majority: the second read
    # reflects every applied command, and the pinned replica is no voter.
    assert fresh[1] == ("executed", 5)
    assert "g1/r3" not in fresh[2]
    assert fresh[1] in correct_read_values(h, byz)


def test_equivocating_reader_never_joins_a_quorum():
    h = Harness(replica_classes={"g1/r2": EquivocatingReadReplica})
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    for _ in range(3):
        client.read()
    h.loop.run(until=5.0)
    assert client.exhausted == 0
    assert len(client.accepted) == 3
    for cid, result, voters in client.accepted:
        assert result == ("executed", 1)
        assert "g1/r2" not in voters


def test_f_colluding_fabricators_fail_the_quorum():
    """f identical lies are one vote short of f+1 — the arithmetic holds."""
    byz = ("g2/r0", "g2/r1")
    h = Harness(config=make_config("g2", f=2),
                replica_classes={name: FabricatedReadReplica for name in byz})
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    client.read()
    h.loop.run(until=4.0)
    assert client.exhausted == 0
    [(cid, result, voters)] = client.accepted
    assert result == ("executed", 1)
    assert result != FabricatedReadReplica.FABRICATION
    assert not set(byz) & voters
    assert cid < FabricatedReadReplica.CID_BOOST


def test_colluding_fabricators_win_with_quorum_disabled():
    """Mutation guard: drop the quorum to f and the lie gets through.

    This is the unsafe outcome the f+1 match prevents — two perfectly
    consistent fabrications form a 2-vote "quorum" and the client returns
    a value no correct replica ever executed.
    """
    byz = ("g2/r0", "g2/r1")
    h = Harness(config=make_config("g2", f=2),
                replica_classes={name: FabricatedReadReplica for name in byz})
    client = add_read_client(h, read_proxy=FVotesReadProxy)   # guard disabled
    client.submit(("op", 0))
    h.run(until=2.0)
    correct = correct_read_values(h, byz)
    # Slow network partitions, crashes — anything that silences the honest
    # majority for a moment — let the colluders' replies arrive alone.
    for name in ("g2/r2", "g2/r3", "g2/r4", "g2/r5", "g2/r6"):
        h.group.replica(name).crash()
    client.read()
    h.loop.run(until=4.0)
    accepted_values = [result for _, result, _ in client.accepted]
    assert FabricatedReadReplica.FABRICATION in accepted_values
    assert FabricatedReadReplica.FABRICATION not in correct


def test_byzantine_majority_of_replies_forces_fallback():
    """No honest quorum reachable -> the read exhausts toward ordered.

    Crash all but one honest replica (an extreme beyond-threshold run):
    the fabricators agree with each other but are below quorum, the lone
    honest survivor has no partner — the proxy must retry, exhaust and
    signal fallback rather than accept either side.
    """
    byz = ("g2/r0", "g2/r1")
    h = Harness(config=make_config("g2", f=2),
                replica_classes={name: FabricatedReadReplica for name in byz})
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    for name in ("g2/r2", "g2/r3", "g2/r4", "g2/r5"):
        h.group.replica(name).crash()
    client.read()
    h.loop.run(until=10.0)
    assert client.accepted == []
    assert client.exhausted == 1


def test_correct_client_never_returns_unexecuted_value():
    """The tier's one-line contract, pinned across every adversary at once."""
    byz = ("g2/r0", "g2/r1")
    h = Harness(config=make_config("g2", f=2),
                replica_classes={"g2/r0": FabricatedReadReplica,
                                 "g2/r1": StaleReadReplica})
    client = add_read_client(h)
    h.run(until=0.01)
    for j in range(3):
        client.submit(("op", j))
        h.loop.run(until=h.loop.now + 1.0)
        client.read()
    h.loop.run(until=12.0)
    correct = correct_read_values(h, byz) | {
        ("executed", n) for n in range(4)   # any honest prefix is fair game
    }
    for _, result, _ in client.accepted:
        assert result in correct


# -- first probes at f+1 ------------------------------------------------------


def test_a_round_first_asks_the_last_quorums_voters():
    h = Harness()
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    first = client.read()
    h.loop.run(until=3.0)
    second = client.read()
    h.loop.run(until=4.0)
    assert client.asked(first) == set(h.config.replicas)
    assert client.asked(second) == client.accepted[0][2]
    assert len(client.asked(second)) == h.config.f + 1
    assert [result for _, result, _ in client.accepted] == [("executed", 1)] * 2
    assert h.monitor.counters["read.widened"] == 0


def test_an_f2_groups_first_probes_are_three():
    h = Harness(config=make_config("g2", f=2))
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    first = client.read()
    h.loop.run(until=3.0)
    second = client.read()
    h.loop.run(until=4.0)
    assert len(client.asked(first)) == 7
    assert len(client.asked(second)) == 3
    assert len(client.accepted) == 2


def test_a_silent_first_probe_costs_one_round_timeout_once():
    h = Harness(replica_classes={"g1/r1": SilentReadReplica})
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    client.reads.voters = frozenset({"g1/r1", "g1/r2"})  # r1 fell silent
    start = h.loop.now
    rid = client.read()
    h.loop.run(until=start + client.reads.read_timeout - 0.01)
    assert client.accepted == []   # r2 alone cannot vouch; r1 never will
    assert client.asked(rid) == {"g1/r1", "g1/r2"}
    h.loop.run(until=start + client.reads.read_timeout + 0.05)
    [(_, result, voters)] = client.accepted
    assert result == ("executed", 1) and "g1/r1" not in voters
    assert h.monitor.counters["read.retry"] == 1
    # the retry's voters are the next first probes: no second timeout
    start = h.loop.now
    rid = client.read()
    h.loop.run(until=start + 0.05)
    assert len(client.accepted) == 2
    assert client.asked(rid) == voters
    assert h.monitor.counters["read.retry"] == 1


@pytest.mark.parametrize("liar", [FabricatedReadReplica, StaleReadReplica,
                                  EquivocatingReadReplica])
def test_a_lying_first_probe_costs_one_widening_and_no_timeout(liar):
    h = Harness(replica_classes={"g1/r1": liar})
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    client.read()   # asks everyone; pins the stale replica at op 0
    h.loop.run(until=3.0)
    client.submit(("op", 1))
    h.loop.run(until=5.0)
    client.reads.voters = frozenset({"g1/r1", "g1/r2"})
    start = h.loop.now
    rid = client.read()
    h.loop.run(until=start + client.reads.read_timeout - 0.01)
    assert client.asked(rid) == set(h.config.replicas)
    assert h.monitor.counters["read.widened"] == 1
    assert h.monitor.counters["read.retry"] == 0
    _, result, voters = client.accepted[-1]
    assert len(client.accepted) == 2
    assert result == ("executed", 2)
    assert "g1/r1" not in voters and "g1/r1" not in client.reads.voters


def test_a_slow_first_probe_delays_a_read_less_than_a_round_timeout():
    h = Harness(replica_classes={"g1/r1": SlowReadReplica})
    client = add_read_client(h, read_timeout=1.0)
    assert SlowReadReplica.delay < client.reads.read_timeout
    client.submit(("op", 0))
    h.run(until=2.0)
    client.reads.voters = frozenset({"g1/r1", "g1/r2"})
    start = h.loop.now
    rid = client.read()
    h.loop.run(until=start + SlowReadReplica.delay - 0.01)
    assert client.accepted == []
    h.loop.run(until=start + client.reads.read_timeout - 0.01)
    [(_, result, voters)] = client.accepted
    assert result == ("executed", 1)
    assert result in correct_read_values(h, ())
    assert voters == {"g1/r1", "g1/r2"} == client.asked(rid)
    assert h.monitor.counters["read.retry"] == 0
    assert h.monitor.counters["read.widened"] == 0


def test_a_departed_voter_is_replaced_by_a_current_member():
    h = Harness()
    client = add_read_client(h)
    client.submit(("op", 0))
    h.run(until=2.0)
    client.read()
    h.loop.run(until=3.0)
    voters = client.accepted[0][2]
    gone = min(voters)
    members = tuple(r for r in h.config.replicas if r != gone)
    client.reads.update_replicas(members, 1)
    rid = client.read()
    h.loop.run(until=4.0)
    stand_in = next(r for r in members if r not in voters)
    assert client.asked(rid) == (voters - {gone}) | {stand_in}
    assert len(client.accepted) == 2


def read_reply(client: ReadClient, src: str, rid: int, cid: int,
               value: Any) -> ReadReply:
    """``src``'s well-formed answer to ``client``'s round ``rid``."""
    return ReadReply(group="g1", sender=src, req_sender=client.name,
                     rid=rid, cid=cid, result=value)


def test_a_departed_replicas_read_vote_no_longer_counts():
    h = Harness()
    client = add_read_client(h)
    rid = client.read()   # replies are fed by hand below
    value = ("executed", 0)

    def reply(src):
        return read_reply(client, src, rid, 0, value)

    client.reads.handle_read_reply("g1/r0", reply("g1/r0"))
    client.reads.update_replicas(("g1/r1", "g1/r2", "g1/r3", "g1/r4"), 1)
    client.reads.handle_read_reply("g1/r1", reply("g1/r1"))
    assert client.accepted == []
    client.reads.handle_read_reply("g1/r2", reply("g1/r2"))
    assert client.accepted == [(0, value, frozenset({"g1/r1", "g1/r2"}))]


def test_a_matching_quorum_below_the_session_floor_is_refused():
    """docs/READS.md rule 3: after a quorum at cid c, a matching pair below
    c (a lagging correct replica plus a Byzantine echo) is not accepted."""
    h = Harness()
    client = add_read_client(h)
    fresh, old = ("executed", 5), ("executed", 2)
    rid = client.read()   # replies are fed by hand
    for src in ("g1/r0", "g1/r1"):
        client.reads.handle_read_reply(src, read_reply(client, src, rid, 5,
                                                       fresh))
    assert client.accepted == [(5, fresh, frozenset({"g1/r0", "g1/r1"}))]
    rid = client.read()
    for src in ("g1/r2", "g1/r3"):   # r2 lags, r3 echoes its stale pair
        client.reads.handle_read_reply(src, read_reply(client, src, rid, 2,
                                                       old))
    assert len(client.accepted) == 1
    assert h.monitor.counters["read.stale_quorum"] == 1
    assert client.reads.floor == 5


# -- the retransmit-backoff bugfix (note_progress discipline) ----------------


class _FastGarbageReplier(Actor):
    """Answers every request instantly with a well-formed garbage Reply."""

    def on_message(self, src: str, payload: Any) -> None:
        from repro.bcast.messages import Request

        if isinstance(payload, Request):
            self.send(src, Reply(
                group=payload.group, sender=self.name,
                req_sender=payload.sender, req_seq=payload.seq,
                result=("garbage",)))


class _Sink(Actor):
    """Receives everything, never answers (an unresponsive replica)."""

    def on_message(self, src: str, payload: Any) -> None:
        pass


def _dead_group(h: Harness, config) -> None:
    """Register the 'dead' group: one garbage fast-replier, three sinks."""
    h.network.register(_FastGarbageReplier(config.replicas[0], h.runtime))
    for name in config.replicas[1:]:
        h.network.register(_Sink(name, h.runtime))


def test_bare_replies_never_reset_backoff():
    """A Byzantine fast-replier must not pin the retransmit backoff.

    The proxy targets a group that never answers except for one garbage
    fast-replier; retries must keep climbing (exponential backoff), not
    reset on every bare reply.
    """
    h = Harness()
    config = make_config("dead")   # nobody home but the garbage replier
    client = ReadClient("rc0", h.runtime, config, h.registry)
    client.proxy.retransmit_timeout = 0.1
    h.network.register(client)
    _dead_group(h, config)
    seq = client.submit(("op", 0))
    h.loop.run(until=5.0)
    entry = client.proxy._outstanding[seq]
    # ~5s at 0.1s base: without the fix retries would sit at 0 (each bare
    # reply "made progress"); with it the backoff ladder has been climbed.
    assert entry.retries >= 4
    assert client.results == []


def test_note_progress_resets_backoff_only_when_called():
    h = Harness()
    config = make_config("dead")
    client = ReadClient("rc0", h.runtime, config, h.registry)
    client.proxy.retransmit_timeout = 0.1
    h.network.register(client)
    _dead_group(h, config)
    seq = client.submit(("op", 0))
    h.loop.run(until=2.0)
    entry = client.proxy._outstanding[seq]
    climbed = entry.retries
    assert climbed >= 2
    client.proxy.note_progress(seq)
    assert entry.retries == 0
