"""Safety and liveness under Byzantine replicas (up to f per group)."""

from __future__ import annotations

import pytest

from repro.bcast.app import EchoApplication, ExecutionContext
from repro.bcast.messages import Request
from repro.bcast.reconfig import View
from repro.core.deployment import ByzCastDeployment
from repro.core.invariants import check_all, check_prefix_order
from repro.core.messages import WireMulticast
from repro.core.node import ByzCastApplication
from repro.core.relay import RelayInbox, RelayOutbox
from repro.core.tree import OverlayTree
from repro.faults.behaviors import (
    DuplicatingRelayApp,
    EquivocatingLeaderReplica,
    EquivocatingRelayApp,
    FabricatingRelayApp,
    ForgingCertificateLeaderReplica,
    LyingAckReplica,
    MuteReplica,
    QuorumSilentReplica,
    ReorderingRelayApp,
    SilentAckReplica,
    SilentRelayApp,
    SubsetRelayApp,
    WithholdingRelayApp,
    WrongVoteReplica,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign
from repro.faults.injector import schedule_ops
from repro.faults.nemesis import NemesisOp
from repro.sim.events import EventLoop
from repro.env.chaos import ChaosConfig, install_chaos
from repro.env.simbackend import SimRuntime
from repro.sim.latency import JitterLatency
from repro.types import destination
from tests.helpers import (
    FAST_COSTS,
    FakeReplica,
    Harness,
    configs_for,
    execute,
    wire_for,
)


def make_deployment(tree=None, ops=(), **kwargs) -> ByzCastDeployment:
    """A deployment (Byzantine code via ``replica_classes`` /
    ``app_overrides`` in ``kwargs``) with the fault ``ops`` armed."""
    tree = tree if tree is not None else OverlayTree.paper_tree()
    kwargs.setdefault("costs", FAST_COSTS)
    kwargs.setdefault("request_timeout", 0.3)
    dep = ByzCastDeployment(tree, **kwargs)
    schedule_ops(dep, ops)
    return dep


def assert_agreement(dep, group_id):
    sequences = [
        [m.payload for m in seq] for seq in dep.delivered_sequences(group_id)
    ]
    assert all(seq == sequences[0] for seq in sequences), sequences
    return sequences[0]


class TestBroadcastLayerByzantine:
    def test_equivocating_leader_safety_and_recovery(self):
        h = Harness(replica_classes={"g1/r0": EquivocatingLeaderReplica})
        client = h.add_client()
        for j in range(5):
            client.submit(("op", j))
        h.run(until=30.0)
        assert len(client.results) == 5
        correct = h.group.replicas[1:]
        sequences = [r.app.executed for r in correct]
        assert all(seq == sequences[0] for seq in sequences)
        assert sequences[0] == [("op", j) for j in range(5)]
        # A regency change dethroned the equivocator.
        assert all(r.regency.current >= 1 for r in correct)

    @pytest.mark.parametrize("name, equivocations", [("g1/r0", 0),
                                                     ("g1/r1", 1)])
    def test_the_equivocator_leads_by_its_view(self, name, equivocations):
        # After a Reconfig the view, not the static config, names the
        # leader: this view gives regency 0 to r1, the config to r0.
        h = Harness()
        view = View(("g1/r1", "g1/r0", "g1/r2", "g1/r3"), 1)
        replica = EquivocatingLeaderReplica(
            name, h.config, h.runtime, h.registry, EchoApplication(),
            view=view)
        replica.send = lambda dst, payload: None
        replica._send_propose(0, 0, (Request("g1", "c0", 1, ("op", 1)),))
        assert h.monitor.counters["byzantine.equivocation"] == equivocations

    def test_mute_replica_harmless(self):
        h = Harness(replica_classes={"g1/r2": MuteReplica})
        client = h.add_client()
        for j in range(10):
            client.submit(("op", j))
        h.run(until=10.0)
        assert len(client.results) == 10
        correct = [h.group.replicas[i] for i in (0, 1, 3)]
        sequences = [r.app.executed for r in correct]
        assert all(seq == sequences[0] for seq in sequences)

    def test_wrong_vote_replica_harmless(self):
        h = Harness(replica_classes={"g1/r3": WrongVoteReplica})
        client = h.add_client()
        for j in range(10):
            client.submit(("op", j))
        h.run(until=10.0)
        assert len(client.results) == 10
        correct = h.group.replicas[:3]
        sequences = [r.app.executed for r in correct]
        assert all(seq == sequences[0] for seq in sequences)
        assert all(r.regency.current == 0 for r in correct)


class TestByzCastRelayFaults:
    def test_silent_relay_does_not_block_delivery(self):
        tree = OverlayTree.two_level(["g1", "g2", "g3", "g4"])
        dep = make_deployment(
            tree, app_overrides={"h1": {"h1/r0": SilentRelayApp}})
        client = dep.add_client("c1")
        for j in range(5):
            client.amulticast(destination("g1", "g2"), payload=("m", j))
        dep.run(until=10.0)
        assert client.pending() == 0
        for gid in ("g1", "g2"):
            order = assert_agreement(dep, gid)
            assert order == [("m", j) for j in range(5)]

    def test_fabricated_relay_never_delivered(self):
        tree = OverlayTree.two_level(["g1", "g2", "g3", "g4"])
        dep = make_deployment(
            tree, app_overrides={"h1": {"h1/r1": FabricatingRelayApp}})
        client = dep.add_client("c1")
        client.amulticast(destination("g1", "g2"), payload=("real",))
        dep.run(until=10.0)
        assert client.pending() == 0
        for gid in ("g1", "g2"):
            order = assert_agreement(dep, gid)
            assert order == [("real",)]
            for seq in dep.delivered_sequences(gid):
                assert all(m.payload != ("fabricated",) for m in seq)

    def test_duplicating_relay_delivers_once(self):
        tree = OverlayTree.two_level(["g1", "g2", "g3", "g4"])
        dep = make_deployment(
            tree, app_overrides={"h1": {"h1/r2": DuplicatingRelayApp}})
        client = dep.add_client("c1")
        for j in range(5):
            client.amulticast(destination("g1", "g3"), payload=("m", j))
        dep.run(until=10.0)
        assert client.pending() == 0
        for gid in ("g1", "g3"):
            order = assert_agreement(dep, gid)
            assert order == [("m", j) for j in range(5)]

    def test_silent_relay_in_three_level_tree(self):
        dep = make_deployment(app_overrides={
            "h1": {"h1/r0": SilentRelayApp},
            "h2": {"h2/r3": SilentRelayApp},
        })
        client = dep.add_client("c1")
        client.amulticast(destination("g1", "g3"), payload=("deep",))
        dep.run(until=10.0)
        assert client.pending() == 0
        for gid in ("g1", "g3"):
            assert assert_agreement(dep, gid) == [("deep",)]


RELAY_ADVERSARIES = (SilentRelayApp, FabricatingRelayApp, DuplicatingRelayApp,
                     ReorderingRelayApp, WithholdingRelayApp,
                     EquivocatingRelayApp, SubsetRelayApp)


def relay_battery(adversary, f: int = 1) -> None:
    """f ``adversary`` relayers in *each* group that relays, all at once,
    under bursts to every destination set: every op completes and the
    order checks hold."""
    tree = OverlayTree.paper_tree()
    apps = {gid: {f"{gid}/r{index + 1 + 3 * slot}": adversary
                  for slot in range(f)}
            for index, gid in enumerate(sorted(tree.auxiliaries))}
    dep = make_deployment(tree, app_overrides=apps, f=f)
    burst_and_check(dep)
    counters = dep.monitor.counters
    assert counters["byzcast.relay"] > 2 * counters["byzcast.relay_batch"]


def certificate_battery(f: int = 1) -> None:
    """The first f leaders of *each* group that receives relays propose bad
    relay certificates (``ForgingCertificateLeaderReplica``), under the
    relay battery's bursts: correct followers refuse them, regency changes
    recover, every op completes and the order checks hold."""
    tree = OverlayTree.paper_tree()
    classes = {gid: {f"{gid}/r{slot}": ForgingCertificateLeaderReplica
                     for slot in range(f)}
               for gid in sorted(tree.nodes) if tree.parent(gid) is not None}
    dep = make_deployment(tree, replica_classes=classes, f=f)
    burst_and_check(dep)
    counters = dep.monitor.counters
    assert counters["byzantine.bad_certificate"] > 0
    assert counters["propose.unsigned_request"] > 0
    assert counters["regency.installed"] > 0


def quorum_silent_battery(f: int = 1) -> None:
    """f ``QuorumSilentReplica`` followers inside regency 0's quorum of
    *every* group, under the relay battery's bursts: every op completes and
    the order checks hold, with no client or relay retransmission and no
    ``DeliveryQuery`` — the quorum's other f+1 members are correct
    (docs/PROTOCOL.md, "Who is sent what")."""
    tree = OverlayTree.paper_tree()
    classes = {gid: {f"{gid}/r{1 + slot}": QuorumSilentReplica
                     for slot in range(f)}
               for gid in sorted(tree.nodes)}
    dep = make_deployment(tree, replica_classes=classes, f=f)
    burst_and_check(dep)
    counters = dep.monitor.counters
    assert counters["byzantine.quorum_silent"] > 0
    assert "proxy.retransmit" not in counters
    assert "client.delivery_query" not in counters
    assert "regency.installed" not in counters


def quorum_relay_battery(f: int = 1) -> None:
    """f ``SilentRelayApp`` relayers inside regency 0's quorum of *each*
    group that relays — the followers after its leader — under the relay
    battery's bursts: only the quorum relays live, so each child hears
    exactly the quorum's other f+1 members, and that is enough.  Every op
    completes, the order checks hold, and no copy or request is
    retransmitted (docs/PROTOCOL.md, "Who is sent what")."""
    tree = OverlayTree.paper_tree()
    apps = {gid: {f"{gid}/r{1 + slot}": SilentRelayApp for slot in range(f)}
            for gid in sorted(tree.auxiliaries)}
    dep = make_deployment(tree, app_overrides=apps, f=f)
    burst_and_check(dep)
    counters = dep.monitor.counters
    assert counters["byzantine.silent_relay"] > 0
    assert "proxy.retransmit" not in counters


ACK_ADVERSARIES = (LyingAckReplica, SilentAckReplica)


class AuditedOutbox(RelayOutbox):
    """A relay outbox that fails the run if a copy leaves before a member
    other than the ack adversaries acknowledged past it."""

    adversaries = frozenset()

    def _cover(self) -> None:
        kept = set(self._unacked)
        super()._cover()
        honest = [index for member, index in self._acked.items()
                  if member not in self.adversaries]
        for index in kept - set(self._unacked):
            assert any(mark > index for mark in honest), (
                f"{self.owner.name} dropped copy {index} for {self.group_id} "
                f"on the adversaries' acks alone")


def ack_battery(adversary, f: int = 1) -> None:
    """f ``adversary`` replicas in every group that receives relays, behind
    a ChaosTransport that drops 5 % of all messages: every multicast is
    delivered, the order checks hold, no copy leaves an outbox on the
    adversaries' acks alone, and every outbox empties."""
    tree = OverlayTree.paper_tree()
    classes = {gid: {f"{gid}/r{1 + 3 * slot}": adversary for slot in range(f)}
               for gid in sorted(tree.nodes) if tree.parent(gid) is not None}
    adversaries = {name for members in classes.values() for name in members}
    runtime = SimRuntime(latency=JitterLatency(0.00005, 0.2))
    install_chaos(runtime, ChaosConfig(drop_rate=0.05))
    dep = make_deployment(tree, replica_classes=classes, f=f,
                          runtime=runtime)
    outbox = type("Outbox", (AuditedOutbox,),
                  {"adversaries": frozenset(adversaries)})
    for group in dep.groups.values():
        for replica in group.replicas:
            replica.app.relay_outbox_class = outbox
            replica.app.relay_retransmit_timeout = 0.5
    burst_and_check(dep, retransmit_timeout=0.5)
    counters = dep.monitor.counters
    assert counters["byzantine.lying_ack" if adversary is LyingAckReplica
                    else "byzantine.silent_ack"] > 0
    assert counters["chaos.dropped"] > 0
    for gid in tree.auxiliaries:
        for replica in dep.groups[gid].replicas:
            for child, kept in replica.app._outboxes.items():
                assert kept.unacked() == {}, (replica.name, child)


def burst_and_check(dep, retransmit_timeout: float = 4.0) -> None:
    """Bursts from three clients to every destination set; every op
    completes and the order checks hold."""
    targets = ("g1", "g2", "g3", "g4")
    destinations = (("g1", "g2"), ("g1", "g3"), ("g2", "g4"), ("g3", "g4"),
                    ("g1", "g2", "g3"), ("g1", "g2", "g3", "g4"))
    rounds = 6
    clients = [dep.add_client(f"c{i}", retransmit_timeout=retransmit_timeout)
               for i in range(3)]
    # Bursts: every client multicasts to every destination set at once,
    # so entry groups order (and relay) multi-message batches — what the
    # in-batch adversaries attack.
    for round_ in range(rounds):
        for client in clients:
            for dst in destinations:
                client.amulticast(destination(*dst),
                                  payload=(client.name, round_))
        dep.run(until=2.0 * (round_ + 1))
    dep.run(until=2.0 * rounds + 10.0)

    expected = rounds * len(destinations)
    assert [len(c.completions) for c in clients] == [expected] * 3
    assert all(c.pending() == 0 for c in clients)
    sequences = {gid: dep.delivered_sequences(gid) for gid in targets}
    sent = [message for c in clients for message, __ in c.completions]
    assert check_all(sequences, sent, quiescent=True) == []
    for replica_sequences in sequences.values():
        for seq in replica_sequences:
            assert all(m.payload != ("fabricated",) for m in seq)


class TestRelayAdversariesInEveryInnerGroup:
    """f Byzantine relayers in *each* group that relays, all at once."""

    @pytest.mark.parametrize("adversary", RELAY_ADVERSARIES,
                             ids=lambda cls: cls.__name__)
    def test_every_op_completes_and_order_holds(self, adversary):
        relay_battery(adversary)

    def test_forged_certificates_are_refused_and_a_regency_change_recovers(
            self):
        certificate_battery()

    def test_f_silent_quorum_members_cost_no_timeout(self):
        quorum_silent_battery()

    def test_f_silent_relayers_in_the_quorum_cost_no_retransmission(self):
        quorum_relay_battery()

    @pytest.mark.parametrize("adversary", ACK_ADVERSARIES,
                             ids=lambda cls: cls.__name__)
    def test_ack_adversaries_in_every_child_on_a_lossy_link(self, adversary):
        ack_battery(adversary)


class FCopiesApp(ByzCastApplication):
    """Mutant: certifies a parent's batch on f relayed copies, not f+1."""

    def _open_stream(self, parent):
        config = self.group_configs[parent]
        self._inboxes[parent] = RelayInbox(config.replicas, config.f)


def test_mutation_f_copies_lets_a_reordering_relayer_break_prefix_order():
    """Why the threshold is f+1: with f, whichever relayer's copy a child
    receives first is a certificate and dictates that child's order — and
    one of them lies.

    Real parent and child applications, with the one thing an asynchronous
    network leaves to the adversary made explicit: g1 receives the
    reordering relayer's copy first, g2 receives it last.  The reordering
    relayer is h1's leader, in the quorum that relays live; h1/r3 is
    outside it and keeps its copy.
    """
    tree = OverlayTree.two_level(["g1", "g2"])
    configs = configs_for(tree)
    registry = KeyRegistry()
    loop = EventLoop()
    wires = [wire_for("client", seq, ("g1", "g2")) for seq in (1, 2, 3)]
    relays = {}  # relayer -> child -> the request it sent
    for index, cls in enumerate([ReorderingRelayApp] + [ByzCastApplication] * 3):
        app = cls("h1", tree, configs, registry)
        replica = FakeReplica(f"h1/r{index}", configs["h1"])
        ctx = ExecutionContext(replica=replica, time=loop.now)
        for wire in wires:
            app.execute(Request("h1", "client", wire.seq, wire), ctx)
        app.end_batch(ctx)
        relays[replica.name] = {dst.split("/")[0]: request
                                for dst, request in replica.sent}
    assert [w.seq for w in relays["h1/r0"]["g1"].command.wires] == [3, 2, 1]
    assert relays["h1/r3"] == {}

    def violations(child_app):
        sequences = {}
        for gid, arrival in (("g1", ("h1/r0", "h1/r1", "h1/r2")),
                             ("g2", ("h1/r1", "h1/r2", "h1/r0"))):
            app = child_app(group_id=gid, tree=tree, group_configs=configs,
                            registry=registry)
            replica = FakeReplica(f"{gid}/r0", configs[gid])
            for relayer in arrival:
                execute(app, replica, relays[relayer][gid])
            assert len(app.delivered_messages()) == len(wires)
            sequences[gid] = [app.delivered_messages()]
        return check_prefix_order(sequences)

    assert violations(ByzCastApplication) == []
    assert violations(FCopiesApp) != []


class TestRuntimeFaults:
    def test_crash_and_recover_target_replica(self):
        dep = make_deployment(ops=[
            NemesisOp(0.5, "crash", ("g2", "g2/r3"), until=3.0),
            NemesisOp(3.0, "recover", ("g2", "g2/r3"), until=3.0),
        ])
        client = dep.add_client("c1")
        for j in range(20):
            client.amulticast(destination("g2"), payload=("op", j))
        dep.run(until=12.0)
        assert client.pending() == 0
        replicas = dep.groups["g2"].replicas
        # The recovered replica converges to the same executed prefix.
        assert replicas[3].log.next_execute == replicas[0].log.next_execute

    def test_partitioned_aux_replica_heals(self):
        # h1/r0 is cut off from every peer of its group for 1.8 s
        tree = OverlayTree.two_level(["g1", "g2", "g3", "g4"])
        dep = make_deployment(tree, ops=[
            NemesisOp(0.2, "partition", ("h1", "h1/r0"), until=2.0),
            NemesisOp(2.0, "heal", ("h1", "h1/r0"), until=2.0),
        ])
        client = dep.add_client("c1")
        for j in range(10):
            client.amulticast(destination("g1", "g4"), payload=("op", j))
        dep.run(until=15.0)
        assert client.pending() == 0
        for gid in ("g1", "g4"):
            assert assert_agreement(dep, gid) == [("op", j) for j in range(10)]


def forged_origin_battery(f: int = 1) -> None:
    """Forged origins: a wire carries no signature, so the one proof of its
    origin is the signed request that submits it.  A Byzantine client
    submits wires that name the honest client c0 as their origin, and a
    Byzantine replica (of g4) submits c0's wires, captured before c0 sent
    them, as its own requests, each to the lca of a local and of two
    global destination sets.  Every replica of each lca refuses every one
    as a foreign submission, nothing is delivered and no group changes
    regency; c0's own multicasts of those wires then deliver once."""
    tree = OverlayTree.paper_tree()
    dep = make_deployment(tree, f=f, trace_capacity=100_000)
    honest, mallory = dep.add_client("c0"), dep.add_client("mallory")
    thief = dep.groups["g4"].replicas[1]
    destinations = (("g1",), ("g1", "g2"), ("g2", "g3"))
    entries = [tree.lca(dst) for dst in destinations]
    assert entries == ["g1", "h2", "h1"]
    for seq, (dst, entry) in enumerate(zip(destinations, entries), start=1):
        mallory._proxy(entry).submit(
            WireMulticast("c0", seq, dst, ("forged", seq)))
        captured = Request(entry, thief.name, 1,
                           WireMulticast("c0", seq, dst, ("c0", seq)))
        signed = captured.with_signature(
            sign(dep.registry, thief.name, captured.signed_part()))
        for member in dep.group_configs[entry].replicas:
            thief.send(member, signed)
    dep.run(until=5.0)

    refused = {}
    for record in dep.monitor.records("byzcast.foreign_submission"):
        refused.setdefault(record.component, []).append(record.get("sender"))
    attackers = sorted(["mallory", thief.name])
    assert {replica: sorted(senders) for replica, senders in refused.items()} == {
        replica: attackers for entry in entries
        for replica in dep.group_configs[entry].replicas}
    targets = sorted(tree.targets)
    assert all(seq == [] for gid in targets
               for seq in dep.delivered_sequences(gid))
    assert "regency.stop" not in dep.monitor.counters

    for seq, dst in enumerate(destinations, start=1):
        honest.amulticast(destination(*dst), payload=("c0", seq))
    dep.run(until=15.0)
    assert honest.pending() == 0 and len(honest.completions) == 3
    sequences = {gid: dep.delivered_sequences(gid) for gid in targets}
    sent = [message for message, __ in honest.completions]
    assert check_all(sequences, sent, quiescent=True) == []
    for gid, payloads in (("g1", [("c0", 1), ("c0", 2)]),
                          ("g2", [("c0", 2), ("c0", 3)]),
                          ("g3", [("c0", 3)]), ("g4", [])):
        for seq in sequences[gid]:
            assert [m.payload for m in seq] == payloads
    assert "regency.stop" not in dep.monitor.counters


class TestAdversarialClients:
    def test_client_submitting_to_wrong_group_is_rejected(self):
        """A Byzantine client submits a global message directly to a target
        group (bypassing the lca): correct replicas refuse to act on it."""
        dep = make_deployment()
        client = dep.add_client("evil")
        # Build the wire by hand and push it at g1 instead of lca h2.
        wire = WireMulticast(sender="evil", seq=1, dst=("g1", "g2"), payload=("x",))
        proxy = client._proxy("g1")
        proxy.submit(wire)
        dep.run(until=5.0)
        for gid in ("g1", "g2"):
            for seq in dep.delivered_sequences(gid):
                assert seq == []
        assert dep.monitor.counters.get("byzcast.wrong_entry_group", 0) >= 3

    def test_a_multicast_naming_another_origin_is_rejected(self):
        dep = make_deployment()
        client = dep.add_client("evil")
        wire = WireMulticast(sender="c1", seq=1, dst=("g1",), payload=("x",))
        proxy = client._proxy("g1")
        proxy.submit(wire)
        dep.run(until=5.0)
        for seq in dep.delivered_sequences("g1"):
            assert seq == []
        assert dep.monitor.counters["byzcast.foreign_submission"] == 4

    def test_forged_origins_are_refused_by_every_entry_replica(self):
        forged_origin_battery()


class TestDelayingReplica:
    def test_slow_replica_does_not_block_progress(self):
        from repro.faults.behaviors import DelayingReplica

        h = Harness(replica_classes={"g1/r2": DelayingReplica})
        client = h.add_client()
        for j in range(10):
            client.submit(("op", j))
        h.run(until=10.0)
        assert len(client.results) == 10
        fast = [h.group.replicas[i] for i in (0, 1, 3)]
        sequences = [r.app.executed for r in fast]
        assert all(seq == sequences[0] for seq in sequences)

    def test_slow_leader_is_eventually_replaced(self):
        from repro.faults.behaviors import DelayingReplica

        class VerySlow(DelayingReplica):
            delay = 5.0  # far beyond the request timeout

        h = Harness(replica_classes={"g1/r0": VerySlow})
        client = h.add_client()
        client.submit(("x",))
        h.run(until=30.0)
        assert client.results and client.results[0] == ("ok", ("x",))
        others = h.group.replicas[1:]
        assert all(r.regency.current >= 1 for r in others)
