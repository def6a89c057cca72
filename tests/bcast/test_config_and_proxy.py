"""Unit tests for broadcast configuration and the client proxy."""

from __future__ import annotations

import pytest

from repro.bcast.config import BACKOFF_MULTIPLIER, BroadcastConfig
from repro.bcast.group import BroadcastGroup
from repro.bcast.messages import Reply
from repro.errors import ConfigurationError
from tests.helpers import Harness, make_config


class TestBroadcastConfig:
    def test_quorum_arithmetic(self):
        config = make_config(f=1)
        assert config.n == 4
        assert config.quorum == 3
        config2 = make_config(f=2)
        assert config2.n == 7
        assert config2.quorum == 5

    def test_leader_rotation(self):
        config = make_config()
        assert config.leader_of(0) == "g1/r0"
        assert config.leader_of(1) == "g1/r1"
        assert config.leader_of(4) == "g1/r0"

    def test_rejects_wrong_replica_count(self):
        with pytest.raises(ConfigurationError):
            BroadcastConfig(group_id="g", replicas=("a", "b", "c"), f=1)

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            BroadcastConfig(group_id="g", replicas=("a", "a", "b", "c"), f=1)

    def test_rejects_bad_batch_and_delay(self):
        with pytest.raises(ConfigurationError):
            make_config(max_batch=0)
        # batching is natural: there is no batch timer left to configure
        with pytest.raises(TypeError):
            make_config(batch_delay=0.002)

    def test_rejects_negative_f(self):
        with pytest.raises(ConfigurationError):
            BroadcastConfig(group_id="g", replicas=("a",), f=-1)


class TestGroupProxy:
    def test_result_needs_f_plus_1_matching(self):
        h = Harness()
        client = h.add_client()
        results = []
        seq = client.proxy.submit(("cmd",), results.append)
        # One reply is not enough.
        client.proxy.handle_reply(
            "g1/r0", Reply("g1", "g1/r0", client.name, seq, ("ok",)))
        assert results == []
        # A second matching reply completes.
        client.proxy.handle_reply(
            "g1/r1", Reply("g1", "g1/r1", client.name, seq, ("ok",)))
        assert results == [("ok",)]

    def test_conflicting_replies_do_not_complete(self):
        h = Harness()
        client = h.add_client()
        results = []
        seq = client.proxy.submit(("cmd",), results.append)
        client.proxy.handle_reply(
            "g1/r0", Reply("g1", "g1/r0", client.name, seq, ("a",)))
        client.proxy.handle_reply(
            "g1/r1", Reply("g1", "g1/r1", client.name, seq, ("b",)))
        assert results == []
        client.proxy.handle_reply(
            "g1/r2", Reply("g1", "g1/r2", client.name, seq, ("a",)))
        assert results == [("a",)]

    def test_duplicate_votes_from_same_replica_ignored(self):
        h = Harness()
        client = h.add_client()
        results = []
        seq = client.proxy.submit(("cmd",), results.append)
        reply = Reply("g1", "g1/r0", client.name, seq, ("x",))
        client.proxy.handle_reply("g1/r0", reply)
        client.proxy.handle_reply("g1/r0", reply)
        assert results == []

    def test_spoofed_reply_sender_rejected(self):
        h = Harness()
        client = h.add_client()
        results = []
        seq = client.proxy.submit(("cmd",), results.append)
        # src does not match the claimed replica name.
        client.proxy.handle_reply(
            "g1/r0", Reply("g1", "g1/r1", client.name, seq, ("x",)))
        # src not a group member at all.
        handled = client.proxy.handle_reply(
            "stranger", Reply("g1", "stranger", client.name, seq, ("x",)))
        assert not handled
        assert results == []

    def test_reply_for_other_owner_not_consumed(self):
        h = Harness()
        client = h.add_client()
        client.proxy.submit(("cmd",))
        reply = Reply("g1", "g1/r0", "someone-else", 1, ("x",))
        assert client.proxy.handle_reply("g1/r0", reply) is False

    def test_sequence_numbers_monotonic(self):
        h = Harness()
        client = h.add_client()
        seqs = [client.proxy.submit(("c", i)) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_update_replicas_keeps_sequences(self):
        h = Harness()
        client = h.add_client()
        client.proxy.submit(("a",))
        reordered = ("g1/r3", "g1/r2", "g1/r1", "g1/r0")
        client.proxy.update_replicas(reordered, 1)
        assert client.proxy.submit(("b",)) == 2  # sequence continues
        assert client.proxy.replicas == reordered

    def test_a_departed_replicas_vote_no_longer_counts(self):
        h = Harness()
        client = h.add_client()
        results = []
        seq = client.proxy.submit(("cmd",), results.append)
        client.proxy.handle_reply(
            "g1/r0", Reply("g1", "g1/r0", client.name, seq, ("ok",)))
        client.proxy.update_replicas(("g1/r1", "g1/r2", "g1/r3", "g1/r4"), 1)
        client.proxy.handle_reply(
            "g1/r1", Reply("g1", "g1/r1", client.name, seq, ("ok",)))
        assert results == []
        client.proxy.handle_reply(
            "g1/r2", Reply("g1", "g1/r2", client.name, seq, ("ok",)))
        assert results == [("ok",)]

    def test_retransmit_backoff_is_clamped(self):
        h = Harness()
        client = h.add_client(retransmit_timeout=1.0)
        delays = []
        client.set_timer = lambda delay, cb: delays.append(delay) or None
        seq = client.proxy.submit(("cmd",))
        entry = client.proxy._outstanding[seq]
        # Drive retries far past where 2**retries would explode: the delay
        # must plateau at BACKOFF_MULTIPLIER × the initial timeout.
        for __ in range(200):
            client.proxy._retransmit(entry)
        cap = client.proxy.retransmit_timeout * BACKOFF_MULTIPLIER
        assert max(delays) <= cap
        assert delays[-1] == cap
        # retries itself is capped too (no unbounded counter growth).
        assert entry.retries <= client.proxy.max_retries

    def test_retransmit_gives_up_after_max_retries(self):
        h = Harness()
        client = h.add_client(retransmit_timeout=1.0)
        client.set_timer = lambda delay, cb: None
        seq = client.proxy.submit(("cmd",))
        entry = client.proxy._outstanding[seq]
        before = h.monitor.counters["proxy.retransmit"]
        for __ in range(client.proxy.max_retries + 10):
            client.proxy._retransmit(entry)
        sent = h.monitor.counters["proxy.retransmit"] - before
        assert sent == client.proxy.max_retries
        assert entry.retries == client.proxy.max_retries


class TestBroadcastGroup:
    def test_build_registers_all_replicas(self):
        h = Harness()
        assert len(h.group.replicas) == 4
        assert set(h.network.endpoints()) >= set(h.config.replicas)

    def test_leader_lookup(self):
        h = Harness()
        assert h.group.leader().name == "g1/r0"

    def test_sites_length_validated(self):
        h = Harness()
        config = make_config("g9")
        with pytest.raises(ValueError):
            BroadcastGroup.build(
                h.runtime, config, h.registry,
                app_factory=lambda name: None, sites=["a", "b"],
            )

    def test_correct_replicas_excludes_crashed(self):
        h = Harness()
        h.group.replicas[2].crash()
        assert len(h.group.correct_replicas()) == 3
