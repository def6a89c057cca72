"""Tests for the sharded key-value store built on ByzCast."""

from __future__ import annotations

import pytest

from repro.apps.kvstore import ShardedStore
from repro.faults.behaviors import SilentRelayApp
from tests.helpers import FAST_COSTS


def make_store(**kwargs) -> ShardedStore:
    kwargs.setdefault("costs", FAST_COSTS)
    kwargs.setdefault("request_timeout", 0.5)
    return ShardedStore(shards=4, **kwargs)


class TestBasicOperations:
    def test_put_then_get(self):
        store = make_store()
        client = store.client("c1")
        client.put("k", "v")
        assert store.run_until_quiescent()
        client.get("k")
        assert store.run_until_quiescent()
        results = client.take_results()
        assert results[0] == (("put", "k", "v"), "ok")
        assert results[1] == (("get", "k"), "v")

    def test_get_missing_key(self):
        store = make_store()
        client = store.client("c1")
        client.get("nothing")
        assert store.run_until_quiescent()
        assert client.take_results()[0][1] is None

    def test_delete_returns_old_value(self):
        store = make_store()
        client = store.client("c1")
        client.put("k", 42)
        client.delete("k")
        client.get("k")
        assert store.run_until_quiescent()
        results = [r for __, r in client.take_results()]
        assert results == ["ok", 42, None]

    def test_single_key_ops_are_local(self):
        store = make_store()
        client = store.client("c1")
        mid = client.put("k", 1)
        assert store.run_until_quiescent()
        message = client.completions[0][0]
        assert message.is_local
        assert message.dst == {store.shard_of("k")}


class TestCrossShardOperations:
    def test_transfer_conserves_total(self):
        store = make_store()
        client = store.client("c1")
        accounts = [f"acct{i}" for i in range(8)]
        for account in accounts:
            client.put(account, 100)
        assert store.run_until_quiescent()
        client.transfer("acct0", "acct1", 30)
        client.transfer("acct1", "acct5", 20)
        client.transfer("acct6", "acct0", 45)
        assert store.run_until_quiescent()
        assert store.total_of(accounts) == 800
        assert store.check_consistency() == []

    def test_transfer_spans_multiple_shards(self):
        store = make_store()
        pairs = [("acct0", "acct1"), ("a", "b"), ("x9", "q17")]
        cross = [
            (s, d) for s, d in pairs if store.shard_of(s) != store.shard_of(d)
        ]
        assert cross, "test needs at least one cross-shard pair"
        client = store.client("c1")
        src, dst = cross[0]
        client.put(src, 100)
        client.put(dst, 100)
        client.transfer(src, dst, 10)
        assert store.run_until_quiescent()
        assert store.shard_state(store.shard_of(src))[src] == 90
        assert store.shard_state(store.shard_of(dst))[dst] == 110

    def test_mput_and_mget(self):
        store = make_store()
        client = store.client("c1")
        data = {f"key{i}": i * 10 for i in range(6)}
        client.mput(data)
        assert store.run_until_quiescent()
        client.mget(list(data))
        assert store.run_until_quiescent()
        results = client.take_results()
        assert results[-1][1] == data

    def test_mget_partial_keys(self):
        store = make_store()
        client = store.client("c1")
        client.put("present", 1)
        assert store.run_until_quiescent()
        client.mget(["present", "absent"])
        assert store.run_until_quiescent()
        assert client.take_results()[-1][1] == {"present": 1, "absent": None}


class TestConcurrentClients:
    def test_interleaved_transfers_stay_consistent(self):
        store = make_store()
        clients = [store.client(f"c{i}") for i in range(3)]
        accounts = [f"acct{i}" for i in range(6)]
        for account in accounts:
            clients[0].put(account, 100)
        assert store.run_until_quiescent()
        for index, client in enumerate(clients):
            for j in range(4):
                src = accounts[(index + j) % 6]
                dst = accounts[(index + j + 3) % 6]
                client.transfer(src, dst, 5)
        assert store.run_until_quiescent()
        assert store.total_of(accounts) == 600
        assert store.check_consistency() == []


class TestFaultTolerance:
    def test_reads_verified_against_byzantine_replica(self):
        """A Byzantine replica cannot forge a read: results need f+1 votes."""
        store = make_store()
        client = store.client("c1")
        client.put("k", "truth")
        assert store.run_until_quiescent()
        # Corrupt one replica's state behind the protocol's back.
        shard = store.shard_of("k")
        store._machines[shard][0].data["k"] = "lies"
        client.get("k")
        assert store.run_until_quiescent()
        assert client.take_results()[-1][1] == "truth"

    def test_silent_relay_does_not_block_cross_shard_ops(self):
        # Build the store on the paper tree, with a silent relay at the root.
        from repro.core.tree import OverlayTree

        tree = OverlayTree.two_level(["shard0", "shard1", "shard2", "shard3"])
        store = ShardedStore(tree=tree, costs=FAST_COSTS, request_timeout=0.5)
        root = tree.root
        store.deployment.apps(root)[0].__class__ = SilentRelayApp
        client = store.client("c1")
        client.put("a", 50)
        client.put("b", 50)
        client.transfer("a", "b", 25)
        assert store.run_until_quiescent()
        assert store.total_of(["a", "b"]) == 100


class TestPlacement:
    def test_shard_of_deterministic_and_covering(self):
        store = make_store()
        keys = [f"key{i}" for i in range(200)]
        placements = {store.shard_of(k) for k in keys}
        assert placements == set(store.shards)
        assert all(store.shard_of(k) == store.shard_of(k) for k in keys)

    def test_rejects_zero_shards(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ShardedStore(shards=0)
