"""Edge cases for the sharded store."""

from __future__ import annotations

from repro.apps.kvstore import ShardedStore, ShardStateMachine
from repro.core.tree import OverlayTree
from tests.helpers import FAST_COSTS


class TestShardStateMachine:
    def make(self, shard="s0", owned=("a", "b")):
        return ShardStateMachine(shard, owns=lambda key: key in owned)

    def test_only_applies_owned_keys(self):
        machine = self.make()
        machine.apply(("put", "a", 1))
        machine.apply(("put", "zzz", 9))  # not owned: ignored
        assert machine.data == {"a": 1}

    def test_get_none_for_unowned(self):
        machine = self.make()
        assert machine.apply(("get", "zzz")) == ("none",)

    def test_transfer_one_sided(self):
        machine = self.make(owned=("a",))
        machine.apply(("put", "a", 100))
        machine.apply(("transfer", "a", "remote", 30))
        assert machine.data["a"] == 70
        machine.apply(("transfer", "remote2", "a", 10))
        assert machine.data["a"] == 80

    def test_unknown_op(self):
        machine = self.make()
        assert machine.apply(("bogus",))[0] == "error"

    def test_ops_counter(self):
        machine = self.make()
        for __ in range(3):
            machine.apply(("get", "a"))
        assert machine.ops_applied == 3


class TestStoreEdges:
    def test_custom_tree(self):
        tree = OverlayTree.paper_tree()
        store = ShardedStore(tree=tree, costs=FAST_COSTS, request_timeout=0.5)
        assert set(store.shards) == {"g1", "g2", "g3", "g4"}
        client = store.client("c1")
        client.put("k", 1)
        assert store.run_until_quiescent()

    def test_run_until_quiescent_gives_up(self):
        store = ShardedStore(shards=2, costs=FAST_COSTS, request_timeout=0.5)
        client = store.client("c1")
        # Kill two replicas of one shard: beyond f=1, that shard stalls.
        shard = store.shard_of("stuck-key")
        group = store.deployment.groups[shard]
        group.replicas[0].crash()
        group.replicas[1].crash()
        client.put("stuck-key", 1)
        assert not store.run_until_quiescent(step=0.5, max_steps=6)

    def test_take_results_clears(self):
        store = ShardedStore(shards=2, costs=FAST_COSTS, request_timeout=0.5)
        client = store.client("c1")
        client.put("k", 1)
        assert store.run_until_quiescent()
        assert len(client.take_results()) == 1
        assert client.take_results() == []

    def test_total_of_missing_keys_is_zero(self):
        store = ShardedStore(shards=2, costs=FAST_COSTS, request_timeout=0.5)
        assert store.total_of(["nope", "nada"]) == 0
