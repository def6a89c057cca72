"""The KeyValueApplication as a full replicated service (bcast layer)."""

from __future__ import annotations

from repro.bcast.app import KeyValueApplication
from repro.bcast.group import BroadcastGroup
from tests.helpers import Harness, make_config


class KvHarness(Harness):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # Rebuild the group with KV applications instead of Echo.
        self.config = make_config("kv")
        self.group = BroadcastGroup.build(
            self.runtime, self.config, self.registry,
            app_factory=lambda name: KeyValueApplication(),
        )


def test_replicated_kv_converges():
    h = KvHarness()
    client = h.add_client()
    client.submit(("put", "a", 1))
    client.submit(("put", "b", 2))
    client.submit(("cas", "a", 1, 10))
    client.submit(("del", "b"))
    client.submit(("get", "a"))
    h.run(until=5.0)
    assert len(client.results) == 5
    # Completion (f+1 replies) order may shuffle within a batch; the get's
    # result is present and reflects the cas.
    assert ("ok", 10) in client.results
    stores = [replica.app.store for replica in h.group.replicas]
    assert all(store == {"a": 10} for store in stores)


def test_kv_results_agree_across_interleaved_clients():
    h = KvHarness()
    clients = [h.add_client() for _ in range(3)]
    for index, client in enumerate(clients):
        client.submit(("put", f"k{index}", index))
        client.submit(("cas", f"k{index}", index, index * 100))
    h.run(until=5.0)
    for index, client in enumerate(clients):
        assert sorted(map(repr, client.results)) == sorted(
            map(repr, [("ok", None), ("ok", True)])
        )
    stores = [replica.app.store for replica in h.group.replicas]
    assert all(store == {"k0": 0, "k1": 100, "k2": 200} for store in stores)


def test_kv_with_leader_crash_midway():
    h = KvHarness()
    client = h.add_client()
    client.submit(("put", "x", 1))
    h.run(until=1.0)
    h.group.replicas[0].crash()
    client.submit(("cas", "x", 1, 2))
    h.loop.run(until=20.0)
    assert client.results[-1] == ("ok", True)
    survivors = [r for r in h.group.replicas if not r.crashed]
    assert all(r.app.store == {"x": 2} for r in survivors)
