"""A sharded, BFT-replicated key-value store on top of ByzCast.

This is the application pattern §II-D motivates, packaged as a library:
the key space is hash-partitioned over the target groups of an overlay
tree, every shard is a 3f+1 replicated state machine, and atomic multicast
routes operations —

* single-key operations go to the owning shard only (the genuine fast
  path: no other group is involved);
* multi-key operations (transfers, transactional multi-put/multi-get) are
  atomically multicast to every involved shard and applied in a globally
  acyclic order, so cross-shard invariants (e.g. conservation of funds)
  hold at every cut that respects delivery order.

Results flow back on the delivery acknowledgements: every replica attaches
its (deterministic) local result, and the client accepts a shard's result
once ``f + 1`` replicas agree — Byzantine replicas cannot forge reads.

Example::

    store = ShardedStore(shards=4)
    client = store.client("c1")
    client.put("user:7", {"name": "ada"})
    client.transfer("acct:1", "acct:2", 25)
    ok = store.run_until_quiescent()
    value = client.get("user:7")
    store.run_until_quiescent()
    print(client.take_results())   # confirmed results, in completion order
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# ShardStateMachine is re-exported: callers and bench/spans.py find it here
from repro.apps.sharded_kv import ShardedKVApp, ShardStateMachine  # noqa: F401
from repro.core.client import MulticastClient
from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.errors import ConfigurationError
from repro.types import MessageId, MulticastMessage, destination


class StoreClient(MulticastClient):
    """A store client: key-level operations over the multicast client.

    Completed operations (with combined, f+1-verified results) accumulate
    in :meth:`take_results`.
    """

    def __init__(self, *args, shard_of: Callable[[str], str], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._shard_of = shard_of
        self._completed_ops: List[Tuple[MessageId, Tuple, Any]] = []

    # -- operations ----------------------------------------------------------

    def put(self, key: str, value: Any) -> MessageId:
        return self._submit(("put", key, value), [key])

    def get(self, key: str) -> MessageId:
        return self._submit(("get", key), [key])

    def delete(self, key: str) -> MessageId:
        return self._submit(("delete", key), [key])

    def transfer(self, src: str, dst: str, amount: int) -> MessageId:
        return self._submit(("transfer", src, dst, amount), [src, dst])

    def mput(self, pairs: Mapping[str, Any]) -> MessageId:
        items = tuple(sorted(pairs.items()))
        return self._submit(("mput", items), [k for k, __ in items])

    def mget(self, keys: Sequence[str]) -> MessageId:
        keys = tuple(sorted(set(keys)))
        return self._submit(("mget", keys), keys)

    def read(self, key: str, mode: str = "optimistic",
             callback: Optional[Callable] = None) -> int:
        """Read ``key`` through the unordered read tier (single shard).

        Returns the read round id; the value arrives via ``callback`` with
        a :class:`~repro.core.client.ReadOutcome` (falls back to an ordered
        get on quorum failure — see docs/READS.md).
        """
        op = ("get", key)
        return self.aread(self._shard_of(key), payload=op, mode=mode,
                          callback=callback)

    # -- plumbing --------------------------------------------------------------

    def _submit(self, op: Tuple, keys: Iterable[str]) -> MessageId:
        shards = sorted({self._shard_of(key) for key in keys})
        mid = self.amulticast(
            destination(*shards), payload=op,
            callback=self._record_op,
        )
        return mid

    def _record_op(self, message: MulticastMessage, latency: float,
                   group_results: Dict[str, Any]) -> None:
        combined = self._combine(message.payload, group_results)
        self._completed_ops.append((message.mid, message.payload, combined))

    @staticmethod
    def _combine(op: Tuple, group_results: Dict[str, Any]) -> Any:
        """Merge per-shard results into one operation result."""
        kind = op[0]
        if kind in ("get", "delete"):
            for result in group_results.values():
                if result and result[0] == "value":
                    return result[1]
            return None
        if kind == "mget":
            merged: Dict[str, Any] = {}
            for result in group_results.values():
                if result and result[0] == "values":
                    merged.update(dict(result[1]))
            return merged
        return "ok"

    def take_results(self) -> List[Tuple[Tuple, Any]]:
        """Completed (operation, result) pairs since the last call."""
        out = [(op, combined) for __, op, combined in self._completed_ops]
        self._completed_ops.clear()
        return out


class ShardedStore:
    """A complete sharded KV deployment: tree, groups, shard placement.

    The store logic is :class:`~repro.apps.sharded_kv.ShardedKVApp`
    (``self.kv``); this class adds the tree, a deployment of its own and
    :class:`StoreClient` endpoints.  ``deployment`` keywords go to
    :class:`~repro.core.deployment.ByzCastDeployment` (``costs``,
    ``seed``, ``request_timeout``, ...).
    """

    def __init__(self, shards: int = 4, f: int = 1,
                 tree: Optional[OverlayTree] = None, **deployment: Any) -> None:
        if tree is None:
            if shards < 1:
                raise ConfigurationError("need at least one shard")
            tree = OverlayTree.two_level([f"shard{i}" for i in range(shards)])
        self.tree = tree
        self.kv = ShardedKVApp(tree, f=f)
        # placement and inspection are the app's own methods
        self.shards = self.kv.shards
        self.shard_of = self.kv.shard_of
        self.shard_state = self.kv.shard_state
        self.total_of = self.kv.total_of
        self.check_consistency = self.kv.check_consistency
        self._machines = self.kv._machines
        self.deployment = ByzCastDeployment(
            tree, f=f, app_overrides=self.kv.app_overrides(), **deployment)
        self.deployment.client_class = partial(StoreClient,
                                               shard_of=self.shard_of)
        self.run_until_quiescent = self.deployment.run_until_quiescent
        self.clients: List[StoreClient] = []

    # -- clients and execution ------------------------------------------------------

    def client(self, name: str, site: str = "site0") -> StoreClient:
        client = self.deployment.add_client(name, site=site)
        self.clients.append(client)
        return client

    def run(self, until: float) -> None:
        self.deployment.run(until=until)
