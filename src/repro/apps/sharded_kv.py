"""The first-class sharded KV store: scenario-integrated cross-shard ops.

:class:`~repro.apps.kvstore.ShardedStore` packages a self-contained
deployment of it for library use; this module is the store itself, the
*scenario-facing* part the ROADMAP's scale-out harness calls for — it
plugs the deterministic :class:`ShardStateMachine` into any
deployment built from a :class:`~repro.scenario.ScenarioSpec`
(``app: "sharded_kv"``), so the benchmark, the chaos soak and the CLI
all exercise an application workload instead of opaque payloads:

* every target group of the scenario's tree is one shard (3f+1 replicated
  state machine), keys hash-partitioned over shards;
* single-key operations are local multicasts (the genuine fast path);
* multi-key operations — cross-shard transfers — are atomically multicast
  to every involved shard (the White-Box Atomic Multicast application
  pattern: cheap cross-group ordering carries the transaction);
* replicas are Checkpointable: the machine's snapshot/restore hooks ride
  the PR 4 checkpoint machinery, so scale scenarios keep bounded memory.

Workloads come from :meth:`ShardedKVApp.op_sampler`: a driver-compatible
``rng -> (destination, payload)`` mixing single-shard puts/gets with
cross-shard transfers over either key distribution
(:func:`~repro.workload.spec.uniform_keys` / ``zipfian_keys``).
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.node import ByzCastApplication
from repro.core.tree import OverlayTree
from repro.errors import ConfigurationError
from repro.types import Destination, destination
from repro.workload.spec import KeySampler, key_space
from repro.workload.clients import OpSampler


class ShardStateMachine:
    """The deterministic per-replica state of one shard."""

    #: operations that never mutate shard state — eligible for the
    #: unordered read tier (docs/READS.md)
    READ_OPS = frozenset({"get", "mget"})

    def __init__(self, shard: str, owns: Callable[[str], bool]) -> None:
        self.shard = shard
        self.owns = owns
        self.data: Dict[str, Any] = {}
        self.ops_applied = 0

    @classmethod
    def is_read_only(cls, op: Tuple) -> bool:
        """Classify an operation for the read tier."""
        return bool(op) and op[0] in cls.READ_OPS

    def apply(self, op: Tuple) -> Any:
        """Apply one ordered operation; returns this shard's result."""
        self.ops_applied += 1
        kind = op[0]
        if kind == "put":
            __, key, value = op
            if self.owns(key):
                self.data[key] = value
            return ("ok",)
        if kind == "get":
            __, key = op
            return ("value", self.data.get(key)) if self.owns(key) else ("none",)
        if kind == "delete":
            __, key = op
            if self.owns(key):
                return ("value", self.data.pop(key, None))
            return ("none",)
        if kind == "transfer":
            __, src, dst, amount = op
            # Each shard applies only its side; the multicast guarantees
            # both shards apply it, in consistent order.
            if self.owns(src):
                self.data[src] = self.data.get(src, 0) - amount
            if self.owns(dst):
                self.data[dst] = self.data.get(dst, 0) + amount
            return ("ok",)
        if kind == "mput":
            __, pairs = op
            for key, value in pairs:
                if self.owns(key):
                    self.data[key] = value
            return ("ok",)
        if kind == "mget":
            __, keys = op
            return ("values", tuple(
                (key, self.data.get(key)) for key in keys if self.owns(key)
            ))
        return ("error", f"unknown op {kind!r}")

    def read(self, op: Tuple) -> Any:
        """Serve a read-only op from the live state — pure, no side effects.

        Result shapes match :meth:`apply` for the same op, so an optimistic
        read and its ordered fallback are interchangeable to clients.
        """
        if not self.is_read_only(op):
            return ("error", "not a read-only op")
        kind = op[0]
        if kind == "get":
            __, key = op
            return ("value", self.data.get(key)) if self.owns(key) else ("none",)
        __, keys = op
        return ("values", tuple(
            (key, self.data.get(key)) for key in keys if self.owns(key)
        ))

    def snapshot(self) -> Tuple:
        """Deterministic state capture for checkpointing (sorted items)."""
        return (tuple(sorted(self.data.items())), self.ops_applied)

    def restore(self, state: Tuple) -> None:
        items, ops_applied = state
        self.data = dict(items)
        self.ops_applied = ops_applied


class ShardedKVApp:
    """Sharded-KV application state for one deployment.

    Create it from the scenario's tree *before* the deployment, pass
    :meth:`app_overrides` to the deployment builder, and inspect shard
    state through :meth:`machines` / :meth:`check_consistency` /
    :meth:`total_of` afterwards.
    """

    def __init__(
        self,
        tree: OverlayTree,
        f: int = 1,
        keys: int = 64,
    ) -> None:
        if not tree.targets:
            raise ConfigurationError("tree has no target groups to shard over")
        self.tree = tree
        self.f = f
        self.shards: Tuple[str, ...] = tuple(sorted(tree.targets))
        self.keys: Tuple[str, ...] = key_space(keys)
        self._machines: Dict[str, List[ShardStateMachine]] = {}

    # -- placement ------------------------------------------------------------

    def shard_of(self, key: str) -> str:
        """Deterministic key → shard placement (CRC-based)."""
        index = zlib.crc32(key.encode("utf-8")) % len(self.shards)
        return self.shards[index]

    def _owner_check(self, shard: str) -> Callable[[str], bool]:
        return lambda key: self.shard_of(key) == shard

    # -- deployment wiring ----------------------------------------------------

    def _app_factory(self, group_id, tree, group_configs, registry):
        machine = ShardStateMachine(group_id, self._owner_check(group_id))
        self._machines.setdefault(group_id, []).append(machine)

        def on_deliver(message, ctx, machine=machine):
            return machine.apply(message.payload)

        return ByzCastApplication(
            group_id=group_id, tree=tree, group_configs=group_configs,
            registry=registry, on_deliver=on_deliver,
            on_snapshot=machine.snapshot, on_restore=machine.restore,
            on_read=machine.read,
        )

    def app_overrides(self) -> Dict[str, Dict[str, Callable]]:
        """Per-replica application factories for the deployment builder.

        Covers every group of the tree (auxiliary groups get a machine
        owning no keys — they only relay), so merging nemesis overrides on
        top still leaves all non-victim replicas running the store.
        """
        replicas = 3 * self.f + 1
        return {
            gid: {
                f"{gid}/r{i}": self._app_factory for i in range(replicas)
            }
            for gid in self.tree.nodes
        }

    # -- workload -------------------------------------------------------------

    def op_sampler(
        self,
        key_sampler: KeySampler,
        cross_ratio: float = 0.1,
        read_ratio: float = 0.2,
    ) -> OpSampler:
        """A driver op sampler mixing puts, gets and cross-shard transfers.

        With probability ``cross_ratio`` the op is a two-key transfer whose
        keys live on *different* shards (atomically multicast to both);
        with ``read_ratio`` a single-key get; otherwise a single-key put.
        With a single shard every op degenerates to a local multicast.
        """
        if cross_ratio + read_ratio > 1.0:
            raise ConfigurationError("cross_ratio + read_ratio must be <= 1")
        multi_sharded = len(self.shards) > 1

        def sample(rng) -> Tuple[Destination, Tuple]:
            point = rng.random()
            key = key_sampler(rng)
            if multi_sharded and point < cross_ratio:
                other = key_sampler(rng)
                for _ in range(16):
                    if self.shard_of(other) != self.shard_of(key):
                        break
                    other = key_sampler(rng)
                if self.shard_of(other) == self.shard_of(key):
                    # pathological key distribution: fall back to a put
                    return destination(self.shard_of(key)), ("put", key, 1)
                amount = rng.randrange(1, 10)
                return (
                    destination(self.shard_of(key), self.shard_of(other)),
                    ("transfer", key, other, amount),
                )
            if point < cross_ratio + read_ratio:
                return destination(self.shard_of(key)), ("get", key)
            return destination(self.shard_of(key)), ("put", key, rng.randrange(100))

        return sample

    def read_sampler(self, key_sampler: KeySampler) -> OpSampler:
        """A driver sampler of read-*tier* operations: single-key gets.

        Same signature as :meth:`op_sampler` samples, but every op is
        read-only — drivers route these through ``aread`` instead of the
        ordered multicast path (the ``read_ratio`` workload axis).
        """

        def sample(rng) -> Tuple[Destination, Tuple]:
            key = key_sampler(rng)
            return destination(self.shard_of(key)), ("get", key)

        return sample

    # -- inspection -----------------------------------------------------------

    def machines(self, shard: str) -> List[ShardStateMachine]:
        """The per-replica state machines of ``shard`` (creation order)."""
        return list(self._machines.get(shard, []))

    def shard_state(self, shard: str, exclude: Iterable[int] = ()) -> Dict:
        """The agreed state of ``shard``; raises on replica divergence.

        ``exclude`` names replica *indices* to skip (e.g. Byzantine victims
        whose machines are allowed to be arbitrary).
        """
        skip = set(exclude)
        machines = [m for i, m in enumerate(self._machines.get(shard, []))
                    if i not in skip]
        if not machines:
            raise ConfigurationError(f"no correct machines for shard {shard!r}")
        reference = machines[0].data
        for machine in machines[1:]:
            if machine.data != reference:
                raise AssertionError(f"replica divergence in {shard}")
        return dict(reference)

    def check_consistency(self, exclude: Optional[Dict[str, Iterable[int]]] = None,
                          ) -> List[str]:
        """Replica-divergence report over all shards (empty = agree)."""
        exclude = exclude or {}
        problems = []
        for shard in self.shards:
            try:
                self.shard_state(shard, exclude=exclude.get(shard, ()))
            except AssertionError as error:
                problems.append(str(error))
        return problems

    def total_of(self, keys: Optional[Iterable[str]] = None) -> int:
        """Sum of numeric values for ``keys`` (default: all) across shards."""
        keys = tuple(keys) if keys is not None else self.keys
        total = 0
        for key in keys:
            value = self.shard_state(self.shard_of(key)).get(key, 0)
            if isinstance(value, (int, float)):
                total += value
        return total
