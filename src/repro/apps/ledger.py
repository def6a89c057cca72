"""A multi-channel BFT ordering service (ledger) on top of ByzCast.

The paper motivates BFT atomic multicast with blockchain systems (§I), and
BFT-SMaRt itself powers a Hyperledger Fabric ordering service [32].  In
Fabric's architecture, transactions are ordered per *channel*; with one
BFT group per channel, ordering scales with the number of channels — but
plain per-channel ordering cannot support transactions that must appear
*atomically and in a consistent order* on several channels.

ByzCast closes exactly that gap.  This module implements:

* per-channel hash-chained ledgers (every replica of a channel's group
  maintains the same chain — agreement on the chain is byproduct of
  atomic broadcast);
* single-channel transactions on the genuine fast path;
* **cross-channel transactions** atomically multicast to every involved
  channel, appearing on each chain exactly once, with the acyclic-order
  guarantee preventing cross-channel ordering anomalies;
* chain verification: any party can recompute and check the hash chain,
  and two channels' chains can be cross-checked for the relative order of
  shared transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.client import MulticastClient
from repro.core.deployment import ByzCastDeployment
from repro.core.node import ByzCastApplication
from repro.core.tree import OverlayTree
from repro.crypto.digest import digest
from repro.errors import ConfigurationError
from repro.types import MessageId, MulticastMessage, destination

GENESIS = b"genesis"


@dataclass(frozen=True)
class LedgerEntry:
    """One committed transaction on one channel's chain."""

    height: int
    txid: Tuple[str, int]          # (submitter, per-submitter sequence)
    channels: Tuple[str, ...]      # all channels this tx was multicast to
    payload: Tuple
    prev_hash: bytes
    entry_hash: bytes


class ChannelLedger:
    """The per-replica, hash-chained ledger of one channel."""

    #: read-tier query kinds (docs/READS.md): ("head",) answers with the
    #: chain head, ("entry", height) with one committed entry
    READ_OPS = frozenset({"head", "entry"})

    def __init__(self, channel: str) -> None:
        self.channel = channel
        self.entries: List[LedgerEntry] = []

    @classmethod
    def is_read_only(cls, op: Tuple) -> bool:
        """Classify a query for the read tier."""
        return bool(op) and op[0] in cls.READ_OPS

    def read(self, op: Tuple) -> Any:
        """Serve a chain query from the live chain (pure, deterministic)."""
        if not self.is_read_only(op):
            return ("error", "not a read-only op")
        height = self.height
        if op[0] == "head":
            head = self.entries[height - 1].entry_hash if height else GENESIS
            return ("head", height, head)
        wanted = op[1]
        if 0 <= wanted < height:
            return ("entry", self.entries[wanted])
        return ("none",)

    @property
    def head_hash(self) -> bytes:
        return self.entries[-1].entry_hash if self.entries else GENESIS

    @property
    def height(self) -> int:
        return len(self.entries)

    def append(self, txid: Tuple[str, int], channels: Tuple[str, ...],
               payload: Tuple) -> LedgerEntry:
        prev = self.head_hash
        entry_hash = digest(("entry", self.channel, self.height, txid,
                             channels, payload, prev))
        entry = LedgerEntry(
            height=self.height,
            txid=txid,
            channels=channels,
            payload=payload,
            prev_hash=prev,
            entry_hash=entry_hash,
        )
        self.entries.append(entry)
        return entry

    def verify_chain(self) -> bool:
        """Recompute every hash; True iff the chain is intact."""
        prev = GENESIS
        for index, entry in enumerate(self.entries):
            if entry.height != index or entry.prev_hash != prev:
                return False
            expected = digest(("entry", self.channel, index, entry.txid,
                               entry.channels, entry.payload, prev))
            if entry.entry_hash != expected:
                return False
            prev = entry.entry_hash
        return True

    def txids(self) -> List[Tuple[str, int]]:
        return [entry.txid for entry in self.entries]

    def snapshot(self) -> Tuple[LedgerEntry, ...]:
        """Deterministic chain capture for checkpointing."""
        return tuple(self.entries)

    def restore(self, state: Tuple[LedgerEntry, ...]) -> None:
        self.entries = list(state)


def cross_channel_order_consistent(a: "ChannelLedger", b: "ChannelLedger") -> bool:
    """True iff transactions shared by both chains appear in the same order."""
    shared = set(a.txids()) & set(b.txids())
    order_a = [t for t in a.txids() if t in shared]
    order_b = [t for t in b.txids() if t in shared]
    return order_a == order_b


class LedgerClient(MulticastClient):
    """Submits transactions to one or more channels."""

    def submit_tx(self, channels: Sequence[str], payload: Tuple,
                  callback=None) -> MessageId:
        """Atomically order ``payload`` on all the given channels."""
        return self.amulticast(destination(*channels), payload=tuple(payload),
                               callback=callback)

    def read_head(self, channel: str, mode: str = "optimistic",
                  callback=None) -> int:
        """Read one channel's chain head through the unordered read tier."""
        return self.aread(channel, payload=("head",), mode=mode,
                          callback=callback)


class OrderingService:
    """A deployment of channels (target groups) with hash-chained ledgers."""

    def __init__(
        self,
        channels: Sequence[str],
        f: int = 1,
        tree: Optional[OverlayTree] = None,
        **deployment: Any,
    ) -> None:
        """``deployment`` keywords go to
        :class:`~repro.core.deployment.ByzCastDeployment`."""
        if not channels:
            raise ConfigurationError("need at least one channel")
        if tree is None:
            tree = OverlayTree.two_level(list(channels))
        missing = set(channels) - set(tree.targets)
        if missing:
            raise ConfigurationError(f"channels {sorted(missing)} not in tree")
        self.tree = tree
        self.channels = tuple(channels)
        self._ledgers: Dict[str, List[ChannelLedger]] = {}

        def app_factory(group_id, tree, group_configs, registry):
            ledger = ChannelLedger(group_id)
            self._ledgers.setdefault(group_id, []).append(ledger)

            def on_deliver(message: MulticastMessage, ctx, ledger=ledger):
                entry = ledger.append(
                    txid=(str(message.mid.sender), message.mid.seq),
                    channels=tuple(sorted(message.dst)),
                    payload=message.payload,
                )
                return ("committed", entry.height, entry.entry_hash)

            return ByzCastApplication(
                group_id=group_id, tree=tree, group_configs=group_configs,
                registry=registry, on_deliver=on_deliver,
                on_snapshot=ledger.snapshot, on_restore=ledger.restore,
                on_read=ledger.read,
            )

        overrides = {
            gid: {
                name: app_factory
                for name in (f"{gid}/r{i}" for i in range(3 * f + 1))
            }
            for gid in tree.nodes
        }
        self.deployment = ByzCastDeployment(
            tree, f=f, app_overrides=overrides, **deployment)
        self.deployment.client_class = LedgerClient
        self.run_until_quiescent = self.deployment.run_until_quiescent
        self.clients: List[LedgerClient] = []

    # -- clients -----------------------------------------------------------------

    def client(self, name: str, site: str = "site0") -> LedgerClient:
        client = self.deployment.add_client(name, site=site)
        self.clients.append(client)
        return client

    def run(self, until: float) -> None:
        self.deployment.run(until=until)

    # -- inspection ---------------------------------------------------------------

    def ledger(self, channel: str) -> ChannelLedger:
        """The agreed ledger of ``channel``; raises on replica divergence."""
        ledgers = self._ledgers[channel]
        reference = ledgers[0]
        for other in ledgers[1:]:
            if other.head_hash != reference.head_hash or other.height != reference.height:
                raise AssertionError(f"ledger divergence on channel {channel}")
        return reference

    def verify_all(self) -> List[str]:
        """Full audit: chain integrity + pairwise cross-channel consistency."""
        problems: List[str] = []
        for channel in self.channels:
            try:
                ledger = self.ledger(channel)
            except AssertionError as error:
                problems.append(str(error))
                continue
            if not ledger.verify_chain():
                problems.append(f"broken hash chain on {channel}")
        for index, a in enumerate(self.channels):
            for b in self.channels[index + 1:]:
                try:
                    if not cross_channel_order_consistent(self.ledger(a),
                                                          self.ledger(b)):
                        problems.append(f"order divergence between {a} and {b}")
                except AssertionError:
                    pass  # already reported above
        return problems
