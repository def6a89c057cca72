"""The atomic multicast client (``a-multicast``, §IV client behaviour).

A client submits its message, as a request it signs, to the 2f+1 replicas
of the quorum of the lowest common ancestor group of the destination set
(docs/PROTOCOL.md, "Who is sent what"), and considers it delivered
once the acknowledgements of **each** destination group carry (``f + 1`` of
its members, docs/PROTOCOL.md "Who counts").  When the entry group is
itself a destination, its acknowledgement is the ordered request's reply,
``("delivered", result)``, gathered by the entry proxy; every other
destination group sends a
:class:`~repro.core.messages.MulticastReply`, which the client asks for
again with a :class:`~repro.core.messages.DeliveryQuery` when too few
arrive.  An entry group that is not a destination answers only a
retransmission (``("ack",)``): the first destination group's confirmation
proves that it ordered the message, and completes the entry request.
Latency is measured from submission to the last confirmation — the figure
the paper's latency plots report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.bcast.client import GroupProxy, ReadProxy
from repro.bcast.config import BroadcastConfig, capped_backoff
from repro.bcast.messages import ReadReply, Reply
from repro.bcast.tally import Tally
from repro.core.messages import DeliveryQuery, MulticastReply, WireMulticast
from repro.core.tree import OverlayTree
from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyRegistry
from repro.env import Actor, Runtime
from repro.types import ClientId, Destination, MessageId, MulticastMessage, destination

#: an op's own continuation: ``(message, latency, results)``, where
#: ``results`` maps each destination group to its f+1-confirmed result
CompletionCallback = Callable[[MulticastMessage, float, Dict[str, object]],
                              None]
ReadCallback = Callable[["ReadOutcome"], None]

#: read modes a client may request (see docs/READS.md)
READ_MODES = ("ordered", "optimistic")
#: DeliveryQuery rounds per message before the client gives up (the same
#: cap as a proxy's retransmissions)
MAX_DELIVERY_QUERIES = 16


@dataclass(frozen=True)
class ReadOutcome:
    """What one ``aread`` returned and how it got there.

    ``fallback`` is True when the optimistic quorum never formed and the
    value came from a full ordered multicast instead (that path is
    linearizable, so the staleness contract is trivially met).  ``cid`` is
    the consensus id the accepted quorum vouched for (-1 on fallback);
    ``voters`` are the replicas whose matching replies formed the quorum
    (empty on fallback).
    """

    group: str
    mode: str
    rid: int
    result: object
    cid: int
    fallback: bool
    latency: float
    voters: FrozenSet[str] = frozenset()


@dataclass
class _InFlightRead:
    """Book-keeping for one not-yet-resolved aread."""

    group: str
    mode: str
    payload: Tuple
    issued_at: float
    callback: Optional[ReadCallback]


@dataclass
class _InFlight:
    """Book-keeping for one not-yet-confirmed multicast."""

    message: MulticastMessage
    sent_at: float
    needed: FrozenSet[str]
    #: the MulticastReplies, by (group, canonical bytes of the result)
    votes: Tally = field(default_factory=Tally)
    confirmed: Set[str] = field(default_factory=set)
    #: per group: the f+1-confirmed application result
    group_results: Dict[str, object] = field(default_factory=dict)
    callback: Optional[CompletionCallback] = None
    #: where/with which proxy seq the wire request entered the tree, so
    #: accepted (quorum-confirmed) progress can reset that proxy's backoff
    entry_group: str = ""
    entry_seq: int = 0
    #: once the entry group answered: when to send the next DeliveryQuery
    #: round to the destination groups still unconfirmed, and how many
    #: rounds went out
    next_query: Optional[float] = None
    queries: int = 0


class MulticastClient(Actor):
    """An ``a-multicast`` endpoint.

    Args:
        name: unique endpoint name; doubles as the message sender identity,
            so it must match the key used to sign (the registry derives keys
            per identity automatically).
        tree: the deployment's overlay tree.
        group_configs: all group configurations (for replica membership).
        on_complete: invoked as ``(message, latency)`` when any multicast
            is confirmed by all destination groups (after the op's own
            ``callback``, which also gets the per-group results).
    """

    def __init__(
        self,
        name: str,
        runtime: Runtime,
        tree: OverlayTree,
        group_configs: Dict[str, BroadcastConfig],
        registry: KeyRegistry,
        on_complete: Optional[Callable[[MulticastMessage, float],
                                       None]] = None,
        retransmit_timeout: Optional[float] = 4.0,
    ) -> None:
        super().__init__(name, runtime)
        self.tree = tree
        self.group_configs = dict(group_configs)
        self.registry = registry
        self.on_complete = on_complete
        self.retransmit_timeout = retransmit_timeout
        self._proxies: Dict[str, GroupProxy] = {}
        self._read_proxies: Dict[str, ReadProxy] = {}
        self._next_seq = 1
        self._next_read = 1
        self._inflight: Dict[Tuple[str, int], _InFlight] = {}
        self._inflight_reads: Dict[Tuple[str, str, int], _InFlightRead] = {}
        #: (message, latency) of every confirmed multicast, in completion order
        self.completions: List[Tuple[MulticastMessage, float]] = []
        #: every resolved read, in resolution order (chaos invariants audit
        #: the voters of non-fallback outcomes against replica read journals)
        self.read_log: List[ReadOutcome] = []
        self.reads_issued = 0
        self.reads_accepted = 0
        self.reads_fallback = 0
        #: optional :class:`repro.optimizer.traffic.TrafficCollector` — when
        #: attached, every submitted write notes (destination set, hops
        #: under the current tree); None costs nothing on the submit path
        self.traffic = None
        #: tree-switch barrier state (see docs/TREES.md): while paused, new
        #: writes are signed and sequenced immediately but their tree entry
        #: is deferred, so no message is ever in flight across two trees
        self._paused = False
        self._deferred: List[Tuple[WireMulticast, _InFlight]] = []
        #: armed while some message waits on MulticastReplies only
        self._query_timer = None

    # ------------------------------------------------------------------- api

    def amulticast(
        self,
        dst: Destination,
        payload: Tuple = (),
        callback: Optional[CompletionCallback] = None,
    ) -> MessageId:
        """Atomically multicast ``payload`` to the groups in ``dst``.

        ``callback(message, latency, results)`` fires once, when every
        destination group confirmed; ``results`` maps each group to the
        a-delivery result f+1 of its members agreed on.
        """
        seq = self._next_seq
        self._next_seq += 1
        mid = MessageId(ClientId(self.name), seq)
        message = MulticastMessage(mid=mid, dst=frozenset(dst), payload=tuple(payload))
        wire = WireMulticast.from_message(message)

        entry = _InFlight(
            message=message,
            sent_at=self.clock.now,
            needed=frozenset(message.dst),
            callback=callback,
        )
        if self._paused:
            # Sequencing already happened (seq above), so the client's FIFO
            # order survives the deferral; entry-group resolution waits for
            # resume() and uses whatever tree is current *then*.
            self._deferred.append((wire, entry))
            self.monitor.record(self.name, "client.deferred", seq=seq)
            return mid
        self._enter_tree(wire, entry)
        return mid

    def _enter_tree(self, wire: WireMulticast, entry: _InFlight) -> None:
        message = entry.message
        seq = message.mid.seq
        entry_group = self._entry_group(message)
        entry.entry_group = entry_group
        self._inflight[(self.name, seq)] = entry
        if self.traffic is not None:
            self.traffic.note(message.dst,
                              self.tree.destination_height(message.dst))
        entry.entry_seq = self._proxy(entry_group).submit(
            wire, partial(self._entry_replied, (self.name, seq)))
        if self.monitor.enabled:
            self.monitor.record(self.name, "client.amulticast",
                                seq=seq, dst=",".join(sorted(message.dst)))
        else:
            self.monitor.count("client.amulticast")

    def aread(
        self,
        group: str,
        payload: Tuple = (),
        mode: str = "optimistic",
        callback: Optional[ReadCallback] = None,
    ) -> int:
        """Read from one destination group, bypassing consensus when safe.

        ``mode`` selects the staleness contract (``docs/READS.md``):

        * ``"optimistic"`` — unordered probe of the group's live applied
          state, accepted on f+1 matching (cid, value) replies; falls back
          to a full ordered multicast on mismatch or timeout.
        * ``"ordered"`` — skip the optimism and pay the full multicast.

        ``callback(outcome)`` fires exactly once with a
        :class:`ReadOutcome`.  Returns the read's round id.
        """
        if mode not in READ_MODES:
            raise ValueError(f"unknown read mode {mode!r}")
        rid = self._next_read
        self._next_read += 1
        self.reads_issued += 1
        entry = _InFlightRead(group=group, mode=mode, payload=tuple(payload),
                              issued_at=self.clock.now, callback=callback)
        key = (group, mode, rid)
        self._inflight_reads[key] = entry
        if mode == "ordered":
            self._read_fallback(key, entry)
            return rid
        proxy = self._read_proxy(group)
        proxy.read(
            entry.payload,
            on_accept=partial(self._read_accepted, key),
            on_exhausted=partial(self._read_exhausted, key),
        )
        if self.monitor.enabled:
            self.monitor.record(self.name, "client.aread", group=group,
                                mode=mode)
        else:
            self.monitor.count("client.aread")
        return rid

    def _read_accepted(self, key: Tuple[str, str, int], cid: int,
                       result: object, voters: FrozenSet[str]) -> None:
        entry = self._inflight_reads.pop(key, None)
        if entry is None:
            return
        group, mode, rid = key
        self.reads_accepted += 1
        outcome = ReadOutcome(
            group=group, mode=mode, rid=rid, result=result, cid=cid,
            fallback=False, latency=self.clock.now - entry.issued_at,
            voters=voters,
        )
        self.read_log.append(outcome)
        if self.monitor.enabled:
            self.monitor.record(self.name, "client.read_accepted",
                                group=group, mode=mode, cid=cid)
        else:
            self.monitor.count("client.read_accepted")
        if entry.callback is not None:
            entry.callback(outcome)

    def _read_exhausted(self, key: Tuple[str, str, int]) -> None:
        entry = self._inflight_reads.get(key)
        if entry is None:
            return
        self.reads_fallback += 1
        self.monitor.record(self.name, "client.read_fallback",
                            group=entry.group, mode=entry.mode)
        self._read_fallback(key, entry)

    def _read_fallback(self, key: Tuple[str, str, int],
                       entry: _InFlightRead) -> None:
        """Resolve a read through the ordered path (always linearizable)."""
        group, mode, rid = key

        def finish(message: MulticastMessage, latency: float,
                   results: Dict[str, object]) -> None:
            inflight = self._inflight_reads.pop(key, None)
            if inflight is None:
                return
            outcome = ReadOutcome(
                group=group, mode=mode, rid=rid, result=results.get(group),
                cid=-1, fallback=(mode != "ordered"),
                latency=self.clock.now - inflight.issued_at,
            )
            self.read_log.append(outcome)
            if inflight.callback is not None:
                inflight.callback(outcome)

        self.amulticast(destination(group), payload=entry.payload,
                        callback=finish)

    def pending(self) -> int:
        """Operations submitted but not yet resolved (writes and reads)."""
        return len(self._inflight) + len(self._inflight_reads) + len(self._deferred)

    def pending_writes(self) -> int:
        """Writes actually *in the tree* — submitted and unconfirmed.

        Deferred (paused) writes do not count: the tree-switch barrier
        waits for this to reach zero, and deferred messages only enter the
        tree after the switch.
        """
        return len(self._inflight)

    # ---------------------------------------------------- tree-switch barrier

    def pause(self) -> None:
        """Hold new writes back (they queue in FIFO order; see resume)."""
        self._paused = True

    def resume(self) -> None:
        """Release writes deferred while paused, in original FIFO order."""
        self._paused = False
        deferred, self._deferred = self._deferred, []
        for wire, entry in deferred:
            self._enter_tree(wire, entry)

    def update_tree(self, tree: OverlayTree) -> None:
        """Adopt a new overlay tree (out-of-band safe for clients).

        Entry-group resolution happens per submit, so only messages
        submitted *after* this call route under the new tree — which is why
        the controller pauses clients and drains in-flight writes before
        ordering the :class:`~repro.core.messages.TreeUpdate` (docs/TREES.md).
        """
        self.tree = tree

    def _entry_group(self, message: MulticastMessage) -> str:
        """Where the message enters the tree: the lca of its destinations.

        The Baseline protocol's client overrides this to return the root.
        """
        return self.tree.lca(message.dst)

    # ---------------------------------------------------------------- wiring

    def _proxy(self, group_id: str) -> GroupProxy:
        if group_id not in self._proxies:
            config = self.group_configs[group_id]
            self._proxies[group_id] = GroupProxy(
                owner=self,
                group_id=group_id,
                replicas=config.replicas,
                f=config.f,
                registry=self.registry,
                retransmit_timeout=self.retransmit_timeout,
            )
        return self._proxies[group_id]

    def _read_proxy(self, group_id: str) -> ReadProxy:
        if group_id not in self._read_proxies:
            config = self.group_configs[group_id]
            self._read_proxies[group_id] = ReadProxy(
                owner=self,
                group_id=group_id,
                replicas=config.replicas,
                f=config.f,
            )
        return self._read_proxies[group_id]

    def update_group(self, group_id: str, replicas: Tuple[str, ...],
                     f: int) -> None:
        """Adopt a reconfigured group's membership.

        Out-of-band delivery is safe for clients: vote counting is local
        (not replicated state), and replies from replicas outside the
        currently-known membership are simply ignored until the update
        lands.  Every outstanding tally counts among the new membership
        from now on; retransmission (and a read round's widening) is what
        reaches new members.
        """
        config = self.group_configs.get(group_id)
        if config is None:
            return
        self.group_configs[group_id] = dataclass_replace(
            config, replicas=tuple(replicas), f=f)
        for proxies in (self._proxies, self._read_proxies):
            proxy = proxies.get(group_id)
            if proxy is not None:
                proxy.update_replicas(tuple(replicas), f)

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Reply):
            proxy = self._proxies.get(payload.group)
            if proxy is not None:
                proxy.handle_reply(src, payload)
        elif isinstance(payload, ReadReply):
            read_proxy = self._read_proxies.get(payload.group)
            if read_proxy is not None:
                read_proxy.handle_read_reply(src, payload)
        elif isinstance(payload, MulticastReply):
            self._handle_multicast_reply(src, payload)

    def _handle_multicast_reply(self, src: str, reply: MulticastReply) -> None:
        if reply.sender != self.name or reply.replica != src:
            return
        entry = self._inflight.get((reply.sender, reply.seq))
        if entry is None:
            return
        config = self.group_configs.get(reply.group)
        if config is None or src not in config.replicas:
            return
        if reply.group not in entry.needed or reply.group in entry.confirmed:
            return
        key = (reply.group, bytes(canonical_bytes(reply.result)))
        entry.votes.add(key, src)
        if entry.votes.carries(key, config.replicas, config.f + 1):
            self._confirm((reply.sender, reply.seq), entry, reply.group,
                          reply.result)

    def _entry_replied(self, key: Tuple[str, int], result: Any) -> None:
        """The entry proxy's f+1-matched result for the message ``key``.

        ``("delivered", r)`` confirms a destination entry group with its
        a-delivery result ``r``; the groups still unconfirmed then wait on
        MulticastReplies, asked for again by :meth:`_query_deliveries`.
        ``("ack",)`` from an entry group that only relays confirms nothing:
        it answers a retransmission, so no destination confirmed within a
        retransmission timeout, and the destinations are asked at once.  An
        error: the message never entered the tree.
        """
        entry = self._inflight.get(key)
        if entry is None:
            return
        if (isinstance(result, tuple) and len(result) == 2
                and result[0] == "delivered"):
            group = entry.entry_group
            if group in entry.needed and group not in entry.confirmed:
                self._confirm(key, entry, group, result[1])
            self._await_deliveries(key, entry, self.retransmit_timeout)
        elif result == ("ack",):
            self._await_deliveries(key, entry, 0.0)

    def _await_deliveries(self, key: Tuple[str, int], entry: _InFlight,
                          delay: Optional[float]) -> None:
        """The entry group answered for message ``key``: ask the destination
        groups still unconfirmed in ``delay``, then back off."""
        if key not in self._inflight or self.retransmit_timeout is None:
            return
        entry.next_query = self.clock.now + delay
        if delay <= 0:
            if self._query_timer is not None:
                self._query_timer.cancel()
            self._query_deliveries()
        elif self._query_timer is None:
            self._query_timer = self.set_timer(self.retransmit_timeout,
                                               self._query_deliveries)

    def _query_deliveries(self) -> None:
        """Send a DeliveryQuery round for each message that is due one.

        The round goes to every replica of each destination group that has
        not confirmed; the rounds of one message back off like a proxy's
        retransmissions.  One timer serves the whole client, re-armed while
        any message still waits.
        """
        self._query_timer = None
        now = self.clock.now
        waiting = False
        for (sender, seq), entry in self._inflight.items():
            if entry.next_query is None or entry.queries >= MAX_DELIVERY_QUERIES:
                continue
            waiting = True
            if entry.next_query > now:
                continue
            entry.queries += 1
            entry.next_query = now + capped_backoff(self.retransmit_timeout,
                                                    entry.queries)
            self.monitor.count("client.delivery_query")
            for group in sorted(entry.needed - entry.confirmed):
                query = DeliveryQuery(group, sender, seq)
                for replica in self.group_configs[group].replicas:
                    self.send(replica, query)
        if waiting:
            self._query_timer = self.set_timer(self.retransmit_timeout,
                                               self._query_deliveries)

    def _confirm(self, key: Tuple[str, int], entry: _InFlight, group: str,
                 result: Any) -> None:
        """Destination ``group`` confirmed on f+1 matching ``result``s.

        That proves the entry group ordered the message: an entry group
        that is not a destination is answered by it (its proxy request
        completes).  For a destination entry group it is progress that
        resets the proxy's backoff — only *accepted* progress does, a full
        f+1 match vouched by at least one correct replica; a single
        Byzantine fast-replier could emit bare replies at will and pin the
        backoff at its floor forever.
        """
        entry.confirmed.add(group)
        entry.group_results[group] = result
        entry_proxy = self._proxies[entry.entry_group]
        if entry.confirmed == entry.needed:
            entry_proxy.settle(entry.entry_seq)
            self._complete(key, entry)
        elif entry.entry_group in entry.needed:
            entry_proxy.note_progress(entry.entry_seq)
        elif entry_proxy.settle(entry.entry_seq):
            self._await_deliveries(key, entry, self.retransmit_timeout)

    def _complete(self, key: Tuple[str, int], entry: _InFlight) -> None:
        del self._inflight[key]
        latency = self.clock.now - entry.sent_at
        self.completions.append((entry.message, latency))
        if self.monitor.enabled:
            self.monitor.record(self.name, "client.delivered", seq=key[1])
        else:
            self.monitor.count("client.delivered")
        if entry.callback is not None:
            entry.callback(entry.message, latency, entry.group_results)
        if self.on_complete is not None:
            self.on_complete(entry.message, latency)
