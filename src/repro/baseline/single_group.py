"""Plain BFT-SMaRt: a single group ordering and executing every message.

This is the paper's reference protocol: it gives the best possible cost for
a message ordered once (3 communication steps + client round-trip) and an
upper bound on per-group throughput.  Clients use the same ``amulticast``
interface as ByzCast clients (the destination set is accepted for workload
compatibility but everything is ordered by the one group), so workload
drivers are protocol-agnostic.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bcast.app import Application, ExecutionContext
from repro.bcast.client import GroupProxy
from repro.bcast.config import BroadcastConfig
from repro.bcast.group import BroadcastGroup
from repro.bcast.messages import Reply, Request
from repro.core.messages import WireMulticast
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign, verify_signed
from repro.env import Actor, NetworkConfig, Runtime
from repro.env.simbackend import SimRuntime
from repro.types import ClientId, Delivery, Destination, MessageId, MulticastMessage

CompletionCallback = Callable[[MulticastMessage, float], None]


class RecordingApplication(Application):
    """Executes multicasts by recording their delivery (atomic broadcast)."""

    def __init__(self, group_id: str, registry: KeyRegistry) -> None:
        self.group_id = group_id
        self.registry = registry
        self.deliveries: List[Delivery] = []

    def execute(self, request: Request, ctx: ExecutionContext) -> Any:
        wire = request.command
        if not isinstance(wire, WireMulticast):
            return ("error", "not a multicast")
        if wire.signature is None or wire.signature.signer != wire.sender:
            return ("error", "unsigned")
        if not verify_signed(self.registry, wire):
            return ("error", "invalid origin signature")
        message = wire.to_message()
        self.deliveries.append(
            Delivery(time=ctx.time, process=ctx.replica_name,
                     group=self.group_id, message=message)
        )
        return ("ack",)

    def delivered_messages(self) -> List[MulticastMessage]:
        return [record.message for record in self.deliveries]


class SingleGroupClient(Actor):
    """A client of the single ordering group.

    Completion (and therefore latency) is the BFT client criterion: ``f+1``
    identical replies from the group.
    """

    def __init__(
        self,
        name: str,
        runtime: Runtime,
        config: BroadcastConfig,
        registry: KeyRegistry,
        on_complete: Optional[CompletionCallback] = None,
        retransmit_timeout: Optional[float] = 4.0,
    ) -> None:
        super().__init__(name, runtime)
        self.config = config
        self.registry = registry
        self.on_complete = on_complete
        self.proxy = GroupProxy(self, config.group_id, config.replicas,
                                config.f, registry,
                                retransmit_timeout=retransmit_timeout)
        self._next_seq = 1
        self._sent_at: Dict[int, Tuple[MulticastMessage, float]] = {}
        self.completions: List[Tuple[MulticastMessage, float]] = []

    def amulticast(
        self,
        dst: Destination,
        payload: Tuple = (),
        callback: Optional[CompletionCallback] = None,
    ) -> MessageId:
        """Broadcast ``payload`` (``dst`` is carried but ordering is global)."""
        seq = self._next_seq
        self._next_seq += 1
        mid = MessageId(ClientId(self.name), seq)
        message = MulticastMessage(mid=mid, dst=frozenset(dst), payload=tuple(payload))
        unsigned = WireMulticast.from_message(message)
        wire = unsigned.with_signature(
            sign(self.registry, self.name, unsigned.signed_part()))
        self._sent_at[seq] = (message, self.clock.now)
        self.proxy.submit(wire, partial(self._on_result, seq, callback))
        return mid

    def _on_result(self, seq: int, callback: Optional[CompletionCallback],
                   result: Any) -> None:
        entry = self._sent_at.pop(seq, None)
        if entry is None:
            return
        msg, started = entry
        latency = self.clock.now - started
        self.completions.append((msg, latency))
        if callback is not None:
            callback(msg, latency)
        if self.on_complete is not None:
            self.on_complete(msg, latency)

    def pending(self) -> int:
        return len(self._sent_at)

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Reply):
            self.proxy.handle_reply(src, payload)


class SingleGroupDeployment:
    """One BFT-SMaRt group + clients, ready to run."""

    def __init__(
        self,
        *,
        network_config: Optional[NetworkConfig] = None,
        seed: int = 1,
        group_id: str = "g1",
        sites: Optional[List[str]] = None,
        trace_capacity: int = 0,
        runtime: Optional[Runtime] = None,
        **engine: Any,
    ) -> None:
        """``engine``: the group's :meth:`BroadcastConfig.for_group`
        arguments (``f``, ``costs``, ``max_batch``, ...)."""
        if runtime is None:
            runtime = SimRuntime(
                network_config=network_config,
                seed=seed,
                trace_capacity=trace_capacity,
            )
        self.runtime = runtime
        self.monitor = runtime.monitor
        self.rng = runtime.rng
        self.network = runtime.transport
        self.registry = KeyRegistry()
        self.config = BroadcastConfig.for_group(group_id, **engine)
        self.group = BroadcastGroup.build(
            runtime=self.runtime,
            config=self.config,
            registry=self.registry,
            app_factory=lambda name: RecordingApplication(group_id, self.registry),
            sites=sites,
        )
        #: same shape as a tree deployment's, so harness code walks both
        self.groups: Dict[str, BroadcastGroup] = {group_id: self.group}
        self.clients: List[SingleGroupClient] = []
        self._started = False

    def add_client(self, name: str, site: str = "site0",
                   on_complete: Optional[CompletionCallback] = None,
                   retransmit_timeout: Optional[float] = 4.0,
                   ) -> SingleGroupClient:
        client = SingleGroupClient(name, self.runtime, self.config, self.registry,
                                   on_complete=on_complete,
                                   retransmit_timeout=retransmit_timeout)
        self.network.register(client, site=site)
        self.clients.append(client)
        return client

    def start(self) -> None:
        if not self._started:
            self.group.start()
            self._started = True

    def run(self, until: float = 10.0, max_events: Optional[int] = None) -> None:
        self.start()
        self.runtime.run(until=until, max_events=max_events)

    def apps(self) -> List[RecordingApplication]:
        return [replica.app for replica in self.group.replicas]
