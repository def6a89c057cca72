"""Shared test utilities: tiny harnesses around the simulation kernel."""

from __future__ import annotations

import pathlib
from dataclasses import replace as dataclass_replace
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bcast.app import EchoApplication, ExecutionContext
from repro.bcast.client import GroupProxy
from repro.bcast.config import BroadcastConfig, CostModel
from repro.bcast.group import BroadcastGroup
from repro.bcast.messages import CheckpointData, Reply, Request, StateResponse
from repro.bcast.reconfig import regency_quorum
from repro.core.messages import RelayAck, RelayBatch, WireMulticast
from repro.crypto.keys import KeyRegistry
from repro.env.actor import Actor
from repro.env.api import Runtime
from repro.env.chaos import ChaosConfig, install_chaos
from repro.env.simbackend import SimRuntime
from repro.runtime.chaos import DEFAULT_SOAK
from repro.scenario import ScenarioSpec
from repro.sim.latency import JitterLatency

#: the shipped scenario files (the named soaks CI runs live here)
SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "examples" / "scenarios"

#: Cheap cost model for functional tests — fast but still serialized per CPU.
FAST_COSTS = CostModel(
    request_recv=1e-6,
    propose_fixed=1e-5,
    propose_per_msg=1e-6,
    validate_fixed=1e-5,
    validate_per_msg=1e-6,
    vote_recv=1e-6,
    execute_per_msg=1e-6,
    reply_per_msg=1e-6,
    relay_per_dest=1e-6,
)


def replica_names(group_id: str, n: int = 4) -> Tuple[str, ...]:
    return tuple(f"{group_id}/r{i}" for i in range(n))


def make_config(group_id: str = "g1", f: int = 1, **overrides: Any) -> BroadcastConfig:
    params: Dict[str, Any] = dict(
        group_id=group_id,
        replicas=replica_names(group_id, 3 * f + 1),
        f=f,
        costs=FAST_COSTS,
        request_timeout=0.5,
    )
    params.update(overrides)
    return BroadcastConfig(**params)


class TestClient(Actor):
    """A scripted client driving one group through a :class:`GroupProxy`."""

    __test__ = False  # not a pytest collectible

    def __init__(self, name: str, runtime: Runtime, config: BroadcastConfig,
                 registry: KeyRegistry,
                 retransmit_timeout: Optional[float] = 4.0) -> None:
        super().__init__(name, runtime)
        self.proxy = GroupProxy(
            self, config.group_id, config.replicas, config.f, registry,
            retransmit_timeout=retransmit_timeout,
        )
        self.results: List[Any] = []

    def submit(self, command: Any, callback: Optional[Callable[[Any], None]] = None) -> int:
        def record(result: Any) -> None:
            self.results.append(result)
            if callback is not None:
                callback(result)

        return self.proxy.submit(command, record)

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Reply):
            self.proxy.handle_reply(src, payload)


class Harness:
    """One group + clients on a LAN-like network, ready to run; with
    ``chaos``, every message goes through a ChaosTransport at those rates."""

    def __init__(self, f: int = 1, seed: int = 1, group_id: str = "g1",
                 config: Optional[BroadcastConfig] = None,
                 replica_classes: Optional[dict] = None,
                 trace_capacity: int = 5000,
                 chaos: Optional[ChaosConfig] = None) -> None:
        self.runtime = SimRuntime(
            latency=JitterLatency(0.00005, 0.2),
            seed=seed, trace_capacity=trace_capacity)
        if chaos is not None:
            install_chaos(self.runtime, chaos)
        self.loop = self.runtime.loop
        self.monitor = self.runtime.monitor
        self.rng = self.runtime.rng
        self.network = self.runtime.network
        self.registry = KeyRegistry()
        self.config = config if config is not None else make_config(group_id, f=f)
        self.group = BroadcastGroup.build(
            self.runtime, self.config, self.registry,
            app_factory=lambda name: EchoApplication(),
            replica_classes=replica_classes,
        )
        self.clients: List[TestClient] = []

    def add_client(self, name: str = None, **kwargs: Any) -> TestClient:
        name = name if name is not None else f"c{len(self.clients)}"
        client = TestClient(name, self.runtime, self.config, self.registry,
                            **kwargs)
        self.network.register(client)
        self.clients.append(client)
        return client

    def run(self, until: float = 10.0, max_events: int = 2_000_000) -> None:
        self.group.start()
        self.loop.run(until=until, max_events=max_events)

    def executed_commands(self) -> List[List[Any]]:
        """Per-replica executed command sequences (EchoApplication only)."""
        return [replica.app.executed for replica in self.group.replicas]


# ------------------------------------------- ByzCast application unit tests


def configs_for(tree, f: int = 1, **overrides: Any) -> Dict[str, BroadcastConfig]:
    """One default ``BroadcastConfig`` per group of ``tree``."""
    return {gid: make_config(gid, f=f, **overrides) for gid in tree.nodes}


class FakeReplica(Actor):
    """A minimal actor standing in for a Replica during app unit tests;
    ``runtime`` defaults to a fresh sim runtime with a small trace.

    What the application pools itself (``offer``) waits in :attr:`pool`
    until :meth:`order_pooled` orders it, each sender's requests in seq
    order, as a leader would.
    """

    def __init__(self, name, config, runtime=None):
        super().__init__(name, runtime if runtime is not None
                         else SimRuntime(trace_capacity=100))
        self.config = config
        #: regency 0 for good: its leader is the group's first member
        self.regency = SimpleNamespace(current=0)
        self.sent = []
        #: (sender, seq) -> the request the application offered
        self.pool = {}
        #: sender -> the last seq ordered
        self.ordered = {}

    def send(self, dst, payload):
        self.sent.append((dst, payload))

    def in_quorum(self):
        return self.name in regency_quorum(self.config.replicas,
                                           self.config.f, 0)

    def work(self, cost, callback):
        callback()  # synchronous for unit tests

    def on_message(self, src, payload):  # pragma: no cover - unused
        pass

    def offer(self, request):
        if request.seq > self.ordered.get(request.sender, 0):
            self.pool[request.key()] = request

    def withdraw(self, sender):
        for key in [key for key in self.pool if key[0] == sender]:
            del self.pool[key]

    def order_pooled(self, app) -> None:
        """Order every pooled request that is next in its sender's FIFO
        sequence, one decided batch each, until none is."""
        while True:
            key = next((key for key in sorted(self.pool)
                        if key[1] == self.ordered.get(key[0], 0) + 1), None)
            if key is None:
                return
            self.ordered[key[0]] = key[1]
            run_batch(app, self, self.pool.pop(key))


def wire_for(sender, seq, dst, payload=("p",)) -> WireMulticast:
    """A multicast of origin ``sender``."""
    return WireMulticast(sender=sender, seq=seq, dst=tuple(sorted(dst)),
                         payload=payload)


def relayed(group, parent_replica, seq, *wires, index=None) -> Request:
    """The request a parent replica's relay of ``wires`` arrives as.

    A correct parent relays to a child through one proxy, so its request
    ``seq`` carries the batch of index ``seq - 1``: the default ``index``.
    """
    index = seq - 1 if index is None else index
    return Request(group, parent_replica, seq, RelayBatch(tuple(wires), index))


def run_batch(app, replica, request):
    """Run ``request`` as a decided batch of one (execute, then the boundary)."""
    ctx = ExecutionContext(replica=replica, time=replica.clock.now)
    result = app.execute(request, ctx)
    app.end_batch(ctx)
    return result


def execute(app, replica, request):
    """``request`` reaching ``replica`` of ``app``: a relayed copy is a vote
    (``intake``, no result), anything else a decided batch of one; then the
    replica orders whatever the application pooled meanwhile."""
    result = None
    if not app.intake(request, replica):
        result = run_batch(app, replica, request)
    replica.order_pooled(app)
    return result


def acks(replica):
    """The ``RelayAck``s ``replica`` sent, as ``(relayer, next_index)``."""
    return [(dst, ack.next_index) for dst, ack in replica.sent
            if isinstance(ack, RelayAck)]


# ------------------------------------------------- shipped (forged) checkpoints


def state_response(sender: str, ckpt: CheckpointData) -> StateResponse:
    """``sender``'s answer to a state request: its checkpoint, no suffix."""
    return StateResponse(group="g1", sender=sender, from_cid=0,
                         next_cid=ckpt.cid + 1, regency=0, batches=(),
                         checkpoint=ckpt, horizon=ckpt.cid + 1)


def reshaped(ckpt: CheckpointData, acted) -> CheckpointData:
    """A ``ByzCastApplication`` checkpoint claiming the same digest over a
    state whose acted id sequence went through a forger."""
    tag, old_acted, *rest = ckpt.state
    return dataclass_replace(ckpt, state=(tag, acted(old_acted), *rest))


def swapped(ids):
    return (ids[1], ids[0]) + ids[2:]


def doubled(ids):
    return ids + ids[-1:]


def first_altered(ids):
    sender, seq, dst, payload = ids[0]
    return ((sender, seq, dst, ("tampered",)),) + ids[1:]


def soak_spec(base: ScenarioSpec = DEFAULT_SOAK, **changes: Any) -> ScenarioSpec:
    """``base`` with fields replaced, each routed to the section declaring it
    (``seed`` and ``backend`` are the scenario's own, ``duration`` the
    workload's: the nemesis inherits seed and horizon from those)."""
    for key, value in changes.items():
        section = None if key == "seed" else next(
            (name for name in ("topology", "workload", "protocol", "faults")
             if hasattr(getattr(base, name), key)), None)
        if section is not None:
            key, value = section, dataclass_replace(
                getattr(base, section), **{key: value})
        base = dataclass_replace(base, **{key: value})
    return base


#: the file the CI churn-soak job and scripts/run_experiments.py run
CHURN_SOAK = ScenarioSpec.load(SCENARIOS / "soak_churn.json")
#: the churn regression pins and the seed sweep: a short, narrow,
#: churn-profile-only soak (run with ``messages=24``)
CHURN_PIN = dict(duration=4.0, clients=2, max_in_flight=2,
                 joins=0, leaves=0, scale_cycles=0)
