"""Build a complete ByzCast system on an execution backend.

A deployment owns a :class:`~repro.env.api.Runtime` (clock + transport +
per-node executors), the key registry, one broadcast group per overlay-tree
node (each running :class:`ByzCastApplication`), and any number of
:class:`~repro.core.client.MulticastClient` endpoints.  By default it runs
on the deterministic simulation backend; pass ``runtime=`` to run the same
protocol stack in real time (see :mod:`repro.env.rtbackend`).

Example:
    >>> from repro.core import OverlayTree, ByzCastDeployment
    >>> from repro.types import destination
    >>> tree = OverlayTree.two_level(["g1", "g2"])
    >>> dep = ByzCastDeployment(tree)
    >>> client = dep.add_client("c1")
    >>> _ = client.amulticast(destination("g1", "g2"), payload=("tx", 1))
    >>> dep.run(until=5.0)
    >>> [len(app.deliveries) for app in dep.apps("g1")]
    [1, 1, 1, 1]
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Type

from repro.bcast.config import BroadcastConfig
from repro.bcast.group import BroadcastGroup
from repro.bcast.replica import Replica
from repro.core.client import MulticastClient
from repro.core.node import ByzCastApplication
from repro.core.tree import OverlayTree
from repro.crypto.keys import KeyRegistry
from repro.env import LatencyModel, Runtime
from repro.env.simbackend import SimRuntime

#: maps (group_id, replica_index) -> network site, for WAN placement
SiteAssigner = Callable[[str, int], str]


def _default_sites(group_id: str, replica_index: int) -> str:
    return "site0"


class ByzCastDeployment:
    """A runnable ByzCast system: tree, groups, network, clients."""

    #: what a protocol variant over the same machinery overrides
    #: (:class:`~repro.baseline.naive.BaselineDeployment`): the client
    #: endpoint class (or a factory taking its arguments: the apps'
    #: clients) and extra :class:`ByzCastApplication` keyword arguments
    client_class: Callable[..., MulticastClient] = MulticastClient
    app_kwargs: Mapping[str, Any] = {}

    def __init__(
        self,
        tree: OverlayTree,
        *,
        latency: Optional[LatencyModel] = None,
        seed: int = 1,
        specs: Optional[Mapping[str, Mapping[str, Any]]] = None,
        sites: Optional[SiteAssigner] = None,
        replica_classes: Optional[Dict[str, Dict[str, Type[Replica]]]] = None,
        app_overrides: Optional[Dict[str, Dict[str, Callable]]] = None,
        trace_capacity: int = 0,
        runtime: Optional[Runtime] = None,
        **engine: Any,
    ) -> None:
        """Everything above is deployment wiring; ``engine`` is the groups'
        :meth:`BroadcastConfig.for_group` arguments (``f``, ``costs``,
        ``max_batch``, ...), declared and validated there only.
        ``specs`` maps a group id to the fields that group overrides:
        ``specs={"h1": {"f": 2}}``.
        """
        self.tree = tree
        if runtime is None:
            runtime = SimRuntime(
                latency=latency,
                seed=seed,
                trace_capacity=trace_capacity,
            )
        self.runtime = runtime
        self.monitor = runtime.monitor
        self.rng = runtime.rng
        self.network = runtime.transport
        self.registry = KeyRegistry()
        self._sites = sites if sites is not None else _default_sites

        specs = specs or {}
        self.group_configs: Dict[str, BroadcastConfig] = {
            group_id: BroadcastConfig.for_group(
                group_id, **{**engine, **specs.get(group_id, {})})
            for group_id in sorted(tree.nodes)
        }

        self.groups: Dict[str, BroadcastGroup] = {}
        overrides = replica_classes or {}
        self._app_overrides = app_overrides or {}
        for group_id, config in self.group_configs.items():
            group_sites = [
                self._sites(group_id, index) for index in range(config.n)
            ]
            self.groups[group_id] = BroadcastGroup.build(
                runtime=self.runtime,
                config=config,
                registry=self.registry,
                app_factory=lambda name, gid=group_id: self._make_app(gid, name),
                sites=group_sites,
                replica_classes=overrides.get(group_id),
            )

        self.clients: List[MulticastClient] = []
        #: membership and overlay as constructed (epoch 0).  Standbys
        #: spawned after churn or a tree switch must build their protocol
        #: state from THESE and replay the ordered history (Reconfigs,
        #: MembershipUpdates, TreeUpdates) to converge — seeding them with
        #: the membership or tree at spawn time would make their replay of
        #: early parent-relayed copies diverge from what the incumbents
        #: executed (the relayer would not be a known parent).
        self.initial_group_configs: Dict[str, BroadcastConfig] = dict(
            self.group_configs)
        self.initial_tree = tree
        self._started = False

    def _make_app(self, group_id: str, replica_name: str,
                  group_configs: Optional[Mapping[str, BroadcastConfig]] = None,
                  tree: Optional[OverlayTree] = None,
                  ) -> ByzCastApplication:
        configs = group_configs if group_configs is not None else self.group_configs
        tree = tree if tree is not None else self.tree
        factory = self._app_overrides.get(group_id, {}).get(replica_name)
        if factory is not None:
            return factory(
                group_id=group_id,
                tree=tree,
                group_configs=configs,
                registry=self.registry,
            )
        return ByzCastApplication(
            group_id=group_id,
            tree=tree,
            group_configs=configs,
            registry=self.registry,
            **self.app_kwargs,
        )

    # ------------------------------------------------------------------- api

    def add_client(
        self,
        name: str,
        site: str = "site0",
        on_complete: Optional[Callable] = None,
        retransmit_timeout: Optional[float] = 4.0,
    ) -> MulticastClient:
        """Create and register a multicast client endpoint."""
        client = self.client_class(
            name=name,
            runtime=self.runtime,
            tree=self.tree,
            group_configs=self.group_configs,
            registry=self.registry,
            on_complete=on_complete,
            retransmit_timeout=retransmit_timeout,
        )
        self.network.register(client, site=site)
        self.clients.append(client)
        return client

    def start(self) -> None:
        if not self._started:
            for group in self.groups.values():
                group.start()
            self._started = True

    def run(self, until: float = 10.0, max_events: Optional[int] = None) -> None:
        """Start (if needed) and advance the runtime to ``until`` seconds."""
        self.start()
        self.runtime.run(until=until, max_events=max_events)

    def run_until_quiescent(self, step: float = 1.0, max_steps: int = 120) -> bool:
        """Start (if needed) and run in ``step``-second chunks until no
        client has an operation pending; False if ``max_steps`` chunks
        were not enough."""
        self.start()
        return self.runtime.run_until(
            lambda: all(client.pending() == 0 for client in self.clients),
            timeout=step * max_steps, poll=step)

    def update_group_membership(self, group_id: str,
                                replicas: Sequence[str], f: int) -> BroadcastConfig:
        """Adopt a confirmed reconfiguration in deployment bookkeeping.

        Refreshes the canonical ``group_configs`` entry, the group handle,
        and every client's proxy/vote arithmetic.  Replica-side relay wiring
        is NOT touched here — that propagates through ordered
        ``MembershipUpdate`` commands (see :mod:`repro.faults.elasticity`).
        """
        config = dataclass_replace(self.group_configs[group_id],
                                   replicas=tuple(replicas), f=f)
        self.group_configs[group_id] = config
        self.groups[group_id].update_config(config)
        for client in self.clients:
            client.update_group(group_id, config.replicas, config.f)
        return config

    # -------------------------------------------------------------- accessors

    def group(self, group_id: str) -> BroadcastGroup:
        return self.groups[group_id]

    def apps(self, group_id: str) -> List[ByzCastApplication]:
        """The ByzCast application instances of a group's replicas."""
        return [replica.app for replica in self.groups[group_id].replicas]

    def delivered_sequences(self, group_id: str) -> List[List]:
        """Per-replica a-delivered message lists for ``group_id``."""
        return [app.delivered_messages() for app in self.apps(group_id)]
