"""Construction and wiring of one broadcast group.

:class:`BroadcastGroup` builds the 3f+1 replica actors of a group, registers
them on the network (optionally spread over WAN sites), and exposes handles
used by deployments: membership, the fault threshold, and per-replica access
for fault injection.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.bcast.app import Application
from repro.bcast.config import BroadcastConfig
from repro.bcast.replica import Replica
from repro.crypto.keys import KeyRegistry
from repro.env import Runtime

AppFactory = Callable[[str], Application]


class BroadcastGroup:
    """A wired group of replicas implementing FIFO BFT atomic broadcast."""

    def __init__(self, config: BroadcastConfig, replicas: List[Replica]) -> None:
        self.config = config
        self.replicas = replicas
        self._by_name: Dict[str, Replica] = {r.name: r for r in replicas}

    @classmethod
    def build(
        cls,
        runtime: Runtime,
        config: BroadcastConfig,
        registry: KeyRegistry,
        app_factory: AppFactory,
        sites: Optional[Sequence[str]] = None,
        replica_classes: Optional[Dict[str, Type[Replica]]] = None,
    ) -> "BroadcastGroup":
        """Create, register on ``runtime.transport`` and return a group.

        Args:
            app_factory: called once per replica name; must return a fresh
                (deterministic) application instance for that replica.
            sites: per-replica network site names (for WAN placement);
                defaults to one shared LAN site.
            replica_classes: overrides the replica class per name — the hook
                used by :mod:`repro.faults` to plant Byzantine replicas.
        """
        if sites is not None and len(sites) != len(config.replicas):
            raise ValueError("sites must list one site per replica")
        replicas: List[Replica] = []
        overrides = replica_classes or {}
        for index, name in enumerate(config.replicas):
            replica_cls = overrides.get(name, Replica)
            replica = replica_cls(
                name=name,
                config=config,
                runtime=runtime,
                registry=registry,
                app=app_factory(name),
            )
            site = sites[index] if sites is not None else "site0"
            runtime.transport.register(replica, site=site)
            replicas.append(replica)
        return cls(config, replicas)

    # -- access ----------------------------------------------------------------

    @property
    def group_id(self) -> str:
        return self.config.group_id

    @property
    def f(self) -> int:
        return self.config.f

    def replica(self, name: str) -> Replica:
        return self._by_name[name]

    def adopt(self, replica: Replica) -> None:
        """Track a dynamically spawned member (elastic membership)."""
        if replica.name in self._by_name:
            return
        self.replicas.append(replica)
        self._by_name[replica.name] = replica

    def update_config(self, config: BroadcastConfig) -> None:
        """Adopt a reconfigured membership for bookkeeping accessors."""
        self.config = config

    def leader(self) -> Replica:
        """The leader replica of the *lowest* current regency in the group."""
        regency = min(r.regency.current for r in self.replicas)
        return self._by_name[self.config.leader_of(regency)]

    def start(self) -> None:
        for replica in self.replicas:
            replica.start()

    def apps(self) -> List[Application]:
        return [replica.app for replica in self.replicas]

    def correct_replicas(self) -> List[Replica]:
        """Replicas not crashed (tests use this to assert agreement)."""
        return [r for r in self.replicas if not r.crashed]
