"""Point-to-point message-passing network.

The network owns endpoint registration (name → actor + site), computes
delivery times from a :class:`~repro.sim.latency.LatencyModel`, optionally
adds transmission delay (``size / bandwidth``), and supports message drops
and site/endpoint partitions for fault experiments.

Asynchrony model: delays are finite but unbounded in principle; partitions
and drops are explicit test instruments, matching §II-A ("adversaries can
delay correct processes ... but not indefinitely").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.env.monitor import Monitor
from repro.sim.events import EventLoop
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.env
    from repro.env.actor import Actor

_Link = Tuple[Callable[..., None], str, str, Callable[[], float]]


@dataclass
class NetworkConfig:
    """Tunable parameters of the simulated network.

    Attributes:
        latency: site-pair one-way delay model.
        bandwidth: bytes/second per link, or ``None`` for infinite (the
            paper's 64-byte messages on 1 Gbps make transmission negligible).
        drop_rate: i.i.d. probability a message is silently lost.
    """

    latency: LatencyModel = field(default_factory=lambda: ConstantLatency(0.00005))
    bandwidth: Optional[float] = None
    drop_rate: float = 0.0


class Network:
    """Delivers payloads between registered actors with simulated delays."""

    def __init__(
        self,
        loop: EventLoop,
        config: Optional[NetworkConfig] = None,
        rng: Optional[SeededRng] = None,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.loop = loop
        self._config = config if config is not None else NetworkConfig()
        self.monitor = monitor if monitor is not None else Monitor()
        self._rng = (rng if rng is not None else SeededRng(0)).stream("network")
        self._endpoints: Dict[str, Tuple[Actor, str]] = {}
        self._blocked_pairs: Set[Tuple[str, str]] = set()
        self._blocked_sites: Set[Tuple[str, str]] = set()
        #: (src, dst) -> (dst's bound receive, src site, dst site, the
        #: link's delay draw)
        self._links: Dict[Tuple[str, str], _Link] = {}

    @property
    def config(self) -> NetworkConfig:
        return self._config

    @config.setter
    def config(self, config: NetworkConfig) -> None:
        """Swap the whole configuration; every link takes its delay draw
        from the new latency model at its next send."""
        self._config = config
        self._links.clear()

    # -- registration ------------------------------------------------------

    def register(self, actor: Actor, site: str = "site0") -> None:
        """Attach ``actor`` at ``site``; its name becomes its address."""
        if actor.name in self._endpoints:
            raise NetworkError(f"endpoint {actor.name!r} already registered")
        self._endpoints[actor.name] = (actor, site)
        actor.network = self

    def site_of(self, name: str) -> str:
        return self._endpoints[name][1]

    def endpoints(self) -> Tuple[str, ...]:
        return tuple(self._endpoints)

    # -- partitions --------------------------------------------------------

    def partition(self, a: str, b: str, *, sites: bool = False) -> None:
        """Block traffic in both directions between two endpoints or sites."""
        target = self._blocked_sites if sites else self._blocked_pairs
        target.add((a, b))
        target.add((b, a))

    def heal(self, a: str, b: str, *, sites: bool = False) -> None:
        """Undo :meth:`partition` for the given pair."""
        target = self._blocked_sites if sites else self._blocked_pairs
        target.discard((a, b))
        target.discard((b, a))

    def heal_all(self) -> None:
        self._blocked_pairs.clear()
        self._blocked_sites.clear()

    # -- sending -----------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size: int = 64) -> None:
        """Schedule delivery of ``payload`` from ``src`` to ``dst``.

        Messages to unknown destinations raise; dropped/partitioned messages
        vanish silently (counted on the monitor).
        """
        link = self._links.get((src, dst))
        if link is None:
            link = self._resolve(src, dst)
        receive, src_site, dst_site, draw = link
        self.monitor.count("net.sent")
        if self._blocked_pairs and (src, dst) in self._blocked_pairs:
            self.monitor.count("net.partitioned")
            return
        if self._blocked_sites and (src_site, dst_site) in self._blocked_sites:
            self.monitor.count("net.partitioned")
            return
        config = self._config
        if config.drop_rate > 0 and self._rng.random() < config.drop_rate:
            self.monitor.count("net.dropped")
            return
        delay = draw()
        if config.bandwidth:
            delay += size / config.bandwidth
        self.loop.schedule(delay, partial(receive, src, payload))

    def _resolve(self, src: str, dst: str) -> _Link:
        """First send on a link: check both ends, remember what every later
        send needs (endpoints are never unregistered or re-sited, and the
        latency model's draw for the link is taken here, once)."""
        if dst not in self._endpoints:
            raise NetworkError(f"unknown destination endpoint {dst!r}")
        if src not in self._endpoints:
            raise NetworkError(f"unknown source endpoint {src!r}")
        actor, dst_site = self._endpoints[dst]
        src_site = self._endpoints[src][1]
        link = self._links[(src, dst)] = (
            actor.receive, src_site, dst_site,
            self._config.latency.sampler(src_site, dst_site, self._rng))
        return link
