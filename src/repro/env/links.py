"""The link table every transport shares: endpoints, partitions, links.

:class:`~repro.sim.network.Network`,
:class:`~repro.env.rtbackend.InProcessTransport` and
:class:`~repro.env.tcp.TcpTransport` all derive from :class:`LinkTable`.
Each keeps its own ``send`` — the hot path, with the partition and drop
gate inline; ``TcpTransport`` also publishes what it registers to the
shared directories and looks up remote endpoints' sites there.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Set, Tuple

from repro.errors import NetworkError
from repro.env.monitor import Monitor

#: what a link's first send resolves: (dst's bound receive, src site, dst
#: site, the link's delay draw)
Link = Tuple[Callable[..., None], str, str, Callable[[], float]]


class LinkTable:
    """Endpoint registration, site lookup, partitions and link resolution.

    Args:
        config: the network configuration (``latency``, ``bandwidth``,
            ``drop_rate``; :class:`~repro.sim.network.NetworkConfig`).
        rng: the runtime's seeded RNG; the table draws from its
            ``"network"`` stream.
        monitor: where ``net.*`` counters go.
    """

    def __init__(self, config: Any, rng: Any, monitor: Monitor) -> None:
        self._config = config
        self.monitor = monitor
        self._rng = rng.stream("network")
        self._endpoints: Dict[str, Tuple[Any, str]] = {}
        self._blocked_pairs: Set[Tuple[str, str]] = set()
        self._blocked_sites: Set[Tuple[str, str]] = set()
        #: (src, dst) -> what every later send on the link needs
        self._links: Dict[Tuple[str, str], Link] = {}

    @property
    def config(self) -> Any:
        return self._config

    @config.setter
    def config(self, config: Any) -> None:
        """Swap the whole configuration; every link takes its delay draw
        from the new latency model at its next send."""
        self._config = config
        self._links.clear()

    # -- registration ------------------------------------------------------

    def register(self, actor: Any, site: str = "site0") -> None:
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
        """Remove every partition."""
        self._blocked_pairs.clear()
        self._blocked_sites.clear()

    # -- links -------------------------------------------------------------

    def _resolve(self, src: str, dst: str) -> Link:
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
