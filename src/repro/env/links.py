"""The link table every transport shares: endpoints, partitions, links.

:class:`~repro.sim.network.Network`,
:class:`~repro.env.rtbackend.InProcessTransport` and
:class:`~repro.env.tcp.TcpTransport` all derive from :class:`LinkTable`.
Each keeps its own ``send`` — the hot path, with the partition gate
inline; ``TcpTransport`` also publishes what it registers to the shared
directories and looks up remote endpoints' sites there.

Links only deliver and delay: the two shaping transports
(:class:`DelayedLinkTable`) draw each link's delay from a
:class:`~repro.sim.latency.LatencyModel`, and no transport loses a
message on its own.  Loss, duplication and corruption are the
adversary's, injected above any transport by
:class:`~repro.env.chaos.ChaosTransport`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Set, Tuple

from repro.errors import NetworkError
from repro.env.monitor import Monitor

#: what a link's first send resolves: (dst's bound receive, src site, dst
#: site, the link's delay draw)
Link = Tuple[Callable[..., None], str, str, Callable[[], float]]


class LinkTable:
    """Endpoint registration, site lookup and partitions.

    Args:
        monitor: where ``net.*`` counters go.
    """

    def __init__(self, monitor: Monitor) -> None:
        self.monitor = monitor
        self._endpoints: Dict[str, Tuple[Any, str]] = {}
        self._blocked_pairs: Set[Tuple[str, str]] = set()
        self._blocked_sites: Set[Tuple[str, str]] = set()

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


class DelayedLinkTable(LinkTable):
    """A link table whose links delay by a latency model's draws.

    Args:
        latency: the site-pair one-way delay model
            (:class:`~repro.sim.latency.LatencyModel`).
        rng: the runtime's seeded RNG; each link's delay draw takes its
            ``"network"`` stream.
        monitor: where ``net.*`` counters go.
    """

    def __init__(self, latency: Any, rng: Any, monitor: Monitor) -> None:
        super().__init__(monitor)
        self._latency = latency
        self._rng = rng.stream("network")
        #: (src, dst) -> what every later send on the link needs
        self._links: Dict[Tuple[str, str], Link] = {}

    @property
    def latency(self) -> Any:
        return self._latency

    @latency.setter
    def latency(self, latency: Any) -> None:
        """Swap the latency model; every link takes its delay draw from the
        new model at its next send."""
        self._latency = latency
        self._links.clear()

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
            self._latency.sampler(src_site, dst_site, self._rng))
        return link
