"""Point-to-point message-passing network.

Endpoint registration (name → actor + site) and site/endpoint partitions
are the :class:`~repro.env.links.LinkTable` every transport shares; the
network computes delivery times from a
:class:`~repro.sim.latency.LatencyModel` and loses nothing on its own.

Asynchrony model: delays are finite but unbounded in principle; partitions
are explicit test instruments, and loss, duplication and reordering belong
to the adversary (:class:`~repro.env.chaos.ChaosTransport`), matching §II-A
("adversaries can delay correct processes ... but not indefinitely").
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.env.links import DelayedLinkTable
from repro.env.monitor import Monitor
from repro.sim.events import EventLoop
from repro.sim.latency import LatencyModel
from repro.sim.rng import SeededRng


class Network(DelayedLinkTable):
    """Delivers payloads between registered actors with simulated delays."""

    def __init__(self, loop: EventLoop, latency: LatencyModel,
                 rng: SeededRng, monitor: Monitor) -> None:
        super().__init__(latency, rng, monitor)
        self.loop = loop

    # -- sending -----------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Schedule delivery of ``payload`` from ``src`` to ``dst``.

        Messages to unknown destinations raise; partitioned messages vanish
        silently (counted on the monitor).
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
        self.loop.schedule(draw(), partial(receive, src, payload))
