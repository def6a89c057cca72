"""Point-to-point message-passing network.

Endpoint registration (name → actor + site) and site/endpoint partitions
are the :class:`~repro.env.links.LinkTable` every transport shares; the
network computes delivery times from a
:class:`~repro.sim.latency.LatencyModel`, optionally adds transmission
delay (``size / bandwidth``), and drops messages at ``drop_rate`` for
fault experiments.

Asynchrony model: delays are finite but unbounded in principle; partitions
and drops are explicit test instruments, matching §II-A ("adversaries can
delay correct processes ... but not indefinitely").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.env.links import LinkTable
from repro.env.monitor import Monitor
from repro.sim.events import EventLoop
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.rng import SeededRng


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


class Network(LinkTable):
    """Delivers payloads between registered actors with simulated delays."""

    def __init__(self, loop: EventLoop, config: NetworkConfig,
                 rng: SeededRng, monitor: Monitor) -> None:
        super().__init__(config, rng, monitor)
        self.loop = loop

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
