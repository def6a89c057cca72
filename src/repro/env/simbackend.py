"""Deterministic discrete-event backend: wraps the ``repro.sim`` kernel.

This is the default backend.  It preserves the exact construction order of
the historical deployments (monitor → clock binding → seeded RNG →
network), so a given seed produces bit-identical monitor traces before and
after the `repro.env` refactor — the golden-trace test in
``tests/env/test_golden_trace.py`` pins this.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.env.api import Clock, Executor, Runtime, Transport
from repro.env.monitor import Monitor
from repro.sim.cpu import CpuQueue
from repro.sim.events import EventLoop
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import Network
from repro.sim.rng import SeededRng


class SimRuntime(Runtime):
    """Virtual time, CPU-cost accounting, simulated network.

    The :class:`~repro.sim.events.EventLoop` *is* the clock and the
    :class:`~repro.sim.network.Network` *is* the transport — both already
    satisfy the :mod:`repro.env.api` protocols; this facade only bundles
    them with per-node :class:`~repro.sim.cpu.CpuQueue` executors.
    ``latency`` is the links' delay model (default: a constant 50 µs,
    half the paper's 0.1 ms LAN round trip).
    """

    deterministic = True

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        seed: int = 1,
        trace_capacity: int = 0,
    ) -> None:
        self.loop = EventLoop()
        self.monitor = Monitor(trace_capacity=trace_capacity)
        self.monitor.bind_clock(lambda: self.loop.now)
        self.rng = SeededRng(seed)
        self.network = Network(
            self.loop,
            latency if latency is not None else ConstantLatency(0.00005),
            self.rng,
            self.monitor,
        )

    # -- Runtime interface -------------------------------------------------

    @property
    def clock(self) -> Clock:
        return self.loop

    @property
    def transport(self) -> Transport:
        return self.network

    def create_executor(self, owner: Optional[Any] = None) -> Executor:
        return CpuQueue(self.loop, owner)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.loop.run(until=until, max_events=max_events)

    def stop(self) -> None:
        self.loop.stop()
