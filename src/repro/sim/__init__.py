"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: a heap-ordered event loop
(:class:`~repro.sim.events.EventLoop`), a message-passing network with
pluggable latency models (:class:`~repro.sim.network.Network`), and a
single-server CPU queue per node (:class:`~repro.sim.cpu.CpuQueue`) that turns
per-message processing costs into realistic saturation and queueing
behaviour.  The actor base class and the monitor are backend-agnostic and
live in :mod:`repro.env`.

Everything is deterministic given a seed: the event heap breaks ties by
insertion order and all randomness flows through :class:`~repro.sim.rng.SeededRng`.
"""

from repro.sim.events import Event, EventLoop
from repro.sim.rng import SeededRng
from repro.sim.cpu import CpuQueue
from repro.sim.network import Network
from repro.sim.latency import (
    ConstantLatency,
    JitterLatency,
    LatencyModel,
    MatrixLatency,
)

__all__ = [
    "Event",
    "EventLoop",
    "SeededRng",
    "CpuQueue",
    "Network",
    "LatencyModel",
    "ConstantLatency",
    "JitterLatency",
    "MatrixLatency",
]
