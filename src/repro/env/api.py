"""Execution-backend interfaces: Clock, Executor, Transport, Runtime.

The protocol stack (``repro.bcast``, ``repro.core``, ``repro.workload``)
is written against these interfaces only, never against a concrete
backend.  Two backends ship with the library:

* :class:`repro.env.simbackend.SimRuntime` — the deterministic
  discrete-event simulator (virtual time, CPU-cost accounting, latency
  models).  Bit-identical traces for a given seed.
* :class:`repro.env.rtbackend.RealtimeRuntime` — a real-time asyncio
  runtime (wall-clock timers, CPU costs are accounting-only no-ops,
  in-process queue or TCP transports).

The contracts below are what the backend-conformance suite
(``tests/env/test_conformance.py``) verifies on every backend:

* **Clock** — timers fire in deadline order; ties fire in scheduling
  order; a cancelled timer never fires.
* **Executor** — jobs submitted to one executor complete FIFO; a crashed
  owner's queued jobs never run, even after a recover, and an executor
  with no owner runs every job.
* **Transport** — per-link FIFO delivery; unknown endpoints raise
  :class:`~repro.errors.NetworkError`; duplicate registration raises;
  partitioned links drop silently (counted on the monitor).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Protocol, Tuple, runtime_checkable

from repro.env.monitor import Monitor


@runtime_checkable
class TimerHandle(Protocol):
    """Handle for a scheduled timer; allows cancellation."""

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""


@runtime_checkable
class Clock(Protocol):
    """A source of time plus one-shot timer scheduling.

    ``now`` is seconds since the runtime's origin — virtual seconds under
    simulation, wall-clock seconds (monotonic) under the real-time backend.
    """

    @property
    def now(self) -> float:
        """Current time in seconds."""
        ...

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` seconds; returns a cancellable handle."""
        ...

    def schedule_at(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at absolute time ``time`` (on this clock)."""
        ...


@runtime_checkable
class Executor(Protocol):
    """A node's CPU: serializes work and accounts for service time.

    Under simulation this is a single-server FIFO queue whose service
    times produce the saturation/queueing behaviour the paper measures.
    Under the real-time backend service times are recorded for statistics
    but not waited out — the host CPU is the real resource.
    """

    @property
    def backlog(self) -> float:
        """Seconds of queued work ahead of a job submitted right now."""
        ...

    def submit(self, service_time: float, callback: Callable[[], None]) -> float:
        """Enqueue a job of ``service_time`` seconds; FIFO completion order.

        The job does not run if the executor's owner is crashed when it
        completes."""
        ...

    def drop_queued(self) -> None:
        """Never run the jobs queued now (the owner just crashed)."""
        ...

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent serving jobs."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Named endpoints with point-to-point send and link shaping.

    A transport delivers and delays; it loses a message only to a
    partition.  Loss is injected above it
    (:class:`~repro.env.chaos.ChaosTransport`).
    """

    def register(self, actor: Any, site: str = "site0") -> None:
        """Attach ``actor`` at ``site``; its name becomes its address."""
        ...

    def site_of(self, name: str) -> str:
        """The site an endpoint was registered at."""
        ...

    def endpoints(self) -> Tuple[str, ...]:
        """All registered endpoint names."""
        ...

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Deliver ``payload`` from ``src`` to ``dst`` (per-link FIFO)."""
        ...

    def partition(self, a: str, b: str, *, sites: bool = False) -> None:
        """Block traffic in both directions between two endpoints or sites."""
        ...

    def heal(self, a: str, b: str, *, sites: bool = False) -> None:
        """Undo :meth:`partition` for the given pair."""
        ...

    def heal_all(self) -> None:
        """Remove every partition."""
        ...


class Runtime(ABC):
    """Facade bundling a clock, a transport, a monitor and per-node executors.

    Deployments own exactly one runtime; every actor they build draws its
    clock, CPU executor, network transport and monitor from it — there is
    no other way for a component to get its environment.
    ``deterministic`` tells callers whether two runs with the same seed
    produce identical traces (true only for the simulation backend).
    """

    #: True iff same-seed runs produce bit-identical traces.
    deterministic: bool = False
    #: the counters and trace every actor of the runtime reports to
    monitor: Monitor
    #: the seeded RNG (:class:`~repro.sim.rng.SeededRng`) whose named
    #: streams the transport and fault injection draw from
    rng: Any

    @property
    @abstractmethod
    def clock(self) -> Clock:
        """The shared clock."""

    @property
    @abstractmethod
    def transport(self) -> Transport:
        """The shared message transport."""

    @abstractmethod
    def create_executor(self, owner: Optional[Any] = None) -> Executor:
        """A fresh CPU executor for one node.

        ``owner`` is the actor it serves: its jobs are skipped while the
        owner is ``crashed``.  Without an owner every job runs.
        """

    @abstractmethod
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Advance the runtime to time ``until`` (on its own clock).

        ``max_events`` is the simulation backend's livelock valve; the
        real-time backend ignores it (wall-clock bounds the run instead).
        """

    @abstractmethod
    def stop(self) -> None:
        """Make the currently running :meth:`run` return early."""

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  poll: float = 0.05) -> bool:
        """Run until ``predicate()`` holds or ``timeout`` seconds elapsed.

        Returns True iff the predicate held.  Works on any backend by
        advancing the clock in ``poll``-sized chunks.
        """
        deadline = self.clock.now + timeout
        while not predicate():
            now = self.clock.now
            if now >= deadline:
                return False
            self.run(until=min(now + poll, deadline))
        return True

    def close(self) -> None:
        """Release backend resources (sockets, event loops).  Idempotent."""

