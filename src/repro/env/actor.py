"""Actor base class: a named process with a CPU executor and a mailbox.

Actors communicate exclusively through their runtime's
:class:`~repro.env.api.Transport` (no shared memory, no global state —
matching the system model of §II-A) and are backend-agnostic: the same
actor runs unmodified under the deterministic simulator and under the
real-time asyncio runtime.  Incoming messages are funneled through
:meth:`Actor.receive`, which charges the configured per-message CPU cost
before invoking :meth:`Actor.on_message`.  Subclasses implement
``on_message`` and may use :meth:`set_timer` for timeouts (leader-change
timers, client retransmission, ...).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.env.api import Runtime, RuntimeOrClock, TimerHandle
from repro.env.monitor import Monitor


class Actor:
    """A named process bound to an execution backend.

    Args:
        name: globally unique endpoint name; also the transport address.
        runtime: the deployment's :class:`~repro.env.api.Runtime` — or, for
            backward compatibility, a bare simulator ``EventLoop``, which is
            wrapped in a clock-only sim runtime on the fly.
        monitor: shared monitor for counters/trace.
        recv_cpu_cost: CPU service time charged for every received message
            before ``on_message`` runs (models deserialization + MAC check).
    """

    def __init__(
        self,
        name: str,
        runtime: RuntimeOrClock,
        monitor: Optional[Monitor] = None,
        recv_cpu_cost: float = 0.0,
    ) -> None:
        if not isinstance(runtime, Runtime):
            # Legacy construction from a bare EventLoop: adapt it into a
            # clock-only sim runtime (the transport attaches at register()).
            from repro.env.simbackend import SimRuntime

            runtime = SimRuntime.from_clock(runtime)
        self.name = name
        self.runtime = runtime
        self.clock = runtime.clock
        self.loop = runtime.clock  # compat alias: `actor.loop.now` is pervasive
        self.monitor = monitor if monitor is not None else Monitor()
        self.cpu = runtime.create_executor(self)
        self.recv_cpu_cost = recv_cpu_cost
        self.network = runtime.transport  # re-attached by Transport.register
        self.crashed = False
        #: crashes so far: a timer fires only in the incarnation that set it
        self._crashes = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Hook called once the deployment is wired up.  Default: no-op."""

    def crash(self) -> None:
        """Stop reacting to anything (benign crash).

        Timers set before the crash never fire their callback, and work
        already sitting in the CPU queue is dropped — on every backend, and
        even if the actor recovers (``crashed = False``) before either
        would have run.
        """
        self.crashed = True
        self._crashes += 1
        self.cpu.drop_queued()

    # -- messaging ---------------------------------------------------------

    def send(self, dst: str, payload: Any, size: int = 64) -> None:
        """Send ``payload`` to the actor named ``dst`` via the transport."""
        if self.crashed:
            return
        if self.network is None:
            raise RuntimeError(f"actor {self.name} is not attached to a transport")
        self.network.send(self.name, dst, payload, size)

    def receive(self, src: str, payload: Any) -> None:
        """Called by the transport on message arrival; charges CPU then handles."""
        if self.crashed:
            return
        if self.recv_cpu_cost > 0:
            self.cpu.submit(self.recv_cpu_cost,
                            partial(self.on_message, src, payload))
        else:
            self.on_message(src, payload)

    def on_message(self, src: str, payload: Any) -> None:
        """Handle a delivered message.  Subclasses must override."""
        raise NotImplementedError

    # -- timers ------------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` seconds unless cancelled, or
        crashed since: a crash in between cancels it for good."""
        return self.clock.schedule(
            delay, partial(self._timer_fired, self._crashes, callback))

    def _timer_fired(self, crashes: int, callback: Callable[[], None]) -> None:
        if crashes == self._crashes and not self.crashed:
            callback()

    def work(self, service_time: float, callback: Callable[[], None]) -> None:
        """Charge ``service_time`` of CPU, then run ``callback`` — unless
        this actor crashed meanwhile (the executor checks).

        Per-message code hands over a bound method or a
        ``functools.partial``, never a lambda over locals.
        """
        self.cpu.submit(service_time, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
