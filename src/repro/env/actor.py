"""Actor base class: a named process with a CPU executor and a mailbox.

Actors communicate exclusively through their runtime's
:class:`~repro.env.api.Transport` (no shared memory, no global state —
matching the system model of §II-A) and are backend-agnostic: the same
actor runs unmodified under the deterministic simulator and under the
real-time asyncio runtime.  Incoming messages arrive at
:meth:`Actor.receive`, which hands them to :meth:`Actor.on_message`;
a subclass charges receive cost there with :meth:`work`.  Subclasses
implement ``on_message`` and may use :meth:`set_timer` for timeouts
(leader-change timers, client retransmission, ...).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.env.api import Runtime, TimerHandle


class Actor:
    """A named process bound to an execution backend.

    Args:
        name: globally unique endpoint name; also the transport address.
        runtime: the deployment's :class:`~repro.env.api.Runtime`; the actor
            takes its clock, CPU executor, transport and monitor from it.
    """

    def __init__(self, name: str, runtime: Runtime) -> None:
        self.name = name
        self.runtime = runtime
        self.clock = runtime.clock
        self.monitor = runtime.monitor
        self.cpu = runtime.create_executor(self)
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

    def send(self, dst: str, payload: Any) -> None:
        """Send ``payload`` to the actor named ``dst`` via the transport."""
        if self.crashed:
            return
        self.network.send(self.name, dst, payload)

    def receive(self, src: str, payload: Any) -> None:
        """Called by the transport on message arrival."""
        if not self.crashed:
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
