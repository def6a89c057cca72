"""Real-time asyncio backend: wall-clock timers, in-process queue transport.

Where the simulation backend models CPU service times and link latencies,
the real-time backend *is* subject to them: timers are wall-clock
(``asyncio`` ``call_later``), CPU "costs" become accounting-only no-ops
(the host CPU is the real resource), and messages travel through the
runtime's own ready queue (strict FIFO) — or over real TCP sockets with
the optional :class:`~repro.env.tcp.TcpTransport`.

**Who owns FIFO.**  :class:`RealtimeClock` holds the one ready queue of a
runtime: a ``deque`` of ``(fn, args)`` that :meth:`RealtimeExecutor.submit`
(every ``Actor.work`` job, as ``(executor._run, (callback,))``) and the
zero-delay branch of
:meth:`InProcessTransport.send` (every in-process delivery) push to with
:meth:`RealtimeClock.soon`.  Entries run strictly in push order, whichever
actor or link they belong to, and an entry pushed from inside another runs
after everything already queued — the order one ``call_soon`` per message
would give, without an asyncio ``Handle`` per message: a push schedules
``call_soon(_drain)`` only when no drain is pending, so a burst of
messages costs asyncio one wake-up.  Shaped links and timers stay on
``call_later``; socket readers of a :class:`~repro.env.tcp.TcpTransport`
call ``receive`` directly.

**The slice.**  A drain hands the loop back to asyncio after
:data:`DRAIN_SLICE` seconds and re-schedules itself, so ``call_later``
timers, sockets and in-loop samplers get a turn every slice however long
the queue stays non-empty (a closed-loop workload can keep it non-empty
for a whole run).  asyncio runs what was ready before what became due, so
a timer that comes due while the queue is busy fires after the slice that
follows — between one and two slices late (plus the entry that is
running), never more; when the queue empties the drain ends at once and
nothing waits.  The slice is a constant, not an
option.  It trades ``select`` calls against timer lateness.  Timers no
longer pace batching — the leader batches naturally, with no timer on
the proposal path (``Replica._maybe_propose``) — so only timeouts,
heartbeats and retransmissions wait on the slice, and the warning that
end-to-end numbers depend on the slice through the batcher (EXPERIMENTS.md,
"One wake-up per burst (PR 18)", measured when a 2 ms batch timer still
paced every proposal) is obsolete.

**Stopping.**  :meth:`RealtimeRuntime.stop` pauses the queue: the entry
that is running finishes, nothing behind it runs in this ``run()``, and
the next ``run()`` picks the queue up where it stopped, in order.  The
``until`` deadline of ``run()`` fires between two slices, so it needs no
pause.  A callback that raises reaches the loop's exception handler like
any asyncio callback; the entries behind it are kept and run next.

**Who checks ``crashed``.**  For a job, the executor: a
:class:`RealtimeExecutor` knows its owning actor and skips the job if the
owner is crashed when its turn comes, and ``Actor.crash`` makes it drop
every job it still has queued (:meth:`RealtimeExecutor.drop_queued`).  For
a delivery, the receiving actor (``Actor.receive``); for a timer, the actor
that set it (``Actor.set_timer`` arms it with the actor's crash count).

What is and is not modeled here:

* **modeled** — message passing, per-link FIFO, partitions for fault
  experiments, optional link-latency shaping (sampled from the same
  :mod:`repro.sim.latency` models, applied as real ``call_later`` delays);
  loss is :class:`~repro.env.chaos.ChaosTransport`'s, as on the simulator;
* **not modeled** — CPU service times (jobs run back-to-back on the host);
  throughput numbers from this backend reflect the host machine, not the
  paper's calibrated cost model.

Determinism is **not** guaranteed: wall-clock timer interleavings vary run
to run.  Use the simulation backend for reproducible experiments.
"""

from __future__ import annotations

import asyncio
import inspect
from collections import deque
from time import monotonic
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.errors import SimulationError
from repro.env.api import Clock, Executor, Runtime, TimerHandle, Transport
from repro.env.links import DelayedLinkTable
from repro.env.monitor import Monitor
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.rng import SeededRng


#: seconds one drain of the ready queue runs before it yields to asyncio
#: (timers, sockets); see the module docstring
DRAIN_SLICE = 0.001


class RealtimeClock:
    """Monotonic wall-clock seconds since the runtime was created, plus the
    runtime's ready queue (:meth:`soon`; rt-internal, not part of the
    :class:`~repro.env.api.Clock` protocol)."""

    def __init__(self, aloop: asyncio.AbstractEventLoop) -> None:
        self._aloop = aloop
        self._origin = aloop.time()
        self._ready: Deque[Tuple[Callable[..., None], tuple]] = deque()
        #: a ``_drain`` handle sits in asyncio's ready queue
        self._draining = False
        #: ``RealtimeRuntime.stop()`` was called; cleared by the next run
        self._paused = False

    @property
    def now(self) -> float:
        return self._aloop.time() - self._origin

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self._aloop.call_later(delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        return self.schedule(time - self.now, callback)

    # -- the ready queue ---------------------------------------------------

    def soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after everything already queued (global FIFO)."""
        self._ready.append((fn, args))
        if not self._draining:
            self._schedule_drain()

    def pause(self) -> None:
        """Let the running entry finish and leave the rest queued."""
        self._paused = True

    def resume(self) -> None:
        """Undo :meth:`pause`; what was left over runs first, in order."""
        self._paused = False
        if self._ready and not self._draining:
            self._schedule_drain()

    def _schedule_drain(self) -> None:
        self._draining = True
        self._aloop.call_soon(self._drain)

    def _drain(self) -> None:
        ready = self._ready
        yield_at = monotonic() + DRAIN_SLICE
        try:
            while ready and not self._paused:
                fn, args = ready.popleft()
                fn(*args)
                if monotonic() >= yield_at:
                    break
        finally:
            # Also on the way out of a raising entry: what is queued
            # behind it must not wait for the next push.
            if ready and not self._paused:
                self._schedule_drain()
            else:
                self._draining = False


class RealtimeExecutor:
    """Accounting-only CPU: jobs run off the ready queue, strictly FIFO.

    Service times are recorded (``jobs_done``, ``busy_time``) so capacity
    statistics stay meaningful, but the callback is not delayed — in real
    time the host CPU is the resource being spent.  The runtime's ready
    queue (a deque, not the timer heap) guarantees FIFO completion order,
    across executors too.

    **Who checks ``crashed``.**  The executor does, not the job: it holds
    its owning actor (``None`` runs every job) and skips a job whose owner
    is crashed when the job's turn comes.  :meth:`drop_queued` — called by
    ``Actor.crash`` — drops every job of this executor still in the ready
    queue, so none of them runs even if the owner recovers first.
    """

    def __init__(self, clock: RealtimeClock, owner: Optional[Any] = None) -> None:
        self._clock = clock
        self._owner = owner
        self.jobs_done = 0
        self.busy_time = 0.0
        #: this executor's jobs still in the ready queue, and how many of
        #: the oldest of them a crash dropped
        self._queued = 0
        self._dropped = 0
        # bound once: every job's ready-queue entry carries this same object
        self._run_job = self._run

    @property
    def backlog(self) -> float:
        return 0.0

    def submit(self, service_time: float, callback: Callable[[], None]) -> float:
        if service_time < 0:
            raise ValueError("service time must be non-negative")
        self.jobs_done += 1
        self.busy_time += service_time
        self._queued += 1
        self._clock.soon(self._run_job, callback)
        return self._clock.now

    def _run(self, callback: Callable[[], None]) -> None:
        self._queued -= 1
        if self._dropped:
            self._dropped -= 1
        elif self._owner is None or not self._owner.crashed:
            callback()

    def drop_queued(self) -> None:
        """Never run the jobs queued now (the owner crashed)."""
        self._dropped = self._queued

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class InProcessTransport(DelayedLinkTable):
    """Named endpoints delivering through the runtime's ready queue.

    Semantics mirror :class:`~repro.sim.network.Network` (the same
    :class:`~repro.env.links.DelayedLinkTable`): unknown endpoints raise,
    partitioned messages vanish silently but are counted, and delivery is
    FIFO per link.  Latency shaping (``latency``, no delay by default) is
    drawn through the link's sampler, as on the simulator, and applied as
    real ``call_later`` delays; per-link delivery times are clamped
    monotonically so shaped links still deliver FIFO even when the
    sampled delays would reorder.
    """

    def __init__(
        self,
        aloop: asyncio.AbstractEventLoop,
        clock: RealtimeClock,
        latency: Optional[LatencyModel],
        rng: SeededRng,
        monitor: Monitor,
    ) -> None:
        super().__init__(
            latency if latency is not None else ConstantLatency(0.0),
            rng, monitor)
        self._aloop = aloop
        self._clock = clock
        self._link_due: Dict[Tuple[str, str], float] = {}

    # -- sending -----------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
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
        delay = draw()
        if delay <= 0:
            # The runtime's ready queue — strict global FIFO.
            self._clock.soon(receive, src, payload)
            return
        # Shaped link: clamp per-link delivery times to be strictly
        # increasing, since asyncio's timer heap does not promise stable
        # ordering for equal deadlines.
        now = self._clock.now
        due = max(now + delay, self._link_due.get((src, dst), 0.0) + 1e-9)
        self._link_due[(src, dst)] = due
        self._aloop.call_later(max(0.0, due - now), receive, src, payload)


class RealtimeRuntime(Runtime):
    """Real-time execution on a private asyncio event loop.

    ``run(until=...)`` interprets ``until`` on the runtime's own clock
    (seconds since creation), mirroring the simulator's absolute-time
    semantics; ``stop()`` may be called from any actor callback to end the
    run early (e.g. once a workload completed): no ready-queue entry after
    the running one runs in this ``run()``, the next ``run()`` continues
    with them.  Call :meth:`close` when done to release the event loop.

    The transport factory is called with the asyncio loop and whichever of
    ``clock``, ``latency``, ``rng``, ``monitor`` and ``wire`` it declares:
    the in-process queue shapes links (``clock``, ``latency``, ``rng``),
    :class:`~repro.env.tcp.TcpTransport` serializes (``wire``) and applies
    no latency.
    """

    deterministic = False

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        seed: int = 1,
        trace_capacity: int = 0,
        transport_factory: Optional[Callable[..., Transport]] = None,
        wire: str = "json",
    ) -> None:
        self._aloop = asyncio.new_event_loop()
        self._clock = RealtimeClock(self._aloop)
        self.monitor = Monitor(trace_capacity=trace_capacity)
        self.monitor.bind_clock(lambda: self._clock.now)
        self.rng = SeededRng(seed)
        self.wire = wire
        factory = transport_factory if transport_factory is not None else InProcessTransport
        offered = dict(clock=self._clock, latency=latency, rng=self.rng,
                       monitor=self.monitor, wire=wire)
        declared = inspect.signature(factory).parameters
        self.network = factory(
            self._aloop, **{name: value for name, value in offered.items()
                            if name in declared})
        self._closed = False

    @property
    def asyncio_loop(self) -> asyncio.AbstractEventLoop:
        """The underlying asyncio loop (for transports needing coroutines)."""
        return self._aloop

    # -- Runtime interface -------------------------------------------------

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def transport(self) -> Transport:
        return self.network

    def create_executor(self, owner: Optional[Any] = None) -> Executor:
        return RealtimeExecutor(self._clock, owner)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        if self._closed:
            raise RuntimeError("runtime is closed")
        deadline = None
        if until is not None:
            remaining = until - self._clock.now
            if remaining <= 0:
                return
            deadline = self._aloop.call_later(remaining, self._aloop.stop)
        self._clock.resume()
        try:
            self._aloop.run_forever()
        finally:
            if deadline is not None:
                deadline.cancel()

    def stop(self) -> None:
        self._clock.pause()
        self._aloop.stop()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            started = getattr(self.network, "shutdown", None)
            if started is not None:
                started()
            self._aloop.close()
