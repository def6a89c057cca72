"""Client drivers: the closed-loop (§IV) and the open-loop arrival process.

A driver owns one protocol client (ByzCast, Baseline, or single-group) and
issues multicasts according to an arrival discipline:

* :class:`ClosedLoopDriver` — the paper's clients: exactly one message in
  flight, the next is sent as soon as the previous completed;
* :class:`OpenLoopDriver` — Poisson arrivals at a fixed rate, regardless
  of completions (offered load does not throttle under pressure).

Completions are recorded on the shared latency collector and throughput
meter, classified as local or global.  All drivers stop *cleanly* at
``stop_after``: pending arrival timers are cancelled rather than
left to fire into a drained EventLoop, so scale scenarios with thousands
of drivers quiesce without stragglers.

Instead of a destination sampler plus fixed payload, a driver may be given
an ``op_sampler`` — a callable ``rng -> (Destination, payload)`` — which
application workloads (e.g. :mod:`repro.apps.sharded_kv`) use to vary the
operation per message.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.metrics.collector import LatencyCollector, ThroughputMeter
from repro.types import Destination, MulticastMessage
from repro.workload.spec import DestinationSampler

#: ``rng -> (destination, payload)`` — one sampled operation
OpSampler = Callable[[random.Random], Tuple[Destination, Tuple]]


class _DriverBase:
    """Shared plumbing: sampling, metrics, clean stop."""

    def __init__(
        self,
        client: Any,
        sampler: Optional[DestinationSampler] = None,
        rng: Optional[random.Random] = None,
        collector: Optional[LatencyCollector] = None,
        meter: Optional[ThroughputMeter] = None,
        local_collector: Optional[LatencyCollector] = None,
        global_collector: Optional[LatencyCollector] = None,
        payload: Tuple = ("x",),
        stop_after: Optional[float] = None,
        op_sampler: Optional[OpSampler] = None,
        read_ratio: float = 0.0,
        read_mode: str = "optimistic",
        read_sampler: Optional[OpSampler] = None,
    ) -> None:
        if sampler is None and op_sampler is None:
            raise ValueError("need a destination sampler or an op_sampler")
        if not 0.0 <= read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if read_ratio > 0 and read_sampler is None:
            raise ValueError("read_ratio > 0 needs a read_sampler")
        self.client = client
        self.sampler = sampler
        self.rng = rng if rng is not None else random.Random(0)
        self.collector = collector
        self.meter = meter
        self.local_collector = local_collector
        self.global_collector = global_collector
        self.payload = payload
        self.stop_after = stop_after
        self.op_sampler = op_sampler
        #: the read-tier workload axis: with probability ``read_ratio`` an
        #: issued op is a read from ``read_sampler``, routed through
        #: ``client.aread`` in ``read_mode`` ("ordered" keeps the same op
        #: stream but pays the full multicast — the comparison baseline)
        self.read_ratio = read_ratio
        self.read_mode = read_mode
        self.read_sampler = read_sampler
        self.sent = 0
        self.completed = 0
        self.reads_sent = 0
        self._stopped = False
        self._timer = None  # the one pending arrival timer, if any

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        """Stop issuing immediately and cancel any pending timer."""
        self._stopped = True
        self._cancel_timer()

    @property
    def now(self) -> float:
        return self.client.clock.now

    def _done(self, at: Optional[float] = None) -> bool:
        if self._stopped:
            return True
        if self.stop_after is None:
            return False
        return (at if at is not None else self.now) >= self.stop_after

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            try:
                self._timer.cancel()
            finally:
                self._timer = None

    def _set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Arm the driver's single pending timer — but never past the stop.

        A timer that would only fire after ``stop_after`` is pointless
        work for the EventLoop (its callback would return immediately);
        skipping it is what lets long scale scenarios quiesce without
        straggler events.
        """
        if self._done() or self._done(at=self.now + delay):
            return
        self._timer = self.client.set_timer(
            delay, partial(self._timer_fired, callback))

    def _timer_fired(self, callback: Callable[[], None]) -> None:
        self._timer = None
        if not self._done():
            callback()

    # -- issuing and accounting ------------------------------------------------

    def _send(self) -> None:
        if (self.read_ratio > 0
                and self.rng.random() < self.read_ratio):
            self._send_read()
            return
        if self.op_sampler is not None:
            dst, payload = self.op_sampler(self.rng)
        else:
            dst, payload = self.sampler(self.rng), self.payload
        self.sent += 1
        self.client.amulticast(dst, payload=payload, callback=self._on_complete)

    def _send_read(self) -> None:
        dst, payload = self.read_sampler(self.rng)
        self.sent += 1
        self.reads_sent += 1
        if self.read_mode == "ordered":
            # The comparison baseline: same read op, full ordered multicast.
            self.client.amulticast(dst, payload=payload,
                                   callback=self._on_complete)
            return
        group = sorted(dst)[0]
        self.client.aread(group, payload=payload, mode=self.read_mode,
                          callback=self._on_read_complete)

    def _record(self, message: MulticastMessage, latency: float) -> None:
        now = self.now
        self.completed += 1
        if self.collector is not None:
            self.collector.record(now, latency)
        if self.meter is not None:
            self.meter.record(now)
        if message.is_local and self.local_collector is not None:
            self.local_collector.record(now, latency)
        if message.is_global and self.global_collector is not None:
            self.global_collector.record(now, latency)

    def _on_complete(self, message: MulticastMessage, latency: float,
                     results: Dict[str, Any]) -> None:
        self._record(message, latency)

    def _on_read_complete(self, outcome: Any) -> None:
        now = self.now
        self.completed += 1
        if self.collector is not None:
            self.collector.record(now, outcome.latency)
        if self.meter is not None:
            self.meter.record(now)
        # Reads target a single group: classified as local traffic.
        if self.local_collector is not None:
            self.local_collector.record(now, outcome.latency)
        self._post_read_complete()

    def _post_read_complete(self) -> None:
        """Hook: closed-loop drivers continue their loop after a read."""


class ClosedLoopDriver(_DriverBase):
    """Drives one client in a closed loop.

    Args:
        client: any object with ``amulticast(dst, payload, callback)`` and a
            ``loop`` attribute (all three protocol clients qualify).
        sampler: destination sampler invoked per message.
        rng: this driver's random stream.
        collector: records (completion time, latency) for every message.
        meter: throughput meter (counts completions in its window).
        local_collector / global_collector: optional per-class collectors
            for the mixed-workload CDF figures.
        payload: payload attached to every message (64-byte stand-in).
        stop_after: stop issuing new messages past this virtual time.
        op_sampler: per-message ``rng -> (destination, payload)``; overrides
            ``sampler``/``payload`` when given.
    """

    def start(self) -> None:
        """Issue the first message."""
        self._issue()

    def _issue(self) -> None:
        if self._done():
            return
        self._send()

    def _on_complete(self, message: MulticastMessage, latency: float,
                     results: Dict[str, Any]) -> None:
        self._record(message, latency)
        self._post_read_complete()

    def _post_read_complete(self) -> None:
        """The loop continues on any completion — write, read or fallback."""
        self._issue()


class OpenLoopDriver(_DriverBase):
    """Issues messages at a fixed Poisson rate, regardless of completions.

    Unlike the paper's closed-loop clients, an open-loop client does not
    throttle under load — useful for injecting an exact offered rate (e.g.
    to validate the optimizer's ``F(d)`` against a group's ``K(x)``, or to
    keep sending through a leader's outage) and for observing overload
    behaviour.  Use with care: past saturation the backlog grows without
    bound.
    """

    def __init__(
        self,
        client: Any,
        sampler: Optional[DestinationSampler] = None,
        rng: Optional[random.Random] = None,
        rate: float = 1.0,
        collector: Optional[LatencyCollector] = None,
        meter: Optional[ThroughputMeter] = None,
        local_collector: Optional[LatencyCollector] = None,
        global_collector: Optional[LatencyCollector] = None,
        payload: Tuple = ("x",),
        stop_after: Optional[float] = None,
        op_sampler: Optional[OpSampler] = None,
        read_ratio: float = 0.0,
        read_mode: str = "optimistic",
        read_sampler: Optional[OpSampler] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        super().__init__(
            client, sampler, rng, collector=collector, meter=meter,
            local_collector=local_collector,
            global_collector=global_collector,
            payload=payload, stop_after=stop_after, op_sampler=op_sampler,
            read_ratio=read_ratio, read_mode=read_mode,
            read_sampler=read_sampler,
        )
        self.rate = rate

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        self._set_timer(self.rng.expovariate(self.rate), self._fire)

    def _fire(self) -> None:
        self._send()
        self._schedule_next()
