"""Host-speed yardstick for the wall-clock metrics.

The boxes this benchmark runs on are shared: the time a fixed piece of
Python takes swings by a quarter from one second to the next.  A raw
wall-clock number then says more about the neighbours than about the
program.  So the benchmark interleaves a fixed pure-Python loop (heap,
dict and tuple work — no ``repro`` code, so no change to the program moves
the yardstick) with every run, and reports wall-clock metrics in
*reference-host time*: measured seconds x (this host's loop rate during the
run / ``REFERENCE_RATE``).  Raw values stay in the per-repeat records.
Virtual-time metrics are never touched.

Measured on the baseline box, identical runs: raw wall-clock spreads of
17-27% (and medians that moved 36% between two sets taken half an hour
apart) against 3-9% (and 3%) in reference-host time.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import List

#: loop iterations per second on the host the first baseline was taken on
REFERENCE_RATE = 2.6e6
#: iterations of one sample between slices of a sim run (about 15 ms)
SLICE_SPIN = 25_000
#: iterations of one sample taken inside a live asyncio loop (about 1 ms:
#: short enough not to show in the latencies it is there to calibrate)
TICK_SPIN = 1_200
#: seconds between in-loop samples (a 4% processor tax, on every commit)
TICK_PERIOD = 0.025


def spin(iterations: int) -> float:
    """Run the fixed loop; returns the seconds it took.

    Integers only: allocating containers here would trigger the cyclic
    collector, whose cost is the size of the *program's* heap.
    """
    heap: list = []
    table: dict = {}
    acc = 0
    push, pop = heapq.heappush, heapq.heappop
    start = perf_counter()
    for i in range(iterations):
        push(heap, ((i * 7919) % 1000) * 1048576 + i)
        table[i & 1023] = i + acc
        if i & 3 == 3:
            acc += pop(heap) & 1023
    return perf_counter() - start


class HostSpeed:
    """Accumulates yardstick samples taken alongside one measurement."""

    def __init__(self) -> None:
        self.iterations = 0
        self.seconds = 0.0

    def sample(self, iterations: int = SLICE_SPIN, times: int = 1) -> None:
        for _ in range(times):
            self.seconds += spin(iterations)
            self.iterations += iterations

    def factor(self) -> float:
        """This host's speed relative to the reference (> 1 = faster)."""
        return self.iterations / self.seconds / REFERENCE_RATE


class Ticker:
    """In-loop periodic sampler for wall-clock workloads.

    Every ``TICK_PERIOD`` it records how late the loop ran it (the
    ``env.rt_loop_lag`` layer metric) and takes one short yardstick sample.
    ``schedule(delay, callback)`` is the clock's (or asyncio loop's
    ``call_later``).
    """

    def __init__(self, schedule, now) -> None:
        self.speed = HostSpeed()
        self.lags: List[float] = []
        self._schedule, self._now = schedule, now
        self._due = now() + TICK_PERIOD
        self._stopped = False
        schedule(TICK_PERIOD, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.lags.append(self._now() - self._due)
        self.speed.sample(TICK_SPIN)
        self._due = self._now() + TICK_PERIOD
        self._schedule(TICK_PERIOD, self._tick)

    def stop(self) -> None:
        self._stopped = True
