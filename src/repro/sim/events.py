"""Heap-ordered deterministic event loop.

Time is a float in **seconds**.  Events scheduled for the same instant fire
in insertion order, which makes every simulation run fully reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: cancelled-event count past which the heap is compacted (and only when
#: cancelled events are at least half the heap)
_COMPACT_MIN = 64


class Event:
    """A scheduled callback.  Returned by :meth:`EventLoop.schedule`.

    Holding on to the instance allows cancellation via :meth:`cancel`;
    cancelled events are skipped (and dropped) when their time comes.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_loop")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self._loop: Optional["EventLoop"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None  # break reference cycles early
        if self._loop is not None:
            self._loop._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class EventLoop:
    """A discrete-event scheduler with a virtual clock.

    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule(1.0, lambda: fired.append(loop.now))
    >>> loop.run()
    >>> fired
    [1.0]
    """

    def __init__(self) -> None:
        #: ``(time, seq, event)`` entries: ``seq`` is unique, so tuples
        #: compare in C on the first two items and never reach the event
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._stopped = False
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (not cancelled) events still scheduled."""
        return len(self._heap) - self._cancelled

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        event = Event(self._now + delay, next(self._seq), callback)
        event._loop = self
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        return self.schedule(time - self._now, callback)

    def stop(self) -> None:
        """Make the currently running :meth:`run` return after this event."""
        self._stopped = True

    def _note_cancelled(self) -> None:
        """Lazy compaction: drop cancelled events once they dominate the heap.

        Rebuilding preserves determinism — event order is the total order
        (time, seq), which heapify re-establishes exactly.
        """
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN and self._cancelled * 2 >= len(self._heap):
            self._heap = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Args:
            until: stop once virtual time would exceed this value; the clock
                is advanced to ``until`` and remaining events stay queued.
            max_events: safety valve — raise :class:`SimulationError` once a
                live event beyond the budget of ``max_events`` fired
                callbacks is due (catches livelock in protocols).  Exactly
                ``max_events`` callbacks run before the raise.
        """
        self._stopped = False
        fired = 0
        while self._heap and not self._stopped:
            # Peek: budget/pause checks must not pop-then-re-push (that
            # churns the heap on every stop); the event is only removed
            # once it is certain to fire.
            event = self._heap[0][2]
            if event.cancelled:
                heapq.heappop(self._heap)
                self._cancelled -= 1
                continue
            if until is not None and event.time > until:
                self._now = until
                return
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"event budget exhausted ({max_events} events) — livelock?"
                )
            heapq.heappop(self._heap)
            self._now = event.time
            event._loop = None  # fired: a late cancel() must not count
            event.callback()
            fired += 1
        if until is not None and self._now < until:
            self._now = until
