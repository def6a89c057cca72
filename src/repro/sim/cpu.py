"""Single-server CPU queue for one simulated node.

Every replica and client node owns a :class:`CpuQueue`.  Work items (message
handling, signature checks, consensus processing) are submitted with a
service time; items are served FIFO by a single server.  This is what turns
per-message costs into the saturation throughput and queueing latency the
paper measures: a group's capacity ``K(x)`` emerges as ``1 / service_time``
of its busiest replica (the leader), and latency grows once offered load
approaches that capacity.

**Who checks ``crashed``.**  The queue does, not the job: it holds its
owning actor (``None`` for a bare queue, which runs every job) and skips a
job whose owner is crashed when it completes.  :meth:`CpuQueue.drop_queued`
— called by ``Actor.crash`` — marks every job queued at the crash as
dropped, so none of them runs even if the owner recovers before it would
have completed.  A job is just its callback: one deque entry, no wrapper.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sim.events import EventLoop


class CpuQueue:
    """FIFO single-server queue driven by the event loop.

    >>> loop = EventLoop()
    >>> cpu = CpuQueue(loop)
    >>> done = []
    >>> cpu.submit(0.5, lambda: done.append(loop.now))
    0.5
    >>> cpu.submit(0.25, lambda: done.append(loop.now))
    0.75
    >>> loop.run()
    >>> done   # second job waits for the first
    [0.5, 0.75]
    """

    def __init__(self, loop: EventLoop, owner: Optional[Any] = None) -> None:
        self._loop = loop
        self._owner = owner
        self._busy_until = 0.0
        self.jobs_done = 0
        self.busy_time = 0.0
        #: callbacks of the jobs not yet completed, in completion order
        self._jobs: Deque[Callable[[], None]] = deque()
        #: how many jobs at the head of ``_jobs`` a crash dropped
        self._dropped = 0
        # bound once: every completion event schedules this same object
        self._complete_next = self._complete

    @property
    def backlog(self) -> float:
        """Seconds of queued work ahead of a job submitted right now."""
        return max(0.0, self._busy_until - self._loop.now)

    def submit(self, service_time: float, callback: Callable[[], None]) -> float:
        """Enqueue a job; ``callback`` fires when the job completes.

        Returns the absolute completion time.
        """
        if service_time < 0:
            raise ValueError("service time must be non-negative")
        start = max(self._loop.now, self._busy_until)
        finish = start + service_time
        self._busy_until = finish
        self.jobs_done += 1
        self.busy_time += service_time
        self._jobs.append(callback)
        # Completion times never decrease and ties fire in scheduling
        # order, so each completion event pops its own job.
        self._loop.schedule_at(finish, self._complete_next)
        return finish

    def _complete(self) -> None:
        callback = self._jobs.popleft()
        if self._dropped:
            self._dropped -= 1
        elif self._owner is None or not self._owner.crashed:
            callback()

    def drop_queued(self) -> None:
        """Never run the jobs queued now (the owner crashed).  They still
        occupy the server until their completion time."""
        self._dropped = len(self._jobs)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this CPU spent serving jobs."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
