"""Decision log: decided batches, the execution cursor, and state snapshots.

Consensus instances may decide out of order relative to execution (e.g.
while a replica is catching up), so the log buffers decided batches by
consensus id and releases them strictly in order.

The executed prefix is retained to serve state transfer to lagging peers —
but only up to the last checkpoint: every ``checkpoint_interval`` executed
consensus ids the replica snapshots its application state (see
:meth:`~repro.bcast.checkpoint.Checkpointer.take`), records the
checkpoint here, and the log truncates everything at or below the
checkpoint cid.  Memory is therefore bounded by the interval instead of
growing with the run (``docs/CHECKPOINTS.md``); peers behind the
truncation horizon are served the checkpoint plus the retained suffix.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.bcast.fifo import SenderTracker
from repro.bcast.messages import CheckpointData, Request

#: bounded journals of decided / executed cids kept for invariant checks
JOURNAL_CAP = 4096


class DecisionLog:
    """Ordered record of decided and executed batches for one replica.

    Args:
        checkpoint_interval: executed cids between checkpoints; ``0``
            disables checkpointing (the full executed prefix is retained,
            the pre-checkpoint behaviour).
    """

    def __init__(self, checkpoint_interval: int = 0) -> None:
        self._decided: Dict[int, Tuple[Request, ...]] = {}
        self._executed: List[Tuple[int, Tuple[Request, ...]]] = []
        self.next_execute = 0  # lowest consensus id not yet executed
        self.tracker = SenderTracker()
        self.checkpoint_interval = checkpoint_interval
        #: the last checkpoint taken locally or installed from peers
        self.checkpoint: Optional[CheckpointData] = None
        #: high-water mark of retained executed batches (memory-bound proof)
        self.max_retained = 0
        #: total batches dropped by checkpoint truncation over the log's life
        self.truncated_total = 0
        #: cids in the order their decisions were first recorded — with a
        #: consensus pipeline this may be out of cid order
        self.decided_order: Deque[int] = deque(maxlen=JOURNAL_CAP)
        #: cids in execution order — must be gap-free ascending (the chaos
        #: soak's sixth invariant); jumps are legal only across an installed
        #: checkpoint, every other discontinuity bumps ``order_violations``
        self.executed_order: Deque[int] = deque(maxlen=JOURNAL_CAP)
        self.order_violations = 0
        self._last_executed: Optional[int] = None

    # -- decisions ---------------------------------------------------------

    def record_decision(self, cid: int, batch: Tuple[Request, ...]) -> None:
        """Buffer the decided ``batch`` for consensus ``cid`` (idempotent)."""
        if cid >= self.next_execute and cid not in self._decided:
            self._decided[cid] = batch
            self.decided_order.append(cid)

    def has_decision(self, cid: int) -> bool:
        return cid in self._decided or cid < self.next_execute

    def decided_batch(self, cid: int) -> Optional[Tuple[Request, ...]]:
        """The buffered (not yet executed) decided batch for ``cid``."""
        return self._decided.get(cid)

    def buffered_decisions(self):
        """(cid, batch) view of decided-but-not-yet-executed instances."""
        return self._decided.items()

    def ordered_since(self, cid: int):
        """The batches ordered after ``cid``, newest first (the executed
        prefix is retained above the last checkpoint, which is at or below
        the last batch the replica finished executing)."""
        for ordered, batch in reversed(self._executed):
            if ordered <= cid:
                return
            yield batch

    def ready_batches(self):
        """Yield (cid, batch) pairs executable now, advancing the cursor.

        Batches are yielded strictly in consensus order; iteration stops at
        the first gap.  The caller must execute each yielded batch.
        """
        while self.next_execute in self._decided:
            cid = self.next_execute
            batch = self._decided.pop(cid)
            self._execute(cid, batch)
            yield cid, batch

    def _execute(self, cid: int, batch: Tuple[Request, ...]) -> None:
        """Retain ``batch`` as executed at the cursor and advance it; journal
        the step and enforce gap-free ascending order."""
        self._executed.append((cid, batch))
        if len(self._executed) > self.max_retained:
            self.max_retained = len(self._executed)
        self.next_execute += 1
        if self._last_executed is not None and cid != self._last_executed + 1:
            self.order_violations += 1
        self._last_executed = cid
        self.executed_order.append(cid)

    # -- FIFO accounting (called by the replica during execution) ----------

    def mark_ordered(self, request: Request) -> bool:
        """Advance the sender tracker; False if ``request`` is a duplicate."""
        if self.tracker.is_duplicate(request):
            return False
        self.tracker.advance(request.sender, request.seq)
        return True

    # -- checkpoints -------------------------------------------------------

    def checkpoint_due(self, cid: int) -> bool:
        """True when executing ``cid`` completes a checkpoint interval."""
        return (self.checkpoint_interval > 0
                and (cid + 1) % self.checkpoint_interval == 0)

    @property
    def horizon(self) -> int:
        """Lowest cid whose executed batch is still retained.

        Requests for anything older must be answered with the checkpoint,
        never with a partial suffix.
        """
        return self.checkpoint.cid + 1 if self.checkpoint is not None else 0

    def note_checkpoint(self, checkpoint: CheckpointData) -> int:
        """Record a locally taken checkpoint and truncate below it.

        Returns the number of executed batches dropped.  Stale checkpoints
        (at or below the current one) are ignored.
        """
        if self.checkpoint is not None and checkpoint.cid <= self.checkpoint.cid:
            return 0
        self.checkpoint = checkpoint
        return self._truncate(checkpoint.cid)

    def install_checkpoint(self, checkpoint: CheckpointData) -> None:
        """Adopt a peer-verified checkpoint ahead of the local cursor.

        The caller is responsible for digest verification and for restoring
        the application state; this installs the log-side effects: the
        cursor jumps past the checkpoint, the FIFO tracker is replaced, and
        everything the checkpoint covers is dropped.
        """
        if checkpoint.cid < self.next_execute:
            raise ValueError(
                f"checkpoint cid {checkpoint.cid} is behind the cursor "
                f"{self.next_execute}"
            )
        self.checkpoint = checkpoint
        self.next_execute = checkpoint.cid + 1
        # The truncated prefix is never executed locally — the cursor may
        # legally jump here, so re-seat the order journal at the boundary.
        self._last_executed = checkpoint.cid
        self.tracker.restore(dict(checkpoint.tracker))
        self._truncate(checkpoint.cid)
        for cid in [c for c in self._decided if c <= checkpoint.cid]:
            del self._decided[cid]

    def _truncate(self, below_cid: int) -> int:
        before = len(self._executed)
        self._executed = [(cid, batch) for cid, batch in self._executed
                          if cid > below_cid]
        dropped = before - len(self._executed)
        self.truncated_total += dropped
        return dropped

    # -- state transfer ----------------------------------------------------

    def executed_suffix(self, from_cid: int) -> Tuple[Tuple[int, Tuple[Request, ...]], ...]:
        """Retained executed (cid, batch) pairs with cid >= from_cid."""
        return tuple((cid, batch) for cid, batch in self._executed if cid >= from_cid)

    def install_suffix(
        self, batches: Tuple[Tuple[int, Tuple[Request, ...]], ...]
    ) -> List[Tuple[int, Tuple[Request, ...]]]:
        """Adopt a verified executed-log suffix from peers.

        Returns the list of (cid, batch) pairs newly installed (in order) so
        the replica can run them through the application.  Batches at or
        beyond the local cursor are installed; earlier ones are ignored.
        Entries are ordered by cid only — a Byzantine peer may send
        duplicate cids with unorderable payloads, and falling back to
        comparing ``Request`` tuples would crash with a ``TypeError`` —
        and for a duplicated cid the first entry wins (later copies are at
        best redundant and at worst forged; the caller verified f+1 support
        for what it passes in).
        """
        installed: List[Tuple[int, Tuple[Request, ...]]] = []
        last_cid: Optional[int] = None
        for cid, batch in sorted(batches, key=lambda pair: pair[0]):
            if cid == last_cid:
                continue  # duplicate cid from a Byzantine peer
            last_cid = cid
            if cid < self.next_execute:
                continue
            if cid != self.next_execute:
                break  # refuse to install with gaps
            self._decided.pop(cid, None)
            self._execute(cid, batch)
            installed.append((cid, batch))
        return installed

    @property
    def executed_count(self) -> int:
        """Number of executed batches currently retained (post-truncation)."""
        return len(self._executed)

    def highest_decided(self) -> Optional[int]:
        """Highest buffered-but-unexecuted decision id, if any."""
        return max(self._decided) if self._decided else None
