"""State transfer: how a lagging replica learns the decided log from peers.

A collaborator of :class:`~repro.bcast.replica.Replica` that, like
:class:`~repro.bcast.checkpoint.Checkpointer`, knows the decision log and
the checkpointer and nothing of consensus, the network or the application
(so it is tested on its own).  It answers peers' ``StateRequest`` from the
log, runs the replica's own request rounds (one at a time, with a capped,
jittered backoff after a fruitless one) and applies the voucher rule: the
highest checkpoint ``f + 1`` responders vouch for with verified payloads,
then, cid by cid, a batch ``f + 1`` responders agree on — or one voucher
matching a write certificate the replica assembled itself.  The replica
installs the checkpoint, executes each batch through its one execution
path and installs the regency (``docs/CHECKPOINTS.md``).
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Optional, Tuple

from repro.bcast.checkpoint import Checkpointer
from repro.bcast.config import capped_backoff
from repro.bcast.log import DecisionLog
from repro.bcast.messages import (
    CheckpointData, Request, StateRequest, StateResponse)
from repro.bcast.tally import Tally
from repro.crypto.digest import digest
from repro.env import Monitor

#: how long a state round may take before it is retried; also the base of
#: the backoff that follows a fruitless round
STATE_RETRY_TIMEOUT = 1.0


class StateTransfer:
    """State transfer of ``owner``, whose current f is ``f()`` and whose own
    write certificate for ``cid``, if any, has digest ``certified(cid)``."""

    def __init__(self, owner: str, log: DecisionLog,
                 checkpoints: Checkpointer, monitor: Monitor,
                 f: Callable[[], int],
                 certified: Callable[[int], Optional[bytes]]) -> None:
        self.owner = owner
        self.log = log
        self.checkpoints = checkpoints
        self.monitor = monitor
        self.f = f
        self.certified = certified
        #: a request round is open and collecting answers
        self.active = False
        self._responses: Dict[str, StateResponse] = {}
        #: fruitless rounds since the last answered one
        self._attempts = 0
        #: no round opens before this time (the backoff)
        self.backoff_until = 0.0

    # -- answering ---------------------------------------------------------

    def answer(self, request: StateRequest, regency: int) -> StateResponse:
        """The log's answer to ``request``; ``regency`` is the owner's."""
        horizon = self.log.horizon
        # Behind the truncation horizon the answer is checkpoint + retained
        # suffix — never a partial suffix with a silent gap the requester
        # would misread as "nothing in between".
        checkpoint = self.log.checkpoint if request.from_cid < horizon else None
        return StateResponse(
            group=request.group, sender=self.owner, from_cid=request.from_cid,
            next_cid=self.log.next_execute, regency=regency,
            batches=self.log.executed_suffix(max(request.from_cid, horizon)),
            checkpoint=checkpoint, horizon=horizon)

    # -- the requester's round ---------------------------------------------

    def open(self, now: float) -> bool:
        """Start a round unless one is open or the backoff holds."""
        if self.active or now < self.backoff_until:
            return False
        self.active = True
        self._responses.clear()
        self.monitor.record(self.owner, "state.request", from_cid=self.log.next_execute)
        return True

    def expire(self, now: float) -> None:
        """The round's timer: a round still open counts as a failure.

        The backoff doubles per failure up to the common cap; its jitter is
        deterministic per (replica, attempt) via crc32 — NOT the
        process-salted builtin ``hash`` — so simulated runs stay
        reproducible while a cohort of joiners still de-synchronizes
        instead of re-requesting in lockstep.
        """
        if not self.active:
            return
        self.active = False
        self._attempts += 1
        jitter = (zlib.crc32(f"{self.owner}:{self._attempts}".encode())
                  % 1024) / 4096.0  # [0, 0.25)
        self.backoff_until = now + capped_backoff(
            STATE_RETRY_TIMEOUT, self._attempts - 1) * (1.0 + jitter)
        self.monitor.record(self.owner, "state.backoff", attempts=self._attempts)

    def reachable(self) -> None:
        """Live traffic proves the group answers: the backoff is stale."""
        self.backoff_until = 0.0

    def forgive(self) -> None:
        """Forget past failures (a quorum answered, or a fresh start)."""
        self._attempts = 0
        self.backoff_until = 0.0

    def abandon(self) -> None:
        """Drop the round and whatever it collected."""
        self.active = False
        self._responses.clear()

    def offer(self, src: str, response: StateResponse, peers: int,
              adopt: Callable[[], bool]) -> Optional[bool]:
        """File ``src``'s answer and call ``adopt`` once it may succeed.

        ``peers`` is how many others in the owner's view could answer.
        Returns None when the owner has nothing to resume, else whether
        ``adopt`` installed anything.
        """
        if not self.active:
            # A straggler of a closed round still counts if it proves we
            # are behind: the round's first f+1 answers may all come from
            # peers stuck at our cursor — a cid decided at one correct
            # replica whose ACCEPTs the others lost, so they can neither
            # decide it again nor learn it from each other.  What the
            # straggler vouches for needs f+1 matching answers (or our own
            # write certificate) all the same.
            if response.next_cid <= self.log.next_execute:
                return None
            self._responses[src] = response
            return True if adopt() else None
        self._responses[src] = response
        if len(self._responses) < self.f() + 1:
            return None
        adopted = adopt()
        if not adopted and len(self._responses) < peers and any(
                r.next_cid > self.log.next_execute
                for r in self._responses.values()):
            # f+1 peers answered but no position collected f+1 matching
            # vouchers, and at least one responder proves we are behind.
            # The first f+1 answers may simply be the wrong mix — e.g. a
            # departed member whose log stops before the boundary cid
            # answering ahead of the members that decided it — so keep the
            # round open and re-attempt adoption as stragglers arrive.  The
            # round timer still bounds it, so a leader is never blocked
            # from proposing for longer than a wholly unanswered round.
            return None
        # The round is over: either something installed, every possible
        # peer answered, or nobody vouches we are behind.  If we were
        # genuinely behind but the answers disagreed (drops), the next
        # timeout retries.  Either way an f+1 quorum is *reachable*, so the
        # unreachability backoff resets — an inactive joiner then keeps its
        # designed poll cadence rather than the hot loop the backoff
        # guards against.
        self.active = False
        self.forgive()
        return adopted

    # -- the voucher rule ----------------------------------------------------

    def adopt(self, install: Callable[[CheckpointData], None],
              execute: Callable[[int, Tuple[Request, ...]], None]
              ) -> Optional[int]:
        """Install what the collected answers vouch for.

        The elected checkpoint goes to ``install``; then, from the cursor
        on, each vouched-for batch goes to ``execute``, which runs it before
        the next is chosen (f is read again per cid: a batch may carry a
        Reconfig that changes it).  Returns the highest regency among the
        answers if anything was installed, else None.
        """
        # Read before anything executes: a caught-up Reconfig that removes
        # the owner abandons the round.
        regency = max(response.regency for response in self._responses.values())
        start = self.log.next_execute
        checkpoint = self.checkpoints.elect(self._responses, self.f())
        if checkpoint is not None:
            install(checkpoint)
        # An executed Reconfig may abandon the round: count this round's.
        responders = frozenset(self._responses)
        per_cid: Dict[int, Dict[bytes, Tuple[Request, ...]]] = {}
        vouchers = Tally()   # by (cid, digest)
        for src, response in self._responses.items():
            for cid, batch in response.batches:
                d = digest(batch)
                per_cid.setdefault(cid, {})[d] = batch
                vouchers.add((cid, d), src)
        while True:
            cid = self.log.next_execute
            options = per_cid.get(cid)
            if not options:
                break
            chosen = next((batch for d, batch in options.items()
                           if vouchers.carries((cid, d), responders,
                                               self.f() + 1)), None)
            if chosen is None:
                # A single voucher suffices when the batch matches a write
                # certificate the owner assembled itself: 2f+1 replicas
                # write-certified this digest, so no other value can ever
                # decide at this cid (quorum intersection, preserved across
                # regency changes by the sync rule).  This is the only
                # recovery path when exactly one correct replica decided a
                # Reconfig at the view boundary: its post-reconfig STOP
                # threshold is higher than the old view can muster, and no
                # second voucher for the boundary cid exists anywhere.
                chosen = options.get(self.certified(cid))
                if chosen is None:
                    break
                self.monitor.record(self.owner, "state.cert_adopt", cid=cid)
            for installed_cid, batch in self.log.install_suffix(((cid, chosen),)):
                execute(installed_cid, batch)
        return regency if self.log.next_execute > start else None
