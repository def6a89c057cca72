"""One replica's checkpoints: take, digest, verify, and the adoption vote.

A collaborator of :class:`~repro.bcast.replica.Replica` that knows the
application, the decision log and nothing of consensus or the network (so
it is tested on its own).  The replica says *when* — a boundary cid with
the FIFO tracker and view captured at the cursor, or a round of peers'
state responses — and installs what :meth:`Checkpointer.elect` returns;
everything a checkpoint's ``state_digest`` means is here.  The rule is in
``docs/CHECKPOINTS.md``: a checkpoint counts only when its payload
re-hashes to the digest it claims, and is adopted only on ``f + 1`` such
vouchers (docs/PROTOCOL.md, "Who counts").
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.bcast.app import Application
from repro.bcast.log import DecisionLog
from repro.bcast.messages import CheckpointData, StateResponse
from repro.bcast.reconfig import View
from repro.bcast.tally import Tally
from repro.crypto.digest import digest
from repro.env import Monitor
from repro.errors import CryptoError


class Checkpointer:
    """Checkpoints of the replica called ``owner``."""

    def __init__(self, owner: str, app: Application, log: DecisionLog,
                 monitor: Monitor) -> None:
        self.owner = owner
        self.app = app
        self.log = log
        self.monitor = monitor
        #: apps without snapshot()/restore() cannot checkpoint — the log
        #: then retains the full prefix; an app may also veto via a false
        #: ``checkpointable`` attribute (e.g. a ByzCast node whose
        #: delivery callback feeds un-snapshotted state)
        self.enabled = (
            callable(getattr(app, "snapshot", None))
            and callable(getattr(app, "restore", None))
            and bool(getattr(app, "checkpointable", True))
        )

    def due(self, cid: int) -> bool:
        """Whether executing ``cid`` ends in a checkpoint here."""
        return self.enabled and self.log.checkpoint_due(cid)

    def take(self, cid: int, tracker_state: Dict[str, int],
             view: View) -> CheckpointData:
        """Snapshot the application at ``cid`` and truncate the log."""
        tracker = tuple(sorted(tracker_state.items()))
        state = self.app.snapshot()
        checkpoint = CheckpointData(
            cid=cid,
            state_digest=self.digest_of(cid, state, tracker,
                                        view.replicas, view.f),
            state=state,
            tracker=tracker,
            view_replicas=view.replicas,
            view_f=view.f,
        )
        dropped = self.log.note_checkpoint(checkpoint)
        self.monitor.record(self.owner, "checkpoint.taken", cid=cid,
                            dropped=dropped)
        return checkpoint

    def digest_of(self, cid: int, state: Any, tracker: Tuple,
                  view_replicas: Tuple[str, ...], view_f: int) -> bytes:
        """Digest over everything a checkpoint installs.

        The application says what stands for ``state``
        (:meth:`Application.state_summary`): all of it by default, or a
        summary it can keep up to date incrementally and a receiver can
        recompute from the state alone.
        """
        return digest(("ckpt", cid, self.app.state_summary(state), tracker,
                       view_replicas, view_f))

    def verified(self, checkpoint: CheckpointData) -> bool:
        """Whether the carried payload re-hashes to the digest it claims."""
        try:
            actual = self.digest_of(
                checkpoint.cid, checkpoint.state, checkpoint.tracker,
                checkpoint.view_replicas, checkpoint.view_f)
        except (TypeError, ValueError, LookupError, CryptoError):
            # a payload the application cannot even summarise (a peer may
            # ship any shape) or that has no canonical form is a forgery
            return False
        return actual == checkpoint.state_digest

    def elect(self, responses: Mapping[str, StateResponse],
              f: int) -> Optional[CheckpointData]:
        """The highest checkpoint at or past the cursor that ``f + 1``
        responders vouch for, each with a verified payload."""
        if not self.enabled:
            return None
        votes = Tally()
        for src, response in responses.items():
            ckpt = response.checkpoint
            if ckpt is None or ckpt.cid < self.log.next_execute:
                continue
            # The claimed digest must match the carried payload — a
            # Byzantine peer echoing the correct digest over forged state
            # must not poison the vote for that digest.
            if not self.verified(ckpt):
                self.monitor.record(self.owner, "checkpoint.bad_digest",
                                    src=src)
                continue
            votes.add((ckpt.cid, ckpt.state_digest), src, ckpt)
        chosen: Optional[CheckpointData] = None
        for key in votes.carried(responses, f + 1):
            candidate = votes.values(key, responses)[-1]
            if chosen is None or candidate.cid > chosen.cid:
                chosen = candidate
        return chosen
