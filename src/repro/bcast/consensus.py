"""One consensus instance of the Byzantine Paxos used by Mod-SMaRt.

This module is a *pure* state machine: it receives validated protocol
messages from the replica and reports what to do next through small result
objects.  Keeping it free of I/O makes the quorum logic directly unit- and
property-testable.

Phases (paper §IV): the leader PROPOSEs a batch; the followers WRITE the
batch digest to all, and the leader's PROPOSE is its WRITE (PBFT's
pre-prepare); a replica ACCEPTs once the WRITEs for one digest carry; the
batch is decided once the ACCEPTs for one digest carry (both at ``2f + 1``
members, docs/PROTOCOL.md "Who counts").  Any two quorums intersect in at
least one correct replica — a Byzantine leader that equivocates can never
get two different digests write-certified for the same (cid, regency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from repro.bcast.messages import Request
from repro.bcast.tally import Tally


@dataclass
class WriteCertificate:
    """Evidence that a value was write-certified in some regency."""

    regency: int
    digest: bytes
    batch: Tuple[Request, ...]


@dataclass
class ConsensusInstance:
    """State of consensus id ``cid`` at one replica.

    The instance survives regency changes: votes are per-regency, while
    the strongest write certificate seen is kept across regencies so the new
    leader's re-proposal can be matched against it.  Votes count among
    ``members``, the view the instance runs in, at its ``quorum``.
    """

    cid: int
    quorum: int
    members: Tuple[str, ...]

    proposed_digest: Optional[bytes] = None
    proposed_batch: Optional[Tuple[Request, ...]] = None
    proposal_regency: int = -1

    #: the WRITEs and the ACCEPTs, by (regency, digest)
    writes: Tally = field(default_factory=Tally)
    accepts: Tally = field(default_factory=Tally)

    sent_write: Set[int] = field(default_factory=set)    # regencies
    sent_accept: Set[int] = field(default_factory=set)   # regencies
    write_cert: Optional[WriteCertificate] = None
    decided: bool = False
    decided_digest: Optional[bytes] = None

    # -- proposal ----------------------------------------------------------

    def note_proposal(self, regency: int, digest: bytes, batch: Tuple[Request, ...]) -> bool:
        """Record the (validated) proposal for ``regency``.

        Returns False if a *different* proposal was already recorded for the
        same regency — evidence of leader equivocation; the caller should
        not WRITE in that case.
        """
        if self.proposal_regency == regency and self.proposed_digest is not None:
            return self.proposed_digest == digest
        self.proposal_regency = regency
        self.proposed_digest = digest
        self.proposed_batch = batch
        return True

    def should_write(self, regency: int) -> bool:
        """True iff this replica has a proposal for ``regency`` and hasn't WRITEn."""
        return (
            not self.decided
            and self.proposal_regency == regency
            and self.proposed_digest is not None
            and regency not in self.sent_write
        )

    def mark_write_sent(self, regency: int) -> None:
        self.sent_write.add(regency)

    # -- votes -------------------------------------------------------------

    def add_write(self, regency: int, digest: bytes, sender: str) -> bool:
        """Record a WRITE; True iff it completes a write quorum (first time)."""
        if self.writes.reaches((regency, digest), sender, self.members,
                               self.quorum):
            self._update_cert(regency, digest)
            return True
        return False

    def _update_cert(self, regency: int, digest: bytes) -> None:
        if self.write_cert is None or regency >= self.write_cert.regency:
            batch = ()
            if digest == self.proposed_digest and self.proposed_batch is not None:
                batch = self.proposed_batch
            self.write_cert = WriteCertificate(regency, digest, batch)

    def rescope(self, members: Tuple[str, ...], quorum: int) -> None:
        """Run in the view a reconfiguration boundary installs.

        An undecided instance beyond the boundary takes the new view's
        members and quorum: after a scale-down the old quorum can exceed
        the members left (an endless regency cycle).  A decided instance
        only gathers the write certificate STOPDATA reports: it keeps its
        quorum and counts the members of every view it ran in.
        """
        if self.decided:
            self.members += tuple(m for m in members if m not in self.members)
            return
        self.members = members
        self.quorum = quorum

    def should_accept(self, regency: int, digest: bytes) -> bool:
        """True iff a write quorum for (regency, digest) exists, the digest
        matches our proposal for that regency, and no ACCEPT was sent yet."""
        return (
            not self.decided
            and regency not in self.sent_accept
            and digest == self.proposed_digest
            and self.proposal_regency == regency
            and self.writes.carries((regency, digest), self.members,
                                    self.quorum)
        )

    def mark_accept_sent(self, regency: int) -> None:
        self.sent_accept.add(regency)

    def add_accept(self, regency: int, digest: bytes, sender: str) -> bool:
        """Record an ACCEPT; True iff it completes a decision (first time)."""
        if self.decided:
            return False
        if self.accepts.reaches((regency, digest), sender, self.members,
                                self.quorum):
            self.decided = True
            self.decided_digest = digest
            return True
        return False

    def decided_batch(self) -> Optional[Tuple[Request, ...]]:
        """The decided batch, if its content is locally known.

        A replica can learn a decision digest before holding the matching
        proposal (e.g. it missed the PROPOSE); then the batch is unknown and
        state transfer fills the gap.
        """
        if not self.decided:
            return None
        if self.decided_digest == self.proposed_digest:
            return self.proposed_batch
        if self.write_cert is not None and self.write_cert.digest == self.decided_digest:
            return self.write_cert.batch or None
        return None
