"""Wire messages of the atomic broadcast protocol.

All messages are frozen dataclasses so they can be hashed, canonicalized
(:func:`repro.crypto.digest.canonical_bytes`) and therefore signed.  The
``group`` field scopes every message to one broadcast instance; replicas
silently discard messages for other groups (a cheap defense against
cross-group replay by Byzantine peers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro import canonical as _canonical
from repro.crypto.digest import digest
from repro.crypto.signatures import Signature, share_signed_part, signed_bytes


@dataclass(frozen=True)
class Request:
    """A client (or relay) request to be ordered by a group.

    Attributes:
        group: destination broadcast group.
        sender: identity of the submitting endpoint (client or a replica of
            a parent group, when used by ByzCast relays).
        seq: per-(sender, group) sequence number — the basis of FIFO order.
        command: opaque application command (must be canonicalizable).
        signature: the sender's signature over (group, sender, seq, command).
    """

    group: str
    sender: str
    seq: int
    command: Any
    signature: Optional[Signature] = None

    def signed_part(self) -> bytes:
        """What :attr:`signature` covers: the canonical bytes of
        ``("req", group, sender, seq, command)``.

        Encoded once and memoised on the request
        (:func:`~repro.crypto.signatures.signed_bytes`): the signer walks
        the tuple, and every check of the signed copy tags the same bytes.
        """
        return signed_bytes(
            self, ("req", self.group, self.sender, self.seq, self.command))

    def with_signature(self, signature: Signature) -> "Request":
        """This request carrying ``signature``, which covers its
        :meth:`signed_part`; the copy keeps those bytes as its memo."""
        signed = Request(self.group, self.sender, self.seq, self.command,
                         signature)
        share_signed_part(self, signed)
        return signed

    def key(self) -> Tuple[str, int]:
        """FIFO identity: (sender, seq).  Tuple is built once and reused."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (self.sender, self.seq)
            object.__setattr__(self, "_key", cached)
        return cached


@dataclass(frozen=True)
class ReadRequest:
    """An unordered read probe sent directly to replicas of one group.

    Reads bypass consensus entirely (the BFT-SMaRt ``invokeUnordered``
    pattern): each replica answers from its current executed state, and the
    client accepts only when ``f + 1`` replies match on (cid, value) — at
    least one of those voters is then correct, so the value was really
    executed by a correct replica.  Each replica answers from its live
    applied state (see ``docs/READS.md``).

    Read probes are unsigned and idempotent: a forged or replayed probe can
    only cause a reply, never a state change, so the signature machinery
    (and its CPU cost) is reserved for the ordered path.
    """

    group: str
    sender: str
    rid: int            #: per-(sender, group) probe round identifier
    payload: Any        #: opaque read query (app duck-types ``read()``)


@dataclass(frozen=True)
class ReadReply:
    """One replica's answer to a :class:`ReadRequest`.

    ``cid`` is the consensus id whose execution produced the served state
    (the *applied* cursor, not the decided one — execution is CPU-deferred
    and two replicas must never vouch for the same cid with different
    state).  A client counts the reply as a vote for (``cid``, the
    canonical bytes of ``result``), so a Byzantine replica can only vote
    for a value it actually sent.
    """

    group: str
    sender: str
    req_sender: str
    rid: int
    cid: int
    result: Any


#: ``__dict__`` key of :meth:`Propose.batch_digest`'s memo
BATCH_DIGEST_MEMO = "_batch_digest"


@dataclass(frozen=True)
class Propose:
    """Leader's proposal of a batch for consensus instance ``cid``."""

    group: str
    regency: int
    cid: int
    batch: Tuple[Request, ...]
    leader: str

    def batch_digest(self) -> bytes:
        """``digest(batch)``, memoised on the proposal.

        What every WRITE and ACCEPT of the instance carries; on the
        simulation backend all replicas of a group share one proposal
        object, so the batch is hashed once, not once per replica.
        """
        if not _canonical.memo_on:
            return digest(self.batch)
        attrs = self.__dict__
        value = attrs.get(BATCH_DIGEST_MEMO)
        if value is None:
            value = attrs[BATCH_DIGEST_MEMO] = digest(self.batch)
        return value


@dataclass(frozen=True)
class AuthenticatedPropose:
    """A proposal wrapped with its batch MAC vector (docs/WIRE.md).

    With ``BroadcastConfig.authenticate_batches`` on, the leader attaches
    one :func:`repro.crypto.mac.mac_vector` tag per follower link — one
    memoised proposal digest, one 16-byte keyed-BLAKE2b tag per peer — and
    each receiver checks its own tag
    (:func:`~repro.crypto.mac.verify_mac_vector`) *before* paying the
    per-request validation cost: a tampered or spoofed batch dies on one
    cheap tag instead of ``len(batch)`` signature verifies.  ``vector``
    maps receiver name → tag; the frozen tuple-of-pairs form keeps the
    message hashable/canonicalizable.
    """

    proposal: Propose
    vector: Tuple[Tuple[str, bytes], ...]


@dataclass(frozen=True)
class Write:
    """Echo of a proposal digest (first quorum phase)."""

    group: str
    regency: int
    cid: int
    digest: bytes
    sender: str


@dataclass(frozen=True)
class Accept:
    """Commit vote after a quorum of matching WRITEs (second phase)."""

    group: str
    regency: int
    cid: int
    digest: bytes
    sender: str


@dataclass(frozen=True)
class Reply:
    """A replica's response to an ordered request.

    ``regency`` is the sender's current regency: a client proxy sends its
    next requests to the quorum of the (f+1)-th highest one its members
    report (:class:`~repro.bcast.client.GroupProxy`).
    """

    group: str
    sender: str
    req_sender: str
    req_seq: int
    result: Any
    regency: int = 0


@dataclass(frozen=True)
class Stop:
    """Vote to abandon ``regency`` (request timeout / invalid leader)."""

    group: str
    regency: int
    sender: str


@dataclass(frozen=True)
class CertReport:
    """One open consensus instance reported in a STOPDATA message.

    ``cert_regency >= 0`` means the sender holds a write certificate from
    that regency for ``batch`` — the strongest evidence that the value may
    already have decided somewhere.  ``cert_regency == -1`` is an
    uncertified report: the sender merely knows a proposal (or a buffered
    decision it re-asserts at the current regency) for ``cid``; the new
    leader may use it as a deterministic gap filler but owes it nothing.
    """

    cid: int
    cert_regency: int
    batch: Optional[Tuple[Request, ...]]


@dataclass(frozen=True)
class StopData:
    """Sent to the new leader after a regency change.

    With a consensus pipeline there may be up to ``max_in_flight`` open
    instances, so the report covers a *range*: ``cid`` is the sender's
    execution cursor and ``certs`` carries one :class:`CertReport` per open
    instance at or above it, so the new leader cannot revert any potentially
    decided batch in the window.
    """

    group: str
    regency: int
    sender: str
    cid: int
    certs: Tuple[CertReport, ...]


@dataclass(frozen=True)
class Sync:
    """New leader's installation message for ``regency``.

    ``cid`` is the highest execution cursor among the collected STOPDATA;
    ``carries`` are the (cid, batch) pairs — ascending by cid — the leader
    re-proposes for the open window: every write-certified value, plus
    deterministic fillers for uncertified gaps *below* a certified cid
    (a gap below a certified instance is provably undecided, but the
    certified instance above it may have decided, so the gap must be filled
    rather than abandoned).  Uncertified batches above the last certified
    cid are recycled to the pool instead of being carried.
    """

    group: str
    regency: int
    leader: str
    cid: int
    carries: Tuple[Tuple[int, Tuple[Request, ...]], ...]


@dataclass(frozen=True)
class Heartbeat:
    """Periodic leader liveness + progress beacon.

    Lets a replica that quiesced behind the quorum (e.g. after a healed
    partition with no further traffic) notice the gap and state-transfer.
    """

    group: str
    regency: int
    next_cid: int
    sender: str


@dataclass(frozen=True)
class StateRequest:
    """Ask peers for the executed log starting at consensus ``from_cid``."""

    group: str
    sender: str
    from_cid: int


@dataclass(frozen=True)
class CheckpointData:
    """One replica's application-state checkpoint at consensus ``cid``.

    ``state_digest`` covers ``(cid, the application's summary of state,
    tracker, view)`` — the summary is the whole state unless the
    application keeps running digests of its append-only parts
    (:meth:`repro.bcast.app.Application.state_summary`); a receiver
    installs a checkpoint only once ``f + 1`` distinct peers vouch for the
    same digest *and* the carried payload re-hashes to it, so at least one
    correct replica stands behind the state (see ``docs/CHECKPOINTS.md``).

    The FIFO tracker and the active view travel with the state: a replica
    that installs a checkpoint skips executing the truncated prefix, so it
    would otherwise miss both the per-sender sequence floors (and re-accept
    duplicates) and any ``Reconfig`` ordered inside that prefix.
    """

    cid: int                                #: highest cid covered by the state
    state_digest: bytes                     #: digest of the fields below
    state: Any                              #: application snapshot (canonicalizable)
    tracker: Tuple[Tuple[str, int], ...]    #: sorted (sender, last ordered seq)
    view_replicas: Tuple[str, ...]          #: membership at cid
    view_f: int


@dataclass(frozen=True)
class StateResponse:
    """A peer's executed log suffix (f+1 matching responses are applied).

    ``regency`` lets a recovering replica rejoin the current leader epoch.
    ``horizon`` is the lowest cid the responder still retains a batch for;
    when the requester asked for anything older, ``checkpoint`` carries the
    responder's last checkpoint and ``batches`` hold only the retained
    suffix above it — never a partial suffix with a silent gap.
    """

    group: str
    sender: str
    from_cid: int
    next_cid: int
    regency: int
    batches: Tuple[Tuple[int, Tuple[Request, ...]], ...]
    checkpoint: Optional[CheckpointData] = None
    horizon: int = 0
