"""Replicated application interface (the state machine in SMR).

A broadcast group is a Byzantine fault-tolerant replicated state machine:
every replica runs one :class:`Application` instance and feeds it ordered
requests.  Determinism is the application's contract — identical request
sequences must produce identical results at every correct replica, because
clients accept a result only once ``f + 1`` replicas report it identically
(see :class:`repro.bcast.client.GroupProxy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.bcast.messages import Request
from repro.env import Monitor


@dataclass
class ExecutionContext:
    """Information available to the application while executing a request.

    ``replica`` is the executing :class:`~repro.bcast.replica.Replica`
    actor; applications that must talk to the outside world (e.g. the
    ByzCast relay logic) use it to send messages and charge CPU time.
    """

    replica: Any
    time: float

    @property
    def replica_name(self) -> str:
        return self.replica.name

    @property
    def group(self) -> str:
        return self.replica.config.group_id

    @property
    def monitor(self) -> Monitor:
        return self.replica.monitor


class Application:
    """Interface implemented by replicated services.

    **Checkpointable contract (duck-typed).**  An application that also
    implements ``snapshot() -> Any`` and ``restore(state) -> None`` opts
    into checkpointing (``BroadcastConfig.checkpoint_interval``): the
    replica periodically calls :meth:`snapshot` to capture the full
    application state and may later call :meth:`restore` with a snapshot
    taken by a *peer* replica.  Snapshots must be deterministic — two
    correct replicas that executed the same request prefix must return
    values with identical canonical bytes, because checkpoints are
    accepted on ``f + 1`` matching digests — and must be canonicalizable
    by :func:`repro.crypto.digest.canonical_bytes`.  Execution order is
    the same at every correct replica, so the insertion order of anything
    appended during execution is already canonical; only containers
    filled in another order need sorting.  An application may
    additionally expose a ``checkpointable`` attribute; when present and
    false, the replica skips checkpointing even though the methods exist
    (see ``docs/CHECKPOINTS.md``).

    **Readable contract (duck-typed).**  An application that implements
    ``read(payload) -> Any`` opts into the unordered read tier (see
    ``docs/READS.md``): the replica answers optimistic
    :class:`~repro.bcast.messages.ReadRequest` probes with
    ``read(payload)`` keyed to its applied consensus id, without ordering
    them.  ``read`` must be a *pure* function of the executed prefix —
    identical prefixes must produce identical canonical bytes, or the
    client's f+1 match can never form.  A replica whose application has
    no ``read`` stays silent, which pushes clients onto the ordered
    fallback.

    **Answering contract (duck-typed).**  An application that implements
    ``answer(src, payload) -> Any`` receives every message the replica's
    protocol does not know, unordered, and the replica sends a non-None
    return value back to ``src``.  It must not change replicated state.
    """

    def execute(self, request: Request, ctx: ExecutionContext) -> Any:
        """Apply one ordered request; the return value is sent as the reply.

        Returning ``None`` suppresses the protocol-level reply (the
        application is expected to respond through its own channel then).
        """
        raise NotImplementedError

    def sends_reply(self, request: Request, result: Any) -> bool:
        """Whether the replica sends ``result`` to ``request``'s sender as it
        executes ``request``.  It keeps the result either way, and answers a
        retransmission with it.  Default: True.
        """
        return True

    def carried(self, request: Request) -> int:
        """How many application messages ``request`` carries (default 1).

        The replica charges ``execute_per_msg`` once per carried message;
        everything else is per request.  Must not raise on any command.
        """
        return 1

    # -- unordered intake: requests the application makes itself ----------

    def intake(self, request: Request, replica: Any) -> bool:
        """Take a signed ``request`` unordered instead of pooling it.

        Called on receipt, after the sender's signature checked out; True
        means the application keeps ``request`` (ByzCast counts a parent's
        relayed copy as a vote) and the replica neither pools nor answers
        it.  The application may then pool requests of its own with
        ``replica.offer`` — unsigned, under a pseudo-sender no endpoint
        has — which the group orders like any other once :meth:`vouch`
        accepts them.  Default: takes nothing.
        """
        return False

    def vouch(self, request: Request,
              ahead: Iterable[Request]) -> Optional[bool]:
        """Whether the unsigned ``request`` — one the application offered,
        say — is valid where it executes: after the application's current
        state, then every request in ``ahead`` (ordered or proposed before
        it, not executed yet).

        ``None``: a request in ``ahead`` may change the answer, so the
        replica waits until it executed (a leader leaves ``request`` out of
        its batch, a follower holds the proposal back).  Must be a function
        of replicated state and ``request``.  Default: False — a request
        without a signature is never valid.
        """
        return False

    def reoffer(self, replica: Any) -> None:
        """Offer again whatever the application pools itself: the replica
        dropped its pool (a restart, a departure) or jumped it to a
        checkpoint.  Default: nothing."""

    def end_batch(self, ctx: ExecutionContext) -> None:
        """Called once after the last :meth:`execute` of a decided batch.

        Runs before the batch's checkpoint (if one is due), so output an
        application accumulates across a batch never has to be part of its
        snapshot.  Default: nothing.
        """

    def state_summary(self, state: Any) -> Any:
        """What stands for ``state`` in a checkpoint's ``state_digest``.

        ``state`` is a :meth:`snapshot` value — this replica's, or one a
        peer shipped, which is verified by summarising it again.  The
        default is the state itself: the digest covers all of it, at a
        cost proportional to its size at every checkpoint.  An application
        whose state grows with history may keep running digests of its
        append-only parts (:class:`repro.crypto.digest.SequenceDigest`)
        and return ``state`` with those parts replaced by their digests;
        the result must be a function of ``state`` alone that binds every
        item of it, and canonicalizable.
        """
        return state


class EchoApplication(Application):
    """Trivial service replying with its own command — used by tests/benches."""

    def __init__(self) -> None:
        self.executed = []

    def execute(self, request: Request, ctx: ExecutionContext) -> Any:
        self.executed.append(request.command)
        return ("ok", request.command)

    def read(self, payload: Any) -> Any:
        return ("executed", len(self.executed))

    def snapshot(self) -> Any:
        return tuple(self.executed)

    def restore(self, state: Any) -> None:
        self.executed = list(state)


class KeyValueApplication(Application):
    """A small deterministic key-value store.

    Commands are tuples: ``("put", key, value)``, ``("get", key)``,
    ``("del", key)``, and ``("cas", key, expected, value)``.

    Read-only commands (``("get", key)``) are also served through the
    unordered read tier via :meth:`read`.
    """

    READ_OPS = frozenset({"get"})

    def __init__(self) -> None:
        self.store = {}

    def snapshot(self) -> Any:
        return tuple(sorted(self.store.items()))

    def restore(self, state: Any) -> None:
        self.store = dict(state)

    def read(self, payload: Any) -> Any:
        if not payload or payload[0] not in self.READ_OPS:
            return ("error", "not a read-only op")
        return ("ok", self.store.get(payload[1]))

    def execute(self, request: Request, ctx: ExecutionContext) -> Any:
        command = request.command
        op = command[0]
        if op == "put":
            __, key, value = command
            self.store[key] = value
            return ("ok", None)
        if op == "get":
            return ("ok", self.store.get(command[1]))
        if op == "del":
            return ("ok", self.store.pop(command[1], None))
        if op == "cas":
            __, key, expected, value = command
            if self.store.get(key) == expected:
                self.store[key] = value
                return ("ok", True)
            return ("ok", False)
        return ("error", f"unknown op {op!r}")
