"""Configuration of one broadcast group: membership, quorums, costs, timers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.errors import ConfigurationError

#: ceiling of every exponential backoff (retransmits, read rounds, delivery
#: queries, state requests): long outages keep probing within bounded time
BACKOFF_MULTIPLIER = 64


def capped_backoff(base: float, attempt: int) -> float:
    """``base`` doubled per attempt since the first, at most ×64."""
    return base * min(2 ** attempt, BACKOFF_MULTIPLIER)


@dataclass(frozen=True)
class CostModel:
    """CPU service times (seconds) charged by replicas for protocol steps.

    These knobs are the performance model.  Defaults are calibrated (see
    ``scripts/calibrate.py`` and ``docs/CALIBRATION.md``) so a simulated
    4-replica group matches the
    paper's reference points: ≈19.5k local msgs/s at saturation, ≈9.5k msgs/s
    sustained by an auxiliary group relaying global traffic (``K(h) = 9500``,
    §V-C), and ≈4 ms single-client latency in the LAN (§V-F).

    Attributes:
        request_recv: per client/relay request received, at each replica.
        propose_fixed: leader cost to assemble + send one proposal.
        propose_per_msg: leader cost per request included in a proposal.
        validate_fixed: per-replica cost to validate a received proposal.
        validate_per_msg: per-request share of proposal validation
            (signature checks, FIFO admission re-check).
        vote_recv: cost of processing one WRITE or ACCEPT message.
        execute_per_msg: cost of executing one ordered request.
        reply_per_msg: cost of building + sending one reply (charged where
            a reply may leave live, ``Replica._execute_ready``).
        relay_per_dest: cost, at a ByzCast replica, of re-broadcasting one
            ordered global message to one replica of a child group
            (charged per copy sent live: the 2f+1 of the child's quorum,
            at a member of its own group's quorum only).
        checkpoint_fixed: cost of snapshotting application state + hashing
            it when a checkpoint interval completes (amortized over
            ``checkpoint_interval`` consensus instances; see
            ``docs/CHECKPOINTS.md``).
    """

    request_recv: float = 5e-6
    propose_fixed: float = 1.5e-3
    propose_per_msg: float = 1.2e-5
    validate_fixed: float = 1.0e-3
    validate_per_msg: float = 5e-6
    vote_recv: float = 4e-5
    execute_per_msg: float = 7e-6
    reply_per_msg: float = 4e-6
    relay_per_dest: float = 6e-6
    checkpoint_fixed: float = 5e-4


@dataclass(frozen=True)
class BroadcastConfig:
    """Static configuration of one broadcast group.

    Attributes:
        group_id: unique group name.
        replicas: replica endpoint names, ``len(replicas) == 3f + 1``.
        f: tolerated Byzantine replicas.
        max_batch: maximum requests per consensus instance.  Batching is
            otherwise natural: the leader starts an instance whenever a
            pipeline slot is free and an unclaimed request is pooled, and
            cuts the batch once the instance's fixed cost has run (see
            ``Replica._maybe_propose``), so the 3f+1 relayed copies of one
            ByzCast message land in one instance without any batch timer.
        request_timeout: seconds a replica waits for a pending request to be
            executed before voting to change the leader.
        checkpoint_interval: executed consensus ids between application
            checkpoints (0 disables).  With an interval set, each replica
            periodically snapshots its application, truncates the executed
            log below the checkpoint, and serves lagging peers behind the
            truncation horizon from the checkpoint — bounding per-replica
            memory by the interval (see ``docs/CHECKPOINTS.md``).
        max_in_flight: maximum concurrently open consensus instances the
            leader may drive (the pipeline depth, see ``docs/PIPELINE.md``).
            ``1`` reproduces the strictly sequential pre-pipeline engine
            byte-for-byte on the golden traces; deeper windows overlap the
            PROPOSE→WRITE→ACCEPT round trips of consecutive instances while
            execution stays strictly in consensus order.
        costs: the CPU cost model.
        authenticate_batches: leaders wrap each proposal in an
            :class:`~repro.bcast.messages.AuthenticatedPropose` carrying a
            per-link MAC vector, and receivers verify their tag before any
            per-request validation (BFT-SMaRt-style link authentication;
            the receive side of ``repro.crypto.mac.verify_mac_vector``).
            Off by default: golden traces pin the unwrapped message flow.
    """

    group_id: str
    replicas: Tuple[str, ...]
    f: int = 1
    max_batch: int = 400
    request_timeout: float = 2.0
    checkpoint_interval: int = 0
    max_in_flight: int = 4
    costs: CostModel = field(default_factory=CostModel)
    authenticate_batches: bool = False

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ConfigurationError("f must be non-negative")
        expected = 3 * self.f + 1
        if len(self.replicas) != expected:
            raise ConfigurationError(
                f"group {self.group_id!r}: need 3f+1 = {expected} replicas, "
                f"got {len(self.replicas)}"
            )
        if len(set(self.replicas)) != len(self.replicas):
            raise ConfigurationError(f"group {self.group_id!r}: duplicate replica names")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        if self.checkpoint_interval < 0:
            raise ConfigurationError("checkpoint_interval must be non-negative")
        if self.max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be at least 1")

    @classmethod
    def for_group(cls, group_id: str, f: int = 1,
                  costs: Optional[CostModel] = None,
                  **engine: Any) -> "BroadcastConfig":
        """A group of ``3f + 1`` replicas named ``{group_id}/r{i}``.

        What the deployments build every group from: ``engine`` is any
        other field of this class (an unknown name is the dataclass's own
        ``TypeError``), ``costs=None`` means the default model.
        """
        if costs is not None:
            engine["costs"] = costs
        replicas = tuple(f"{group_id}/r{i}" for i in range(3 * f + 1))
        return cls(group_id=group_id, replicas=replicas, f=f, **engine)

    @property
    def n(self) -> int:
        """Group size (3f + 1)."""
        return len(self.replicas)

    @property
    def quorum(self) -> int:
        """Byzantine quorum size: n - f = 2f + 1."""
        return self.n - self.f

    def leader_of(self, regency: int) -> str:
        """The leader replica of ``regency`` (round-robin)."""
        return self.replicas[regency % self.n]
