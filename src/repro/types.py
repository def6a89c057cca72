"""Core value types shared across the library.

Identifiers are plain strings wrapped in :class:`typing.NewType` aliases so
that signatures document whether they expect a process, a group, or a client,
without imposing any runtime overhead.

The central value object is :class:`MulticastMessage`, the application-level
message handed to ``a-multicast``.  It is immutable: every field that defines
the message identity participates in hashing, so messages can be used as
dictionary keys throughout the protocol stack (delivery logs, dedup counters,
the ``A-delivered`` set of Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, NewType, Tuple

ProcessId = NewType("ProcessId", str)
GroupId = NewType("GroupId", str)
ClientId = NewType("ClientId", str)

#: A destination set: the groups a message is atomically multicast to.
Destination = FrozenSet[GroupId]


def destination(*groups: str) -> Destination:
    """Build a :data:`Destination` from group-id strings.

    >>> sorted(destination("g1", "g2"))
    ['g1', 'g2']
    """
    if not groups:
        raise ValueError("a destination must contain at least one group")
    return frozenset(GroupId(g) for g in groups)


@dataclass(frozen=True)
class MessageId:
    """Globally unique identity of an atomically multicast message.

    The identity is the pair (sender, sender-local sequence number); a
    Byzantine client may of course reuse ids, but correct processes treat two
    payload-distinct messages with the same id as the same message with the
    content fixed by the first valid signature seen — exactly like a
    signature over the full message in a real deployment.
    """

    sender: ClientId
    seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.sender}:{self.seq}"


@dataclass(frozen=True)
class MulticastMessage:
    """An application message addressed to one or more groups.

    Attributes:
        mid: unique message identity (sender + per-sender sequence number).
        dst: destination groups (``m.dst`` in the paper).
        payload: opaque application payload (must be hashable).
    """

    mid: MessageId
    dst: Destination
    payload: Tuple = field(default=())

    @property
    def is_local(self) -> bool:
        """True iff the message addresses a single group (paper §II-B)."""
        return len(self.dst) == 1

    @property
    def is_global(self) -> bool:
        """True iff the message addresses more than one group."""
        return len(self.dst) > 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"m({self.mid})→{{{','.join(sorted(self.dst))}}}"
