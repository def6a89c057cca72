"""Canonical bytes and message digests.

The canonical form of a value is its binary wire body
(:mod:`repro.canonical`): what is digested, MACed and signed is what a
socket would carry, so a receiver hashes the bytes that arrived.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repro import canonical as _canonical
from repro.canonical import DIGEST_MEMO, MEMO


def canonical_bytes(obj: Any) -> bytes:
    """Serialize ``obj`` into its canonical byte string.

    Supports the value types used in protocol messages: None, bool, int,
    float, str, bytes, tuples, lists, frozensets/sets and dicts (ordered
    by encoded bytes), and dataclasses; anything else raises
    :class:`~repro.errors.CryptoError`.  Type tags are included, so ``1``,
    ``"1"``, ``1.0`` and ``True`` never collide — nor do ``[1]`` and
    ``(1,)``, which a peer decodes as different values.

    The bytes of a frozen dataclass are memoised on the object (at every
    nesting depth), and decoded messages arrive with theirs — as a
    ``memoryview`` of the frame they came in, which is what this returns
    for them: bytes-like, to be hashed or joined, not ``bytes``.
    """
    return _canonical.encode(obj)[0]


def digest(obj: Any) -> bytes:
    """16-byte BLAKE2b digest of the canonical form of ``obj``.

    Memoised beside the canonical bytes on a frozen dataclass: every
    replica of a group digests the same proposal at least twice, and in
    the sim backend the object is shared by reference across all of them.
    """
    attrs = getattr(obj, "__dict__", None) if _canonical.memo_on else None
    if attrs is not None:
        cached = attrs.get(DIGEST_MEMO)
        if cached is not None:
            _canonical.digest_stats.hits += 1
            return cached
    value = hashlib.blake2b(canonical_bytes(obj), digest_size=16).digest()
    if attrs is not None and MEMO in attrs:
        # the encoder found the object memoisable, so its digest is too
        stats = _canonical.digest_stats
        stats.misses += 1
        stats.written += 1
        attrs[DIGEST_MEMO] = value
    return value


class SequenceDigest:
    """Running digest of an append-only sequence.

    BLAKE2b over the 16-byte :func:`digest` of each item, in order: it
    binds every item, its position and the length, and extending the
    sequence costs one hash update per new item — nothing already fed is
    touched again.  ``SequenceDigest(items).value()`` is the one linear
    pass that recomputes it from the items alone.
    """

    __slots__ = ("_running",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._running = hashlib.blake2b(digest_size=16)
        for item in items:
            self.add(digest(item))

    def add(self, item_digest: bytes) -> None:
        """Append an item, given its :func:`digest`."""
        self._running.update(item_digest)

    def value(self) -> bytes:
        """Digest of the sequence so far (more items may follow)."""
        return self._running.digest()
