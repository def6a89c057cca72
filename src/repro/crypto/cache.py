"""Memoisation for the crypto hot path: the switch, the LRU, the counters.

The broadcast engine repeatedly canonicalizes, digests and verifies the
*same* message objects: every replica of a group digests the same proposal
batch, a ByzCast child group receives ``3f + 1`` relayed copies of one
multicast, and the simulation backend shares message objects by reference
across actors.  Two mechanisms remove the duplicate work without changing
a single observable result:

* **Memos on the message** — canonical bytes and digest of a frozen
  dataclass live in its ``__dict__`` (:mod:`repro.canonical`,
  :mod:`repro.crypto.digest`) and die with it, and so do the canonical
  bytes a signed request's signature covers
  (:func:`repro.crypto.signatures.signed_bytes`), its verdict under one
  key registry (:func:`repro.crypto.signatures.verify_signed`: a repeated
  signature check is one dictionary lookup) and a proposal's batch digest
  (:meth:`repro.bcast.messages.Propose.batch_digest`).  A signature or
  MAC tag is one keyed BLAKE2b call over bytes that are already there.
* **An identity-keyed LRU** (:class:`IdentityCache`) for what has no
  object to live on: the JSON codec's frame bodies (``encode``).
  Entries are keyed on ``id(obj)`` and hold a strong reference to the
  object, so a key can never be reused by a different object while its
  entry is alive (value-based keys would be unsound: ``1 == 1.0 == True``
  yet their canonical forms differ), and the LRU has a fixed entry
  budget.

All memoised functions are pure, so behaviour (and the sim backend's
golden traces) is bit-identical with memoisation on or off — pinned by
``tests/crypto/test_cache_golden.py``.  The global switch below exists so
that test can prove it.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro import canonical as _canonical

#: entry budget; sized for a few in-flight consensus instances per group
#: across a large deployment, not for a whole run's history
ENCODE_CACHE_SIZE = 2048


class IdentityCache:
    """A bounded LRU cache keyed on object identity.

    Holding a strong reference to the key object guarantees its ``id`` stays
    valid for the lifetime of the entry (CPython reuses addresses only after
    deallocation).
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        #: id(obj) -> (obj, value)
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, obj: Any, default: Any = None) -> Any:
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0] is obj:
            self.hits += 1
            self._entries.move_to_end(id(obj))
            return entry[1]
        self.misses += 1
        return default

    def put(self, obj: Any, value: Any) -> Any:
        key = id(obj)
        self._entries[key] = (obj, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: the JSON codec's encode memo (repro.env.codec)
encode_cache = IdentityCache(ENCODE_CACHE_SIZE)

_COUNTERS = {
    "canonical": _canonical.canonical_stats,
    "digest": _canonical.digest_stats,
    "encode": encode_cache,
}


def enabled() -> bool:
    """Whether crypto/codec memoisation is active."""
    return _canonical.memo_on


def configure(enable: bool) -> None:
    """Turn memoisation on or off (clears the LRU and counters either way).

    Memos already written on live messages stay where they are; while
    memoisation is off nothing reads or writes them.
    """
    _canonical.memo_on = enable
    clear_caches()


def clear_caches() -> None:
    """Drop every LRU entry and reset all hit/miss counters."""
    for counted in _COUNTERS.values():
        counted.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters per memo — surfaced in BENCH reports.

    ``size`` is the live entry count of an LRU and the number of memos
    written since the last clear for ``canonical`` and ``digest``.
    ``verify`` is all zeros: signature checks keep no LRU (their verdict
    lives on the message), and the key stays so reports keep their shape.
    """
    stats = {
        name: {"hits": counted.hits, "misses": counted.misses,
               "size": len(counted)}
        for name, counted in _COUNTERS.items()
    }
    stats["verify"] = {"hits": 0, "misses": 0, "size": 0}
    return stats


@contextmanager
def caching_disabled() -> Iterator[None]:
    """Temporarily disable memoisation (for equivalence tests)."""
    previous = enabled()
    configure(False)
    try:
        yield
    finally:
        configure(previous)
