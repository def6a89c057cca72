"""Pairwise message-authentication codes and batch MAC vectors.

BFT-SMaRt authenticates replica-to-replica channels with MAC vectors: the
sender hashes a message once and attaches one small per-link MAC over
that hash for each destination — n cheap MACs over 16 bytes instead of n
full-body MACs (Bessani et al., DSN 2014).  A MAC here is keyed
BLAKE2b-128 (the MAC mode of RFC 7693: one C call per tag).  We model
both levels: a pairwise MAC keyed by the unordered pair of identities —
enough to detect tampering and impersonation between two honest
endpoints — and the amortised batch vector of :func:`mac_vector` /
:func:`verify_mac_vector`, where the single body digest is memoised on
the batch beside its wire bytes (:mod:`repro.crypto.digest`): a sender
walks the batch once for the vector and all its links, and a receiver
hashes the bytes that arrived.
"""

from __future__ import annotations

import hmac
import hashlib
from typing import Any, Dict, Iterable

from repro.crypto.digest import canonical_bytes, digest
from repro.crypto.keys import KeyRegistry


def _pair_key(registry: KeyRegistry, a: str, b: str) -> bytes:
    """The 32-byte channel key of the unordered identity pair (cached).

    Secrets are deterministic per identity, so the derived pair key is a
    pure function of (registry, pair) — memoised on the registry itself to
    spare the blake2b per MAC on hot links.
    """
    low, high = sorted((a, b))
    cache = getattr(registry, "_pair_keys", None)
    if cache is None:
        cache = registry._pair_keys = {}
    key = cache.get((low, high))
    if key is None:
        key = cache[(low, high)] = hashlib.blake2b(
            registry.secret(low) + registry.secret(high), digest_size=32
        ).digest()
    return key


def mac(registry: KeyRegistry, src: str, dst: str, obj: Any) -> bytes:
    """MAC of ``obj`` under the pairwise key of (src, dst)."""
    return _link_tag(registry, src, dst, canonical_bytes(obj))


def verify_mac(registry: KeyRegistry, src: str, dst: str, obj: Any, tag: bytes) -> bool:
    """True iff ``tag`` authenticates ``obj`` between ``src`` and ``dst``."""
    expected = mac(registry, src, dst, obj)
    return hmac.compare_digest(expected, tag)


def _link_tag(registry: KeyRegistry, src: str, dst: str, body: bytes) -> bytes:
    return hashlib.blake2b(body, key=_pair_key(registry, src, dst),
                           digest_size=16).digest()


def mac_vector(registry: KeyRegistry, src: str, dsts: Iterable[str],
               obj: Any) -> Dict[str, bytes]:
    """One MAC tag per destination, amortising the body hash across links.

    ``obj`` (typically a proposal batch) is canonicalized and digested
    exactly once — memoised on the object, so repeated vectors over the
    same batch skip even that — and each link's tag is a keyed BLAKE2b
    over the 16-byte digest under the pairwise channel key.
    """
    body = digest(obj)
    return {dst: _link_tag(registry, src, dst, body) for dst in dsts}


def verify_mac_vector(registry: KeyRegistry, src: str, dst: str, obj: Any,
                      vector: Dict[str, bytes]) -> bool:
    """True iff ``vector`` carries a valid tag for ``dst``.

    Verification is per-link: a receiver checks only its own entry, and a
    tag forged for one link says nothing about the others (the per-pair
    keys are independent).
    """
    tag = vector.get(dst)
    if tag is None:
        return False
    expected = _link_tag(registry, src, dst, digest(obj))
    return hmac.compare_digest(expected, tag)
