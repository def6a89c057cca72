"""Signatures over canonicalized objects.

Implemented as HMAC with the signer's registry secret.  Verification
re-derives the signer's secret from the (shared, trusted) registry — this
stands in for public-key verification and preserves the property the
protocols rely on: only the holder of ``identity``'s secret can produce a
signature that verifies for ``identity``.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass, is_dataclass
from typing import Any, Dict, Optional, Tuple

from repro.crypto import cache as _cache
from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyRegistry


@dataclass(frozen=True)
class Signature:
    """A signature tagged with the claimed signer identity."""

    signer: str
    tag: bytes


def _signed_bytes(obj: Any) -> Tuple[bytes, Optional[Dict]]:
    """``(canonical bytes, verdict table)`` of a signed tuple or message.

    Both are kept in one identity-keyed entry per object (see
    :mod:`repro.crypto.cache`), so signing and then verifying one object —
    or verifying it under several signatures — canonicalizes it once.
    Scalars are not worth an entry; with memoisation off nothing is kept.
    """
    if not (_cache.enabled()
            and (isinstance(obj, tuple) or is_dataclass(obj))):
        return canonical_bytes(obj), None
    entry = _cache.verify_cache.get(obj)
    if entry is None:
        entry = _cache.verify_cache.put(obj, (canonical_bytes(obj), {}))
    return entry


def _tag(registry: KeyRegistry, identity: str, body: bytes) -> bytes:
    return hmac.new(registry.secret(identity), body,
                    hashlib.blake2b).digest()[:16]


def sign(registry: KeyRegistry, identity: str, obj: Any) -> Signature:
    """Sign the canonical form of ``obj`` as ``identity``."""
    return Signature(identity, _tag(registry, identity, _signed_bytes(obj)[0]))


def verify(registry: KeyRegistry, obj: Any, signature: Signature) -> bool:
    """True iff ``signature`` is a valid signature of ``obj`` by its signer.

    Verdicts are memoised per message object: a ByzCast child group
    receives ``3f + 1`` relayed copies of one multicast and every replica
    of the entry group re-verifies the client signature at admission *and*
    proposal validation — identical bytes each time.  The verdict key
    includes the signer's derived secret, so registries with different
    master seeds never share verdicts.
    """
    body, verdicts = _signed_bytes(obj)
    if verdicts is None:
        return hmac.compare_digest(
            _tag(registry, signature.signer, body), signature.tag)
    key = (signature.signer, signature.tag, registry.secret(signature.signer))
    result = verdicts.get(key)
    if result is None:
        result = verdicts[key] = hmac.compare_digest(
            _tag(registry, signature.signer, body), signature.tag)
    return result
