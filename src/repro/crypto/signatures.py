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
from dataclasses import dataclass
from typing import Any

from repro.crypto import cache as _cache
from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyRegistry


@dataclass(frozen=True)
class Signature:
    """A signature tagged with the claimed signer identity."""

    signer: str
    tag: bytes


#: ``__dict__`` key of the verdict memo on a signed message (see
#: :func:`verify_signed`)
VERDICT_MEMO = "_verdict"


def _tag(registry: KeyRegistry, identity: str, body: bytes) -> bytes:
    return hmac.new(registry.secret(identity), body,
                    hashlib.blake2b).digest()[:16]


def sign(registry: KeyRegistry, identity: str, obj: Any) -> Signature:
    """Sign the canonical form of ``obj`` as ``identity``."""
    return Signature(identity, _tag(registry, identity, canonical_bytes(obj)))


def verify(registry: KeyRegistry, obj: Any, signature: Signature) -> bool:
    """True iff ``signature`` is a valid signature of ``obj`` by its signer."""
    return hmac.compare_digest(
        _tag(registry, signature.signer, canonical_bytes(obj)), signature.tag)


def verify_signed(registry: KeyRegistry, message: Any) -> bool:
    """``verify(registry, message.signed_part(), message.signature)``,
    memoised on ``message``.

    For a frozen message with a ``signed_part()`` and a ``signature``
    (:class:`~repro.bcast.messages.Request`,
    :class:`~repro.core.messages.WireMulticast`).  A ByzCast child group
    receives ``3f + 1`` relayed copies of one multicast and every replica
    of the entry group checks the client signature at admission *and* at
    proposal validation — the same object each time on the simulation
    backend.  The first check under ``registry`` runs :func:`verify`;
    every later one is a lookup in the object's ``__dict__``.  The memo is
    keyed on the registry object, so two registries never share a
    verdict, and only :func:`verify` writes it: a decoded or copied
    message starts without one.
    """
    if not _cache.enabled():
        return verify(registry, message.signed_part(), message.signature)
    attrs = message.__dict__
    memo = attrs.get(VERDICT_MEMO)
    if memo is not None and memo[0] is registry:
        return memo[1]
    verdict = verify(registry, message.signed_part(), message.signature)
    attrs[VERDICT_MEMO] = (registry, verdict)
    return verdict
