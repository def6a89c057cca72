"""Signatures over canonicalized objects.

A tag is keyed BLAKE2b-128 under the signer's registry secret (the MAC
mode of RFC 7693: one C call per tag).  Verification re-derives the
signer's secret from the (shared, trusted) registry — this stands in for
public-key verification and preserves the property the protocols rely
on: only the holder of ``identity``'s secret can produce a signature that
verifies for ``identity``.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass
from typing import Any, Tuple

from repro.crypto import cache as _cache
from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyRegistry


@dataclass(frozen=True)
class Signature:
    """A signature tagged with the claimed signer identity.

    Refuses a non-``str`` signer or a non-``bytes`` tag at construction,
    so a decoded frame carrying either is a bad frame, not a verifier
    crash.
    """

    signer: str
    tag: bytes

    def __post_init__(self) -> None:
        if type(self.signer) is not str or type(self.tag) is not bytes:
            raise TypeError("a Signature is a str signer and a bytes tag")


#: ``__dict__`` key of the verdict memo on a signed message (see
#: :func:`verify_signed`)
VERDICT_MEMO = "_verdict"
#: ``__dict__`` key of the signed-part memo (see :func:`signed_bytes`)
SIGNED_MEMO = "_signed_part"


def _tag(registry: KeyRegistry, identity: str, body: bytes) -> bytes:
    return hashlib.blake2b(body, key=registry.secret(identity),
                           digest_size=16).digest()


def _body(obj: Any) -> bytes:
    # A bytes value is a canonical form already (a message's signed part)
    return obj if type(obj) is bytes else canonical_bytes(obj)


def sign(registry: KeyRegistry, identity: str, obj: Any) -> Signature:
    """Sign the canonical form of ``obj`` as ``identity``.

    A ``bytes`` ``obj`` is taken to *be* a canonical form — what a
    message's ``signed_part()`` returns — and tagged as it is, so signing
    a message's signed part and signing the tuple it encodes are one
    signature.
    """
    return Signature(identity, _tag(registry, identity, _body(obj)))


def verify(registry: KeyRegistry, obj: Any, signature: Signature) -> bool:
    """True iff ``signature`` is a valid signature of ``obj`` by its signer
    (``obj`` read as in :func:`sign`)."""
    return hmac.compare_digest(
        _tag(registry, signature.signer, _body(obj)), signature.tag)


def signed_bytes(message: Any, fields: Tuple) -> bytes:
    """``canonical_bytes(fields)``: the signed part of ``message``, memoised
    on it.

    ``fields`` is the tuple a frozen signed message's signature covers.
    The signer walks the tuple once, ``with_signature`` hands the bytes to
    the signed copy (:func:`share_signed_part`), and the first check of
    that copy tags them without walking again; its verdict then answers
    every later check, so :func:`verify_signed` drops the bytes.  A
    decoded or rebuilt message starts without the memo and encodes its
    own fields, so a copy with a changed field never verifies under the
    original's signature.
    """
    if not _cache.enabled():
        return canonical_bytes(fields)
    attrs = message.__dict__
    part = attrs.get(SIGNED_MEMO)
    if part is None:
        part = attrs[SIGNED_MEMO] = canonical_bytes(fields)
    return part


def share_signed_part(unsigned: Any, signed: Any) -> None:
    """Give ``signed`` — ``unsigned`` with a signature over the same
    fields — ``unsigned``'s signed part as its memo."""
    if _cache.enabled():
        signed.__dict__[SIGNED_MEMO] = unsigned.signed_part()


def verify_signed(registry: KeyRegistry, message: Any) -> bool:
    """``verify(registry, message.signed_part(), message.signature)``,
    memoised on ``message``.

    For a frozen message with a ``signed_part()`` and a ``signature``
    (:class:`~repro.bcast.messages.Request`).  Every replica of a group
    checks a request's signature at admission *and* at proposal
    validation, and a relayed copy each time a certificate that carries
    it is validated — the same object each time on the simulation
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
    # the verdict answers every later check: the bytes are not needed again
    attrs.pop(SIGNED_MEMO, None)
    return verdict
