"""Cryptographic substrate (simulation-grade but honest).

The protocols only require three properties from cryptography (§II-A):
message digests, authenticated channels (MACs), and unforgeable signatures.
We implement them with BLAKE2b from :mod:`hashlib` — plain for digests,
keyed (the MAC mode of RFC 7693) for MACs and signature tags — over
per-identity secret keys held in a
:class:`~repro.crypto.keys.KeyRegistry`.  Within a simulation
the unforgeability guarantee is real: a Byzantine actor can only produce
signatures for identities whose secret key it holds, so fabricated messages
fail verification at correct replicas exactly as they would in a deployment.

Computational cost of crypto is modelled separately as CPU service time in
the performance model — these functions are for *correctness*, the cost
knobs are in :mod:`repro.runtime.environments`.
"""

from repro.crypto.cache import (
    cache_stats,
    caching_disabled,
    clear_caches,
    configure as configure_caching,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.digest import digest, canonical_bytes
from repro.crypto.signatures import Signature, sign, verify
from repro.crypto.mac import mac, verify_mac, mac_vector, verify_mac_vector

__all__ = [
    "KeyRegistry",
    "digest",
    "canonical_bytes",
    "Signature",
    "sign",
    "verify",
    "mac",
    "verify_mac",
    "mac_vector",
    "verify_mac_vector",
    "cache_stats",
    "caching_disabled",
    "clear_caches",
    "configure_caching",
]
