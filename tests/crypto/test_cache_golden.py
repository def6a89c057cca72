"""Memoisation must never change simulated behaviour — only wall-clock.

These tests run a full ByzCast deployment twice, once with the crypto/codec
caches enabled and once with them disabled, and require the *entire*
observable timeline — every trace record, every counter, every client
completion with nanosecond-rounded latency — to be identical.  A cache
that leaked a stale digest, conflated equal-but-distinct values or changed
delivery order would diverge here.
"""

from __future__ import annotations

import hashlib

from repro.core import OverlayTree
from repro.core.deployment import ByzCastDeployment
from repro.crypto import cache as cache_mod
from repro.crypto.cache import caching_disabled


def _timeline_hash(seed: int) -> str:
    tree = OverlayTree.two_level(["g1", "g2", "g3"])
    dep = ByzCastDeployment(tree, seed=seed, trace_capacity=20000)
    completions = []
    client = dep.add_client(
        "c1", on_complete=lambda m, l: completions.append((m.mid.seq, round(l, 9)))
    )
    dests = [("g1",), ("g2",), ("g1", "g2"), ("g2", "g3"), ("g1", "g2", "g3")]
    for i in range(10):
        client.amulticast(dests[i % len(dests)], payload=("tx", i))
    dep.run(until=8.0)
    lines = [
        f"{r.time:.9f}|{r.component}|{r.kind}|{sorted(r.detail)}"
        for r in dep.monitor.trace
    ]
    lines += [f"{k}={v}" for k, v in sorted(dep.monitor.counters.items())]
    lines.append(f"completions={completions}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_timeline_identical_with_and_without_caches():
    cache_mod.clear_caches()
    cached = _timeline_hash(seed=42)
    assert cache_mod.enabled()
    with caching_disabled():
        uncached = _timeline_hash(seed=42)
    assert cached == uncached


def test_caches_actually_exercised_by_a_deployment():
    """Guard against the equivalence test passing vacuously."""
    cache_mod.clear_caches()
    _timeline_hash(seed=7)
    stats = cache_mod.cache_stats()
    assert stats["canonical"]["hits"] > 0
    assert stats["digest"]["hits"] > 0
