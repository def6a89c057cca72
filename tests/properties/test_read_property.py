"""Properties of the unordered read tier (docs/READS.md).

* **Interleaving** — for arbitrary seeds and write/read interleavings,
  with or without a nemesis schedule running, every read resolves exactly
  once (accepted or fallen back, never both, never lost), accepted cids
  are monotone per (group, mode), and accepted values are states some
  correct replica actually reached.  Fallbacks resolve through the
  ordered path, so they inherit linearizability from atomic multicast.
* **Consensus-free** — a read-only workload never starts a consensus
  instance: at pipeline depth 1 and 4 alike, the decided and executed
  journals stay write-only (empty) no matter how many reads are served.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.env import make_runtime
from repro.env.chaos import install_chaos
from repro.faults.nemesis import NemesisSchedule
from repro.types import destination
from tests.bcast.test_reads import add_read_client
from tests.helpers import FAST_COSTS, Harness, make_config

DEPTHS = (1, 4)


@st.composite
def interleavings(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    # "wwr" biases 2:1 toward writes so reads race genuine progress.
    ops = draw(st.lists(st.sampled_from("wwr"), min_size=4, max_size=12))
    chaos = draw(st.booleans())
    return seed, ops, chaos


@given(interleavings())
@settings(max_examples=8, deadline=None)
def test_interleaved_reads_resolve_once_monotone_and_safe(plan):
    seed, ops, chaos = plan
    runtime = make_runtime("sim", seed=seed)
    dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                            runtime=runtime, costs=FAST_COSTS,
                            request_timeout=0.5)
    horizon = 0.0
    if chaos:
        install_chaos(runtime)
        schedule = NemesisSchedule.for_deployment(dep, seed=seed,
                                                  duration=3.0)
        schedule.apply(dep)
        horizon = schedule.horizon
    client = dep.add_client("c1", retransmit_timeout=0.5)
    client._read_proxy("g1").read_timeout = 0.25
    writes = reads = 0
    for index, op in enumerate(ops):
        if op == "w":
            client.amulticast(destination("g1"), payload=("op", index))
            writes += 1
        else:
            client.aread("g1", payload=("peek",))
            reads += 1
    dep.run(until=max(horizon, 5.0))
    runtime.run_until(lambda: client.pending() == 0, timeout=60.0)
    assert client.pending() == 0

    # Exactly-once resolution: accepted + fallback partition the reads.
    assert client.reads_issued == reads
    assert len(client.read_log) == reads
    assert client.reads_accepted + client.reads_fallback == reads

    floors = {}
    for outcome in client.read_log:
        if outcome.fallback:
            # Ordered-path resolution: no quorum vouched for a cid.
            assert outcome.cid == -1
            assert outcome.voters == frozenset()
            continue
        key = (outcome.group, outcome.mode)
        assert outcome.cid >= floors.get(key, -1), "read cid regressed"
        floors[key] = outcome.cid
        assert len(outcome.voters) >= 2  # f + 1 with f = 1
        # The default app serves its a-delivery count: any accepted value
        # must be a prefix length the group can actually have reached
        # (writes plus the ordered ``peek`` commands fallbacks inject).
        tag, count = outcome.result
        assert tag == "deliveries"
        assert 0 <= count <= writes + reads
    runtime.close()


@given(seed=st.integers(min_value=0, max_value=10_000),
       n_reads=st.integers(min_value=2, max_value=6))
@settings(max_examples=6, deadline=None)
def test_read_only_workload_leaves_journals_write_only(seed, n_reads):
    for depth in DEPTHS:
        h = Harness(seed=seed, config=make_config(max_in_flight=depth))
        client = add_read_client(h)
        h.run(until=0.01)
        for _ in range(n_reads):
            client.read()
        h.loop.run(until=10.0)
        assert client.exhausted == 0
        assert len(client.accepted) == n_reads
        for cid, result, voters in client.accepted:
            assert cid == -1          # nothing was ever applied
            assert result == ("executed", 0)
            assert len(voters) >= h.config.f + 1
        # Reads bypass consensus entirely: no instance was ever started,
        # decided, or executed on any replica, at either pipeline depth.
        for replica in h.group.replicas:
            assert list(replica.log.decided_order) == []
            assert list(replica.log.executed_order) == []
            assert replica.log.next_execute == 0
            assert replica.app.executed == []
            assert len(replica.read_journal) >= n_reads
