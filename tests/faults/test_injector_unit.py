"""Unit tests for the fault-op scheduler and proxy give-up behaviour."""

from __future__ import annotations

import pytest

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.env import make_runtime
from repro.faults.injector import schedule_ops
from repro.faults.nemesis import NemesisOp
from tests.helpers import FAST_COSTS, Harness

#: a hand-written plan: one crash window and one isolation window
PLAN = [
    NemesisOp(0.02, "crash", ("g1", "g1/r3"), until=0.15),
    NemesisOp(0.02, "partition", ("g2", "g2/r0"), until=0.15),
    NemesisOp(0.15, "recover", ("g1", "g1/r3"), until=0.15),
    NemesisOp(0.15, "heal", ("g2", "g2/r0"), until=0.15),
]


class TestScheduleOps:
    @pytest.mark.parametrize("backend", ["sim", "rt"])
    def test_op_list_runs_on_each_backend(self, backend):
        """The scheduler arms through the Runtime facade, so one op list
        runs unchanged on the simulated and the real-time backend."""
        runtime = make_runtime(backend, seed=0)
        try:
            dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                                    runtime=runtime, costs=FAST_COSTS)
            schedule_ops(dep, PLAN)
            replica = dep.groups["g1"].replica("g1/r3")
            blocked = runtime.transport._blocked_pairs
            dep.run(until=0.08)
            assert replica.crashed
            assert blocked == {pair for peer in ("g2/r1", "g2/r2", "g2/r3")
                               for pair in (("g2/r0", peer), (peer, "g2/r0"))}
            dep.run(until=0.3)
            assert not replica.crashed
            assert not blocked
        finally:
            runtime.close()

    def test_unknown_kind_is_rejected(self):
        dep = ByzCastDeployment(OverlayTree.two_level(["g1", "g2"]),
                                costs=FAST_COSTS)
        with pytest.raises(ValueError, match="unknown fault op kind"):
            schedule_ops(dep, [NemesisOp(0.1, "meteor", ("g1",), until=0.1)])


class TestProxyGiveUp:
    def test_retransmission_stops_after_max_retries(self):
        h = Harness()
        # Crash the whole group: nothing will ever answer.
        for replica in h.group.replicas:
            replica.crash()
        client = h.add_client(retransmit_timeout=0.05)
        client.proxy.max_retries = 3
        client.submit(("doomed",))
        h.run(until=20.0)
        assert client.results == []
        assert client.proxy.pending() == 1  # left for the owner to inspect
        # Retransmitted exactly max_retries times.
        assert h.monitor.counters.get("proxy.retransmit", 0) == 3
