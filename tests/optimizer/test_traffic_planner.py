"""Unit tests of the adaptation loop's observe and decide stages.

:class:`~repro.optimizer.traffic.TrafficCollector` (observe) and
:class:`~repro.optimizer.planner.TreePlanner` / ``replan`` (decide) are
exercised in isolation here — a stub controller stands in for the switch
machinery, so every policy clause (min-samples gate, hysteresis, cooldown,
sliding demand window, oscillation-freedom) is pinned without running a
deployment.  The switch stage itself is covered end-to-end by the chaos
soak and the tree-switch property suite.
"""

from __future__ import annotations

import pytest

from repro.core.tree import OverlayTree
from repro.env.monitor import Monitor
from repro.optimizer.model import weighted_height
from repro.optimizer.planner import TreePlanner, replan
from repro.optimizer.traffic import TrafficCollector


def hot(*groups: str) -> frozenset:
    return frozenset(groups)


# ----------------------------------------------------------- TrafficCollector


class TestTrafficCollector:
    def test_ring_is_bounded(self):
        collector = TrafficCollector(capacity=4)
        for i in range(10):
            collector.note(["g1"], hops=1)
        assert collector.sample_count() == 4
        assert collector.noted == 10  # lifetime count survives eviction

    def test_demand_and_mean_hops_honour_since(self):
        times = [0.0]
        collector = TrafficCollector(clock=lambda: times[0])
        collector.note(["g1", "g2"], hops=3)
        times[0] = 5.0
        collector.note(["g1"], hops=1)
        collector.note(["g1"], hops=1)
        assert collector.demand() == {hot("g1", "g2"): 1.0, hot("g1"): 2.0}
        assert collector.demand(since=1.0) == {hot("g1"): 2.0}
        assert collector.mean_hops() == pytest.approx(5 / 3)
        assert collector.mean_hops(since=1.0) == pytest.approx(1.0)

    def test_skew_is_heaviest_share(self):
        collector = TrafficCollector()
        for __ in range(3):
            collector.note(["g1", "g2"], hops=3)
        collector.note(["g3"], hops=1)
        assert collector.skew() == pytest.approx(0.75)

    def test_reset_clears_ring(self):
        collector = TrafficCollector()
        collector.note(["g1"], hops=1)
        collector.reset()
        assert collector.sample_count() == 0
        assert collector.demand() == {}
        assert collector.mean_hops() == 0.0

    def test_publish_refreshes_gauges(self):
        collector = TrafficCollector()
        collector.note(["g1", "g2"], hops=3)
        monitor = Monitor()
        collector.publish(monitor)
        assert monitor.gauges["tree.hops"] == 3.0
        assert monitor.gauges["tree.skew"] == 1.0


# ---------------------------------------------------------------- replan


TARGETS = [f"g{i}" for i in range(1, 9)]


def balanced() -> OverlayTree:
    # h1 over g1-g4, h2 over g5-g8, root h3
    return OverlayTree.balanced(TARGETS, fanout=4)


class TestReplan:
    def test_colocates_hot_cross_bin_pairs(self):
        tree = balanced()
        demand = {hot("g1", "g5"): 10.0, hot("g2", "g6"): 8.0}
        candidate = replan(tree, demand)
        assert candidate is not None
        assert candidate.parent("g1") == candidate.parent("g5")
        assert candidate.parent("g2") == candidate.parent("g6")
        # hop cost strictly improves for the observed profile
        assert weighted_height(candidate, demand) < weighted_height(
            tree, demand)
        # shape is preserved: same nodes, same auxiliary skeleton
        assert set(candidate.nodes) == set(tree.nodes)
        assert candidate.targets == tree.targets

    def test_stationary_profile_is_a_fixed_point(self):
        demand = {hot("g1", "g5"): 10.0, hot("g3"): 2.0}
        first = replan(balanced(), demand)
        second = replan(first, demand)
        assert second.parent_edges() == first.parent_edges()

    def test_two_level_tree_not_replannable(self):
        tree = OverlayTree.two_level(["g1", "g2", "g3"])
        assert replan(tree, {hot("g1", "g2"): 5.0}) is None

    def test_unknown_group_in_demand_rejected(self):
        assert replan(balanced(), {hot("g1", "nope"): 5.0}) is None

    def test_deterministic_for_equal_profiles(self):
        demand = {hot("g1", "g6"): 4.0, hot("g2", "g7"): 4.0,
                  hot("g4", "g8"): 4.0}
        edges = {replan(balanced(), dict(demand)).parent_edges()
                 for __ in range(5)}
        assert len(edges) == 1


# ---------------------------------------------------------------- TreePlanner


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.scheduled = []

    def schedule(self, delay, fn):
        self.scheduled.append((self.now + delay, fn))


class FakeController:
    """Stands in for ElasticityController: records switches, stays idle."""

    def __init__(self, tree: OverlayTree):
        class _Dep:
            pass
        self.deployment = _Dep()
        self.deployment.tree = tree
        self.clock = FakeClock()
        self.monitor = Monitor()
        self.switched_to = []
        self._idle = True

    def idle(self):
        return self._idle

    def tree_update(self, tree):
        self.switched_to.append(tree)
        self.deployment.tree = tree


def make_planner(**kwargs) -> TreePlanner:
    controller = FakeController(balanced())
    collector = TrafficCollector(clock=lambda: controller.clock.now)
    defaults = dict(interval=0.5, min_samples=4, cooldown=2.0)
    defaults.update(kwargs)
    return TreePlanner(controller, collector, **defaults)


def feed(planner: TreePlanner, demand, count: int = 4) -> None:
    for dst, hops in demand:
        for __ in range(count):
            planner.collector.note(dst, hops)


class TestTreePlanner:
    def test_switches_when_savings_cross_hysteresis(self):
        planner = make_planner()
        feed(planner, [(["g1", "g5"], 3)], count=10)
        planner._decide()
        assert planner.switches == 1
        assert len(planner.controller.switched_to) == 1
        # switch resets the collector and arms the cooldown
        assert planner.collector.sample_count() == 0
        assert planner._cooldown_until == pytest.approx(2.0)

    def test_holds_when_savings_stay_below_hysteresis(self):
        planner = make_planner()
        planner.hysteresis = 2.0
        feed(planner, [(["g1", "g5"], 3)], count=10)
        planner._decide()
        assert planner.switches == 0
        (__, verdict, current, candidate), = planner.decisions
        assert verdict == "hold"
        assert 1.2 <= current / candidate < 2.0

    def test_holds_below_min_samples(self):
        planner = make_planner(min_samples=50)
        feed(planner, [(["g1", "g5"], 3)], count=10)
        planner._decide()
        assert planner.switches == 0
        assert planner.decisions == []  # gate fires before scoring

    def test_holds_while_controller_busy(self):
        planner = make_planner()
        planner.controller._idle = False
        feed(planner, [(["g1", "g5"], 3)], count=10)
        planner._decide()
        assert planner.switches == 0

    def test_cooldown_suppresses_back_to_back_switches(self):
        planner = make_planner()
        feed(planner, [(["g1", "g5"], 3)], count=10)
        planner._decide()
        # new profile immediately after the switch: inside the cooldown
        # ((g2, g7) stays cross-bin on the adapted tree)
        planner.controller.clock.now = 1.0
        feed(planner, [(["g2", "g7"], 3)], count=10)
        planner._decide()
        assert planner.switches == 1
        # past the cooldown the same profile is acted on
        planner.controller.clock.now = 2.5
        planner._decide()
        assert planner.switches == 2

    def test_stationary_load_never_oscillates(self):
        planner = make_planner(cooldown=0.0)
        feed(planner, [(["g1", "g5"], 3), (["g2"], 1)], count=10)
        planner._decide()
        assert planner.switches == 1
        # the adapted tree serves the same profile at 2 hops now
        for tick in range(2, 8):
            planner.controller.clock.now = tick * 0.5
            feed(planner, [(["g1", "g5"], 2), (["g2"], 1)], count=10)
            planner._decide()
        assert planner.switches == 1
        assert all(verdict == "hold"
                   for __, verdict, *rest in planner.decisions[1:])

    def test_window_forgets_stale_profile_after_migration(self):
        """A workload shift must not be diluted by pre-shift history: only
        the sliding window's demand is scored, so the planner re-adapts
        even when the ring still holds the old profile."""
        planner = make_planner(window=2.0, cooldown=0.0)
        feed(planner, [(["g1", "g5"], 3)], count=30)
        planner._decide()
        assert planner.switches == 1
        # long stationary stretch on the adapted tree
        planner.controller.clock.now = 1.0
        feed(planner, [(["g1", "g5"], 2)], count=30)
        planner._decide()
        assert planner.switches == 1
        # migration: the hot pair moves to one still split across bins;
        # old samples age out of the window
        planner.controller.clock.now = 4.0
        feed(planner, [(["g2", "g7"], 3)], count=30)
        planner._decide()
        assert planner.switches == 2
        new_tree = planner.controller.switched_to[-1]
        assert new_tree.parent("g2") == new_tree.parent("g7")

    def test_tick_publishes_gauges_and_reschedules(self):
        planner = make_planner()
        feed(planner, [(["g1", "g5"], 3)], count=2)
        planner.start()
        fired_at, tick = planner.controller.clock.scheduled[0]
        assert fired_at == pytest.approx(0.5)
        planner.controller.clock.now = 0.5
        tick()
        assert planner.monitor.gauges["tree.hops"] == 3.0
        assert len(planner.controller.clock.scheduled) == 2
        planner.stop()
        planner.controller.clock.scheduled[1][1]()
        assert len(planner.controller.clock.scheduled) == 2  # no re-arm
