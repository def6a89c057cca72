"""Unit tests for workload specs and the closed-loop driver."""

from __future__ import annotations

import random

import pytest

from repro.errors import WorkloadError
from repro.types import destination
from repro.workload.spec import (
    fixed_destination,
    local_uniform,
    mixed_ratio,
    skewed_pairs,
    table2_skewed_demand,
    table2_uniform_demand,
    uniform_pairs,
)

TARGETS = ["g1", "g2", "g3", "g4"]


class TestSamplers:
    def test_fixed(self):
        sampler = fixed_destination("g1", "g2")
        assert sampler(random.Random(0)) == destination("g1", "g2")

    def test_local_uniform_covers_all_targets(self):
        sampler = local_uniform(TARGETS)
        rng = random.Random(7)
        seen = {next(iter(sampler(rng))) for _ in range(500)}
        assert seen == set(TARGETS)
        for _ in range(50):
            assert len(sampler(rng)) == 1

    def test_uniform_pairs_covers_all_pairs(self):
        sampler = uniform_pairs(TARGETS)
        rng = random.Random(7)
        seen = {sampler(rng) for _ in range(1000)}
        assert len(seen) == 6
        counts = {}
        for _ in range(6000):
            counts[sampler(rng)] = counts.get(sampler(rng), 0) + 1
        assert min(counts.values()) > 600  # roughly uniform

    def test_skewed_pairs_limited(self):
        sampler = skewed_pairs()
        rng = random.Random(7)
        seen = {sampler(rng) for _ in range(200)}
        assert seen == {destination("g1", "g2"), destination("g3", "g4")}

    def test_mixed_ratio_roughly_10_to_1(self):
        sampler = mixed_ratio(local_uniform(TARGETS), uniform_pairs(TARGETS))
        rng = random.Random(7)
        samples = [sampler(rng) for _ in range(11000)]
        global_count = sum(1 for d in samples if len(d) > 1)
        assert 700 <= global_count <= 1300  # expectation: 1000

    def test_validation(self):
        with pytest.raises(WorkloadError):
            local_uniform([])
        with pytest.raises(WorkloadError):
            uniform_pairs(["g1"])
        with pytest.raises(WorkloadError):
            skewed_pairs([])
        with pytest.raises(WorkloadError):
            mixed_ratio(local_uniform(TARGETS), uniform_pairs(TARGETS), 0, 0)


class TestTable2Demands:
    def test_uniform_demand(self):
        demand = table2_uniform_demand()
        assert len(demand) == 6
        assert all(rate == 1200.0 for rate in demand.values())
        assert sum(demand.values()) == 7200.0

    def test_skewed_demand(self):
        demand = table2_skewed_demand()
        assert demand == {
            destination("g1", "g2"): 9000.0,
            destination("g3", "g4"): 9000.0,
        }


class TestClosedLoopDriver:
    def test_driver_end_to_end(self):
        """The driver keeps exactly one message in flight per client."""
        from repro.core.deployment import ByzCastDeployment
        from repro.core.tree import OverlayTree
        from repro.metrics.collector import LatencyCollector, ThroughputMeter
        from repro.workload.clients import ClosedLoopDriver
        from tests.helpers import FAST_COSTS

        tree = OverlayTree.two_level(TARGETS)
        dep = ByzCastDeployment(tree, costs=FAST_COSTS)
        client = dep.add_client("c1")
        collector = LatencyCollector(0.0, 2.0)
        meter = ThroughputMeter(0.5, 2.0)
        local = LatencyCollector(0.0, 2.0)
        glob = LatencyCollector(0.0, 2.0)
        driver = ClosedLoopDriver(
            client,
            mixed_ratio(local_uniform(TARGETS), uniform_pairs(TARGETS)),
            rng=random.Random(3),
            collector=collector,
            meter=meter,
            local_collector=local,
            global_collector=glob,
            stop_after=1.8,
        )
        dep.start()
        driver.start()
        dep.run(until=2.5)
        assert driver.completed >= driver.sent - 1
        assert driver.completed > 10
        assert collector.count() == len(local.in_window()) + len(glob.in_window())
        assert meter.completions > 0
        assert client.pending() <= 1


class TestZipfianLocal:
    def test_skews_toward_first_targets(self):
        import random as _random
        from repro.workload.spec import zipfian_local

        sampler = zipfian_local(TARGETS, s=1.2)
        rng = _random.Random(11)
        counts = {}
        for _ in range(4000):
            shard = next(iter(sampler(rng)))
            counts[shard] = counts.get(shard, 0) + 1
        assert counts["g1"] > counts["g2"] > counts["g4"]
        assert counts["g1"] > 2 * counts["g4"]

    def test_zero_exponent_is_uniform(self):
        import random as _random
        from repro.workload.spec import zipfian_local

        sampler = zipfian_local(TARGETS, s=0.0)
        rng = _random.Random(11)
        counts = {}
        for _ in range(8000):
            shard = next(iter(sampler(rng)))
            counts[shard] = counts.get(shard, 0) + 1
        mean = 8000 / 4
        assert all(abs(c - mean) / mean < 0.15 for c in counts.values())

    def test_validation(self):
        from repro.errors import WorkloadError
        from repro.workload.spec import zipfian_local

        with pytest.raises(WorkloadError):
            zipfian_local([])
        with pytest.raises(WorkloadError):
            zipfian_local(TARGETS, s=-1)


class TestHotspotPairs:
    """The adaptive-tree ablation's shifting skew, on a stub clock."""

    GROUPS = [f"g{i}" for i in range(1, 9)]
    FRONT, BACK = GROUPS[:4], GROUPS[4:]

    def draws(self, at: float, count: int = 400, seed: int = 5):
        from repro.workload.spec import hotspot_pairs

        sampler = hotspot_pairs(self.GROUPS, clock=lambda: at)
        rng = random.Random(seed)
        return [sampler(rng) for _ in range(count)]

    def hot_ranks(self, draws):
        """(front rank, back rank) of every cross-half pair drawn."""
        ranks = []
        for dst in draws:
            if len(dst) == 2:
                (front,), (back,) = dst & set(self.FRONT), dst & set(self.BACK)
                ranks.append((self.FRONT.index(front), self.BACK.index(back)))
        return ranks

    def test_one_window_pairs_front_r_with_back_r(self):
        from repro.workload.spec import HOT_PERIOD

        for at in (0.0, HOT_PERIOD / 2, HOT_PERIOD - 1e-6):
            ranks = self.hot_ranks(self.draws(at))
            assert ranks
            assert all(b == r for r, b in ranks)

    def test_next_window_pairs_front_r_with_the_next_back(self):
        from repro.workload.spec import HOT_PERIOD

        for at in (HOT_PERIOD, 1.5 * HOT_PERIOD, 2 * HOT_PERIOD - 1e-6):
            ranks = self.hot_ranks(self.draws(at))
            assert ranks
            assert all(b == (r + 1) % len(self.BACK) for r, b in ranks)

    def test_cross_half_share_is_the_hot_weight(self):
        from repro.workload.spec import HOT_WEIGHT

        draws = self.draws(0.0, count=2000, seed=11)
        assert all(len(dst) in (1, 2) for dst in draws)
        share = len(self.hot_ranks(draws)) / len(draws)
        assert abs(share - HOT_WEIGHT) <= 0.03
