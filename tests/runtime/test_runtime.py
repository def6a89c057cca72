"""Tests for environments, the three protocol kinds, and capacity probing."""

from __future__ import annotations

import random

import pytest

from repro.runtime.environments import (
    REGIONS,
    TABLE1_RTT_MS,
    bench_batch_delay,
    bench_costs,
    calibrated_costs,
    lan_latency_model,
    scale_costs,
    wan_latency_model,
    wan_site_assigner,
)
from repro.runtime.capacity import (
    estimate_relay_capacity,
    estimate_target_capacity,
    plan_tree,
)
from repro.runtime.scenarios import lan_cell
from repro.scenario import ProtocolSpec, ScenarioSpec, WorkloadSpec


class TestEnvironments:
    def test_scale_costs_multiplies_every_field(self):
        base = calibrated_costs()
        scaled = scale_costs(base, 10)
        assert scaled.propose_fixed == pytest.approx(base.propose_fixed * 10)
        assert scaled.vote_recv == pytest.approx(base.vote_recv * 10)
        assert scaled.relay_per_dest == pytest.approx(base.relay_per_dest * 10)

    def test_bench_costs_default_scale(self):
        assert bench_costs().propose_fixed == pytest.approx(
            calibrated_costs().propose_fixed * 10
        )

    def test_bench_batch_delay_scales(self):
        assert bench_batch_delay(1.0) == pytest.approx(0.0002)
        assert bench_batch_delay(10.0) == pytest.approx(0.002)

    def test_wan_latency_model_matches_table1(self):
        model = wan_latency_model(jitter=0.0)
        rng = random.Random(0)
        for (a, b), rtt_ms in TABLE1_RTT_MS.items():
            one_way = model.delay(a, b, rng)
            assert one_way == pytest.approx(rtt_ms / 2 / 1000)
            assert model.delay(b, a, rng) == pytest.approx(one_way)

    def test_wan_sites_cover_all_regions(self):
        sites = {wan_site_assigner("g1", i) for i in range(4)}
        assert sites == set(REGIONS)

    def test_lan_config_has_sub_ms_latency(self):
        model = lan_latency_model(jitter=0.0)
        rng = random.Random(0)
        assert model.delay("site0", "site0", rng) < 0.001


class TestExperimentRunners:
    def test_byzcast_kind_produces_result(self):
        result = lan_cell("t", "byzcast", 4, 2, "mixed", 0.2, 1.0)
        assert result.protocol == "byzcast"
        assert result.clients == 2
        assert result.throughput > 0
        assert result.latency.count == len(result.samples)
        # Per-class splits partition the samples.
        assert len(result.samples) == (
            len(result.local_samples) + len(result.global_samples)
        )
        assert result.local_latency.mean < result.global_latency.mean

    def test_baseline_and_bftsmart_kinds(self):
        base = lan_cell("t", "baseline", 4, 1, "local", 0.2, 1.0)
        smart = lan_cell("t", "bftsmart", 4, 1, "fixed", 0.2, 1.0,
                         fixed=("g1",))
        assert base.protocol == "baseline"
        assert smart.protocol == "bftsmart"
        # Baseline pays double ordering even at a single client.
        assert base.latency.mean > 1.5 * smart.latency.mean


class TestCapacityProbe:
    def test_target_capacity_positive_and_exceeds_relay(self):
        # tiny probes; exact values as recorded at 2fca3e9 (pre-ScenarioSpec),
        # the relay one re-recorded (4000 -> 4400) when a child began to
        # order each relayed batch once, as a relay certificate, and
        # (4400 -> 4800) when a relayer was charged only for the copies it
        # sends live: 2f+1 destinations in the quorum, none outside it
        target = estimate_target_capacity(clients=40, warmup=0.5, duration=1.0)
        relay = estimate_relay_capacity(clients=40, warmup=0.5, duration=1.0)
        assert (target, relay) == (9600.0, 4800.0)
        assert relay < target  # relaying costs extra

    def test_plan_tree_uses_given_capacities(self):
        from repro.workload.spec import table2_skewed_demand

        evaluation = plan_tree(
            table2_skewed_demand(),
            targets=("g1", "g2", "g3", "g4"),
            auxiliaries=("h1", "h2", "h3"),
            aux_capacity=9500.0,
            target_capacity=19500.0,
        )
        assert evaluation.feasible
        # The skewed workload forces the 3-level split.
        assert evaluation.tree.lca({"g1", "g2"}) != evaluation.tree.root


class TestOpenLoopDriver:
    def test_open_loop_injects_roughly_target_rate(self):
        result = ScenarioSpec(
            name="open",
            workload=WorkloadSpec(clients=1, loop="open", rate=100.0,
                                  destinations="fixed", fixed=("g1",),
                                  warmup=0.5, duration=2.5),
            protocol=ProtocolSpec(costs="soak"),
        ).run()
        assert 60 <= result.throughput <= 140  # ~100 m/s Poisson

    def test_open_loop_rejects_bad_rate(self):
        from repro.workload.clients import OpenLoopDriver

        with pytest.raises(ValueError):
            OpenLoopDriver(None, None, random.Random(0), rate=0.0)
