"""Scenario builders: one construction path, deterministic end to end."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.bcast.config import BroadcastConfig
from repro.core.tree import OverlayTree
from repro.errors import ConfigurationError, TreeError
from repro.scenario import ScenarioSpec, build_destination_sampler, run_scenario
from repro.scenario.build import (
    build_costs,
    build_key_sampler,
    scenario_membership,
)
from repro.scenario.spec import (
    DESTINATIONS,
    KEY_DISTS,
    KINDS,
    LOOPS,
    FaultSpec,
    ProtocolSpec,
    TopologySpec,
    WorkloadSpec,
)

#: cheap two-group spec most tests run variations of
TINY = ScenarioSpec(
    name="tiny",
    topology=TopologySpec(groups=2),
    workload=WorkloadSpec(clients=3, warmup=0.3, duration=0.8),
    protocol=ProtocolSpec(costs="soak"),
)


class TestBalancedTree:
    def test_balanced_structure_16_groups(self):
        targets = [f"g{i + 1}" for i in range(16)]
        tree = OverlayTree.balanced(targets, fanout=4)
        assert set(tree.targets) == set(targets)
        # 16 leaves / fanout 4 -> 4 inner + 1 root auxiliary
        assert len(tree.nodes) == 16 + 5
        assert tree.height(tree.root) == 3
        for target in targets:
            assert tree.height(target) == 1
            assert len(tree.ancestors(target)) == 3

    def test_balanced_single_target_needs_no_auxiliary(self):
        tree = OverlayTree.balanced(["g1"])
        assert set(tree.nodes) == {"g1"}

    def test_balanced_validation(self):
        with pytest.raises(TreeError):
            OverlayTree.balanced([])
        with pytest.raises(TreeError):
            OverlayTree.balanced(["g1", "g2"], fanout=1)

    def test_spec_layouts_build(self):
        two = ScenarioSpec(name="a").build_tree()
        assert set(two.targets) == {"g1", "g2"}
        paper = ScenarioSpec(
            name="b", topology=TopologySpec(groups=4, layout="paper")
        ).build_tree()
        assert set(paper.targets) == {"g1", "g2", "g3", "g4"}
        big = ScenarioSpec(
            name="c",
            topology=TopologySpec(groups=64, layout="balanced", fanout=4),
        ).build_tree()
        assert len(big.targets) == 64

    def test_unknown_layout_rejected(self):
        from repro.scenario.build import build_tree

        with pytest.raises(ConfigurationError):
            build_tree(TopologySpec(layout="ring"))


class TestSamplers:
    """Every value of the vocabulary that lints also builds."""

    def test_every_destination_kind_builds(self):
        # four targets named g1..g4: the Table II ``skewed`` pairs need them
        spec = ScenarioSpec(name="dst", topology=TopologySpec(groups=4))
        targets = spec.target_names()
        rng = random.Random(5)
        for kind in DESTINATIONS:
            workload = WorkloadSpec(
                clients=4, destinations=kind,
                fixed=("g1", "g3") if kind == "fixed" else ())
            assert spec.with_(workload=workload).validate() == [], kind
            # ``home`` gives each client its own sampler
            for client in range(workload.clients):
                sampler = build_destination_sampler(
                    workload, targets, lambda: 0.0, client=client)
                assert set(sampler(rng)) <= set(targets), kind

    def test_every_key_dist_builds(self):
        rng = random.Random(5)
        for kind in KEY_DISTS:
            sampler = build_key_sampler(WorkloadSpec(keys=16, key_dist=kind))
            assert sampler(rng).startswith("key")

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            build_destination_sampler(
                WorkloadSpec(destinations="nope"), ["g1"], lambda: 0.0)
        with pytest.raises(ConfigurationError):
            build_key_sampler(WorkloadSpec(key_dist="nope"))
        with pytest.raises(ConfigurationError):
            build_costs(TINY.with_(protocol=ProtocolSpec(costs="free")))


class TestMembership:
    def test_matches_deployment_naming(self):
        spec = TINY.with_(topology=TopologySpec(groups=3))
        deployment = spec.build_deployment()
        assert scenario_membership(spec) == {
            gid: config.replicas
            for gid, config in deployment.group_configs.items()
        }

    def test_bftsmart_spec_reports_the_one_group_it_deploys(self):
        spec = TINY.with_(
            topology=TopologySpec(groups=4, f=2),
            workload=WorkloadSpec(destinations="fixed", fixed=("g1",)),
            protocol=ProtocolSpec(kind="bftsmart"))
        deployment = spec.build_deployment()
        assert set(spec.build_tree().nodes) == set(deployment.groups) == {"g1"}
        assert scenario_membership(spec) == {
            "g1": deployment.group_configs["g1"].replicas}
        assert len(deployment.group_configs["g1"].replicas) == 7

    def test_scales_with_f(self):
        spec = TINY.with_(topology=TopologySpec(groups=2, f=2))
        members = scenario_membership(spec)
        assert all(len(names) == 7 for names in members.values())


class TestEngineParameters:
    """Every field ``ProtocolSpec`` shares with ``BroadcastConfig`` reaches
    every group of every protocol (a copied signature once dropped two)."""

    SHARED = sorted({f.name for f in dataclasses.fields(ProtocolSpec)}
                    & {f.name for f in dataclasses.fields(BroadcastConfig)})

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_default_values_reach_every_group(self, kind):
        assert len(self.SHARED) >= 5
        changed = {}
        for name in self.SHARED:
            default = getattr(ProtocolSpec(), name)
            changed[name] = ("bench" if name == "costs" else
                             not default if isinstance(default, bool) else
                             default + 3)
        # fixed g1: the one destination every kind (bftsmart too) accepts
        spec = ScenarioSpec(name="p", protocol=ProtocolSpec(kind=kind, **changed),
                            workload=WorkloadSpec(destinations="fixed",
                                                  fixed=("g1",)))
        deployment = spec.check().build_deployment()
        configs = [group.config for group in deployment.groups.values()]
        assert configs
        for config in configs:
            for name in self.SHARED:
                want = build_costs(spec) if name == "costs" else changed[name]
                assert getattr(config, name) == want, (config.group_id, name)


class TestDeterminism:
    def test_same_spec_same_fingerprint(self):
        first = run_scenario(TINY)
        second = run_scenario(TINY)
        assert first.counters == second.counters
        assert first.throughput == second.throughput
        assert first.latency == second.latency

    def test_seed_changes_fingerprint(self):
        base = run_scenario(TINY)
        other = run_scenario(TINY.with_(seed=2))
        assert base.counters != other.counters

    def test_open_loop_deterministic(self):
        spec = TINY.with_(workload=WorkloadSpec(
            clients=3, loop="open", rate=40.0, warmup=0.3, duration=0.8))
        assert run_scenario(spec).counters == run_scenario(spec).counters

    def test_faulty_scenario_deterministic(self):
        spec = TINY.with_(
            workload=WorkloadSpec(clients=2, warmup=0.0, duration=4.0),
            protocol=ProtocolSpec(costs="soak", request_timeout=0.5,
                                  retransmit_timeout=0.5),
            faults=FaultSpec(intensity="light"),
        )
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.counters == second.counters
        assert first.completed == second.completed


class TestDrivers:
    def test_every_loop_builds_and_sends(self):
        for loop in LOOPS:
            spec = TINY.with_(name=loop, workload=WorkloadSpec(
                clients=2, loop=loop, rate=40.0, warmup=0.2, duration=0.6))
            assert spec.validate() == [], loop
            assert run_scenario(spec).sent > 0, loop

    def test_wan_spread_clients_sit_in_the_regions_round_robin(self):
        from repro.runtime.environments import REGIONS
        from repro.scenario.build import build_deployment, build_drivers

        spec = TINY.with_(
            topology=TopologySpec(groups=2, latency="wan", sites="wan_spread"),
            workload=WorkloadSpec(clients=5))
        deployment = build_deployment(spec)
        build_drivers(spec, deployment)
        assert [deployment.network.site_of(f"c{i}") for i in range(5)] == [
            *REGIONS, REGIONS[0]]

    def test_no_straggler_timers_after_horizon(self):
        """Satellite fix: drivers cancel/skip timers past ``stop_after``."""
        from repro.scenario.build import build_deployment, build_drivers

        spec = TINY.with_(workload=WorkloadSpec(
            clients=6, loop="open", rate=200.0, warmup=0.2, duration=0.6))
        deployment = build_deployment(spec)
        drivers = build_drivers(spec, deployment)
        deployment.start()
        for driver in drivers:
            driver.start()
        deployment.run(until=spec.horizon)
        assert all(driver._timer is None for driver in drivers)
        sent_at_horizon = sum(d.sent for d in drivers)
        deployment.run(until=spec.horizon + 5.0)
        assert sum(d.sent for d in drivers) == sent_at_horizon

    def test_driver_stop_cancels_pending_timer(self):
        from repro.scenario.build import build_deployment, build_drivers

        spec = TINY.with_(workload=WorkloadSpec(
            clients=1, loop="open", rate=5.0, warmup=0.0, duration=50.0))
        deployment = build_deployment(spec)
        (driver,) = build_drivers(spec, deployment)
        deployment.start()
        driver.start()
        assert driver._timer is not None
        pending_before = deployment.runtime.loop.pending
        driver.stop()
        assert driver._timer is None
        assert deployment.runtime.loop.pending < pending_before


class TestScenarioResult:
    def test_result_shape_and_row(self):
        result = run_scenario(TINY)
        assert result.name == "tiny"
        assert result.backend == "sim"
        assert result.completed > 0
        assert result.sent >= result.completed
        assert result.counters["client.amulticast"] == result.sent
        assert "tiny" in result.row()
        assert result.kv is None

    def test_kv_scenario_exposes_handle(self):
        spec = TINY.with_(
            name="kv",
            topology=TopologySpec(groups=2),
            workload=WorkloadSpec(clients=2, keys=8, warmup=0.3,
                                  duration=0.8),
            app="sharded_kv",
        )
        result = run_scenario(spec)
        assert result.kv is not None
        assert result.kv.check_consistency() == []
        assert result.completed > 0
