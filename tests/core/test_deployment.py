"""Unit tests for the ByzCast deployment builder."""

from __future__ import annotations

import pytest

from repro.core.deployment import ByzCastDeployment
from repro.core.tree import OverlayTree
from repro.errors import NetworkError
from tests.helpers import FAST_COSTS


def make(tree=None, **kwargs):
    tree = tree if tree is not None else OverlayTree.paper_tree()
    kwargs.setdefault("costs", FAST_COSTS)
    return ByzCastDeployment(tree, **kwargs)


class TestConstruction:
    def test_builds_one_group_per_tree_node(self):
        dep = make()
        assert set(dep.groups) == {"h1", "h2", "h3", "g1", "g2", "g3", "g4"}
        for group in dep.groups.values():
            assert len(group.replicas) == 4

    def test_replica_names_are_namespaced(self):
        dep = make()
        assert dep.group_configs["g1"].replicas == (
            "g1/r0", "g1/r1", "g1/r2", "g1/r3"
        )

    def test_sites_assignment(self):
        sites = {}

        def assigner(gid, index):
            sites[(gid, index)] = f"region{index}"
            return f"region{index}"

        dep = make(sites=assigner)
        assert dep.network.site_of("g1/r0") == "region0"
        assert dep.network.site_of("g1/r3") == "region3"

    def test_specs_override_per_group(self):
        dep = make(request_timeout=0.5, specs={"h1": {"f": 2}})
        assert dep.group_configs["h1"].n == 7
        assert dep.group_configs["g1"].n == 4
        # an override layers on the deployment-wide engine arguments
        assert dep.group_configs["h1"].request_timeout == 0.5
        assert dep.group_configs["h1"].costs is FAST_COSTS

    def test_unknown_engine_argument_is_a_type_error_naming_it(self):
        with pytest.raises(TypeError, match="max_inflight"):
            make(max_inflight=2)
        with pytest.raises(TypeError, match="checkpoint_every"):
            make(specs={"h1": {"checkpoint_every": 8}})

    def test_duplicate_client_name_rejected(self):
        dep = make()
        dep.add_client("c1")
        with pytest.raises(NetworkError):
            dep.add_client("c1")

    def test_client_name_colliding_with_replica_rejected(self):
        dep = make()
        with pytest.raises(NetworkError):
            dep.add_client("g1/r0")

    def test_run_is_idempotent_start(self):
        dep = make()
        dep.start()
        dep.start()
        dep.run(until=0.1)
        dep.run(until=0.2)
        assert dep.runtime.clock.now == pytest.approx(0.2)


class TestAccessors:
    def test_apps_and_delivered_sequences(self):
        from repro.types import destination

        dep = make()
        client = dep.add_client("c1")
        client.amulticast(destination("g1"), payload=("x",))
        dep.run(until=5.0)
        apps = dep.apps("g1")
        assert len(apps) == 4
        sequences = dep.delivered_sequences("g1")
        assert all(len(seq) == 1 for seq in sequences)

    def test_group_accessor(self):
        dep = make()
        assert dep.group("h1").group_id == "h1"
        with pytest.raises(KeyError):
            dep.group("nope")
