"""Scenario schema: round-trip property, strict parsing, linting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.scenario.spec import (
    BACKENDS,
    COSTS,
    DESTINATIONS,
    INTENSITIES,
    KEY_DISTS,
    KINDS,
    LATENCIES,
    LAYOUTS,
    LOOPS,
    SITES,
    FaultSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

_rates = st.floats(min_value=0.001, max_value=10_000.0,
                   allow_nan=False, allow_infinity=False)
_times = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def scenario_specs(draw):
    """Arbitrary specs over the schema — valid or not, all must round-trip."""
    topology = TopologySpec(
        groups=draw(st.integers(min_value=1, max_value=64)),
        layout=draw(st.sampled_from(LAYOUTS)),
        fanout=draw(st.integers(min_value=2, max_value=16)),
        f=draw(st.integers(min_value=1, max_value=3)),
        latency=draw(st.sampled_from(LATENCIES)),
        sites=draw(st.sampled_from(SITES)),
    )
    workload = WorkloadSpec(
        clients=draw(st.integers(min_value=1, max_value=512)),
        client_prefix=draw(st.sampled_from(["c", "bench-c"])),
        loop=draw(st.sampled_from(LOOPS)),
        rate=draw(_rates),
        destinations=draw(st.sampled_from(DESTINATIONS)),
        fixed=draw(st.sampled_from([(), ("g1",), ("g1", "g2")])),
        local_parts=draw(st.integers(min_value=0, max_value=20)),
        global_parts=draw(st.integers(min_value=0, max_value=20)),
        warmup=draw(_times),
        duration=draw(_rates),
        keys=draw(st.integers(min_value=1, max_value=4096)),
        key_dist=draw(st.sampled_from(KEY_DISTS)),
        kv_cross_ratio=draw(st.floats(min_value=0.0, max_value=1.0)),
        kv_read_ratio=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    protocol = ProtocolSpec(
        kind=draw(st.sampled_from(KINDS)),
        max_batch=draw(st.integers(min_value=1, max_value=1000)),
        batch_delay=draw(_times),
        adaptive_batching=draw(st.booleans()),
        request_timeout=draw(_rates),
        retransmit_timeout=draw(_rates),
        checkpoint_interval=draw(st.integers(min_value=0, max_value=512)),
        max_in_flight=draw(st.integers(min_value=1, max_value=16)),
        costs=draw(st.sampled_from(COSTS)),
    )
    faults = draw(st.one_of(st.none(), st.builds(
        FaultSpec,
        intensity=st.sampled_from(INTENSITIES),
        settle=_times,
    )))
    return ScenarioSpec(
        name=draw(st.sampled_from(["s", "scale-16", "kv soak"])),
        topology=topology,
        workload=workload,
        protocol=protocol,
        faults=faults,
        app=draw(st.sampled_from(["none", "sharded_kv"])),
        backend=draw(st.sampled_from(BACKENDS)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


class TestRoundTrip:
    @given(scenario_specs())
    @settings(max_examples=120, deadline=None)
    def test_dict_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @given(scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_save_load_round_trip(self, tmp_path):
        spec = ScenarioSpec(name="disk")
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ScenarioSpec.load(path) == spec


class TestStrictParsing:
    def test_unknown_top_level_key_rejected(self):
        raw = ScenarioSpec(name="s").to_dict()
        raw["nemesis"] = {}
        with pytest.raises(ConfigurationError, match="nemesis"):
            ScenarioSpec.from_dict(raw)

    def test_unknown_section_key_rejected(self):
        for section, key, value in (
                ("workload", "ratee", 5.0),
                # the schema-6 knobs that are constants since schema 7
                ("topology", "names", []),
                ("topology", "prefix", "g"),
                ("workload", "think_time", 0.0),
                ("workload", "zipf_s", 1.0),
                ("workload", "hotspot_weight", 0.9),
                ("workload", "hotspot_period", 4.0),
                ("protocol", "read_timeout", 1.0),
                ("protocol", "adapt_hysteresis", 1.2),
                ("faults", "seed", 0),
                ("faults", "duration", 0.0)):
            raw = ScenarioSpec(name="s", faults=FaultSpec()).to_dict()
            raw[section][key] = value
            with pytest.raises(ConfigurationError,
                               match=rf"unknown key\(s\) \['{key}'\]"):
                ScenarioSpec.from_dict(raw)

    @pytest.mark.parametrize("document, key, expected", [
        ({"topology": {"groups": "4"}}, "topology.groups", "an int"),
        ({"seed": "abc"}, "seed", "an int"),
        ({"workload": {"clients": 2.5}}, "workload.clients", "an int"),
        ({"protocol": {"max_in_flight": True}}, "protocol.max_in_flight",
         "an int"),
        ({"workload": {"rate": True}}, "workload.rate", "a number"),
        ({"workload": {"fixed": ["g1", 2]}}, "workload.fixed",
         "a list of strings"),
        ({"workload": {"loop": 1}}, "workload.loop", "a string"),
        ({"backend": 5}, "backend", "a string"),
        ({"protocol": {"adaptive_batching": 1}},
         "protocol.adaptive_batching", "a bool"),
    ], ids=lambda value: value if isinstance(value, str) else None)
    def test_mistyped_value_rejected(self, document, key, expected):
        with pytest.raises(ConfigurationError,
                           match=rf"^{key} must be {expected}, got "):
            ScenarioSpec.from_dict({"schema": 7, "name": "x", **document})

    def test_typed_values_accepted(self):
        spec = ScenarioSpec.from_dict({
            "name": "x", "seed": 3,
            "workload": {"rate": 50, "fixed": ["g1"], "clients": 2},
            "protocol": {"adaptive_batching": True},
        })
        assert (spec.seed, spec.workload.rate, spec.workload.fixed) \
            == (3, 50, ("g1",))
        assert spec.protocol.adaptive_batching is True

    def test_name_required(self):
        with pytest.raises(ConfigurationError, match="name"):
            ScenarioSpec.from_dict({})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            ScenarioSpec.from_json("{nope")

    def test_sections_default_when_omitted(self):
        spec = ScenarioSpec.from_dict({"name": "bare"})
        assert spec == ScenarioSpec(name="bare")
        assert spec.faults is None


class TestValidation:
    def test_defaults_are_valid(self):
        assert ScenarioSpec(name="ok").validate() == []

    def test_bad_axis_values_reported(self):
        spec = ScenarioSpec(
            name="bad",
            topology=TopologySpec(layout="ring", latency="5g"),
            workload=WorkloadSpec(loop="semi", destinations="everywhere"),
            protocol=ProtocolSpec(costs="free"),
        )
        problems = "\n".join(spec.validate())
        for fragment in ("ring", "5g", "semi", "everywhere", "free"):
            assert fragment in problems

    def test_global_needs_two_targets(self):
        spec = ScenarioSpec(
            name="lonely",
            topology=TopologySpec(groups=1),
            workload=WorkloadSpec(destinations="global"),
        )
        assert any("two target" in p for p in spec.validate())
        # a purely local workload over one group is fine
        local = spec.with_(workload=WorkloadSpec(destinations="local"))
        assert local.validate() == []

    def test_paper_layout_pins_targets(self):
        spec = ScenarioSpec(
            name="p", topology=TopologySpec(groups=7, layout="paper"))
        assert any("paper" in p for p in spec.validate())

    def test_kv_needs_enough_keys(self):
        spec = ScenarioSpec(
            name="kv",
            topology=TopologySpec(groups=8),
            workload=WorkloadSpec(keys=3, destinations="local"),
            app="sharded_kv",
        )
        assert any("keys" in p for p in spec.validate())

    def test_check_raises_with_name(self):
        spec = ScenarioSpec(name="broken", backend="quantum")
        with pytest.raises(ConfigurationError, match="broken"):
            spec.check()

    def test_fault_seed_and_duration_inheritance(self):
        """The nemesis draws from the scenario's seed over its horizon."""
        from repro.faults.nemesis import NemesisSchedule
        from repro.scenario.build import (
            build_armed_deployment,
            scenario_fault_profile,
            scenario_membership,
        )

        spec = ScenarioSpec(name="f", seed=9, faults=FaultSpec(),
                            protocol=ProtocolSpec(costs="soak"))
        deployment, schedule, _ = build_armed_deployment(spec)
        deployment.runtime.close()
        expected = NemesisSchedule.generate(
            groups=scenario_membership(spec), seed=spec.seed,
            duration=spec.horizon, profile=scenario_fault_profile(spec),
            f=spec.topology.f)
        assert schedule.describe() == expected.describe()
        assert schedule.ops == expected.ops
