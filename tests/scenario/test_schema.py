"""The scenario vocabulary beyond the basics: one schema, lint per axis.

Membership churn, the read tier (docs/READS.md), the wire-codec knob
(docs/WIRE.md), adaptive overlay trees and the ``hotpairs`` sampler
(docs/TREES.md), ``protocol.kind`` and the figures'
``fixed``/``home``/``skewed`` destinations — each accepted from a
document, linted, and round-tripped.  A document declares exactly
``SCENARIO_SCHEMA_VERSION``; strict-parsing basics (unknown keys, missing
name) live in ``test_scenario_spec.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.scenario.spec import (
    ADAPTIVE_TREE_MODES,
    SCENARIO_SCHEMA_VERSION,
    WIRES,
    FaultSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parents[2]
                   / "examples" / "scenarios").glob("*.json"))


# -- one schema ---------------------------------------------------------------

@pytest.mark.parametrize(
    "schema", [*range(1, SCENARIO_SCHEMA_VERSION), SCENARIO_SCHEMA_VERSION + 1])
def test_unsupported_schema_is_rejected(schema):
    with pytest.raises(ConfigurationError, match="unsupported scenario schema"):
        ScenarioSpec.from_dict({"schema": schema, "name": "t"})


@pytest.mark.parametrize("spec", [
    ScenarioSpec(
        name="churn",
        workload=WorkloadSpec(loop="open", rate=60.0),
        faults=FaultSpec(intensity="churn", joins=2, leaves=1, scale_cycles=1),
    ),
    ScenarioSpec(
        name="reads",
        workload=WorkloadSpec(read_ratio=0.25, read_mode="optimistic"),
        protocol=ProtocolSpec(checkpoint_interval=32),
    ),
    ScenarioSpec(
        name="wire",
        backend="rt",
        protocol=ProtocolSpec(wire="binary", checkpoint_interval=32),
    ),
    ScenarioSpec(
        name="adaptive",
        topology=TopologySpec(groups=8, layout="balanced", fanout=4),
        workload=WorkloadSpec(destinations="hotpairs"),
        protocol=ProtocolSpec(adaptive_tree="observe", adapt_interval=0.25),
    ),
    ScenarioSpec(name="baseline", topology=TopologySpec(groups=4),
                 workload=WorkloadSpec(destinations="fixed", fixed=("g1", "g2")),
                 protocol=ProtocolSpec(kind="baseline", max_in_flight=4)),
    ScenarioSpec(name="bftsmart", topology=TopologySpec(groups=4),
                 workload=WorkloadSpec(destinations="fixed", fixed=("g1",)),
                 protocol=ProtocolSpec(kind="bftsmart")),
    ScenarioSpec(name="home", topology=TopologySpec(groups=8),
                 workload=WorkloadSpec(clients=16, destinations="home")),
], ids=lambda spec: spec.name)
def test_round_trips_at_current_schema(spec):
    raw = spec.to_dict()
    assert raw["schema"] == SCENARIO_SCHEMA_VERSION
    assert ScenarioSpec.from_dict(raw) == spec
    assert spec.validate() == []


def test_example_scenarios_are_valid_and_canonical():
    """Every shipped spec lints clean and is saved exactly as ``save`` writes it."""
    assert EXAMPLES
    for path in EXAMPLES:
        text = path.read_text(encoding="utf-8")
        spec = ScenarioSpec.from_json(text)
        assert spec.validate() == [], path.name
        assert spec.to_json() == text, path.name


# -- churn -------------------------------------------------------------------

def test_document_accepts_churn_vocabulary():
    spec = ScenarioSpec.from_dict({
        "schema": SCENARIO_SCHEMA_VERSION,
        "name": "churny",
        "faults": {"intensity": "churn", "joins": 1, "scale_cycles": 1},
    })
    assert spec.validate() == []
    assert spec.faults.churn()


def test_fault_churn_lint_and_predicate():
    bad = ScenarioSpec(name="t", faults=FaultSpec(joins=-1))
    assert any("joins" in p for p in bad.validate())
    assert not FaultSpec().churn()
    assert FaultSpec(intensity="churn").churn()
    assert FaultSpec(joins=1).churn()
    assert FaultSpec(leaves=1).churn()
    assert FaultSpec(scale_cycles=1).churn()


# -- the read tier ------------------------------------------------------------

def test_document_accepts_read_vocabulary():
    spec = ScenarioSpec.from_dict({
        "schema": SCENARIO_SCHEMA_VERSION,
        "name": "ready",
        "workload": {"loop": "open", "rate": 50.0,
                     "read_ratio": 0.9, "read_mode": "optimistic"},
    })
    assert spec.validate() == []
    assert spec.workload.read_ratio == 0.9


def test_read_lint_rules():
    bad = ScenarioSpec(name="t", workload=WorkloadSpec(
        read_ratio=1.5, read_mode="psychic"))
    problems = "\n".join(bad.validate())
    assert "read_ratio" in problems
    assert "read_mode" in problems


def test_the_snapshot_read_mode_is_rejected():
    spec = ScenarioSpec(name="t", workload=WorkloadSpec(
        read_ratio=0.5, read_mode="snapshot"))
    assert spec.validate() == [
        "workload.read_mode 'snapshot' not in ['ordered', 'optimistic']"]


# -- the wire codec -----------------------------------------------------------

def test_document_accepts_wire_vocabulary():
    assert {"auto", "json", "binary"} == set(WIRES)
    spec = ScenarioSpec.from_dict({
        "schema": SCENARIO_SCHEMA_VERSION,
        "name": "fastpath",
        "backend": "rt",
        "protocol": {"wire": "binary"},
    })
    assert spec.validate() == []
    assert spec.protocol.wire == "binary"
    assert spec.protocol.adaptive_tree == "off"   # defaults apply, quietly


def test_unknown_wire_is_linted():
    bad = ScenarioSpec(name="t", backend="rt",
                       protocol=ProtocolSpec(wire="carrier-pigeon"))
    assert any("wire" in p for p in bad.validate())


def test_binary_wire_requires_rt_backend():
    """The sim backend never serializes — a binary wire there would be a
    silent no-op, so validation refuses it."""
    bad = ScenarioSpec(name="t", backend="sim",
                       protocol=ProtocolSpec(wire="binary"))
    problems = bad.validate()
    assert any("rt" in p and "wire" in p for p in problems)
    ok = ScenarioSpec(name="t", backend="rt",
                      protocol=ProtocolSpec(wire="binary"))
    assert ok.validate() == []


def test_wire_auto_resolves_per_backend():
    proto = ProtocolSpec()
    assert proto.wire == "auto"
    assert proto.resolved_wire("rt") == "binary"
    assert proto.resolved_wire("sim") == "json"
    # explicit choices are never second-guessed
    assert ProtocolSpec(wire="json").resolved_wire("rt") == "json"


# -- adaptive trees -----------------------------------------------------------

def test_document_accepts_adaptive_vocabulary():
    assert ADAPTIVE_TREE_MODES == ("off", "observe", "on")
    spec = ScenarioSpec.from_dict({
        "schema": SCENARIO_SCHEMA_VERSION,
        "name": "adaptive",
        "topology": {"groups": 8, "layout": "balanced", "fanout": 4},
        "workload": {"destinations": "hotpairs"},
        "protocol": {"adaptive_tree": "on", "adapt_interval": 0.5,
                     "adapt_min_samples": 48, "adapt_cooldown": 1.0},
    })
    assert spec.validate() == []
    assert spec.protocol.adaptive_tree == "on"
    assert spec.workload.destinations == "hotpairs"


def test_adaptive_knobs_are_linted():
    bad = ScenarioSpec(name="t",
                       protocol=ProtocolSpec(adaptive_tree="sometimes"))
    assert any("adaptive_tree" in p for p in bad.validate())
    for proto in (ProtocolSpec(adapt_interval=0.0),
                  ProtocolSpec(adapt_min_samples=0),
                  ProtocolSpec(adapt_cooldown=-1.0)):
        assert ScenarioSpec(name="t", protocol=proto).validate() != []


def test_hotpairs_needs_at_least_two_targets():
    bad = ScenarioSpec(name="t",
                       topology=TopologySpec(groups=1),
                       workload=WorkloadSpec(destinations="hotpairs"))
    assert any("hotpairs" in p for p in bad.validate())


# -- protocol kind and the figures' destinations --------------------------------

@pytest.mark.parametrize("document, complaint", [
    ({"protocol": {"kind": "paxos"}}, "protocol.kind"),
    ({"protocol": {"kind": "baseline"},
      "topology": {"groups": 4, "layout": "paper"}}, "two_level"),
    ({"protocol": {"kind": "baseline"}, "app": "sharded_kv"},
     "app 'sharded_kv' needs"),
    ({"protocol": {"kind": "bftsmart"}, "faults": {}}, "faults needs"),
    ({"protocol": {"kind": "baseline", "adaptive_tree": "observe"}},
     "adaptive_tree needs"),
    ({"protocol": {"kind": "bftsmart"}, "workload": {"read_ratio": 0.5}},
     "read_ratio > 0 needs"),
    ({"protocol": {"kind": "bftsmart"}, "topology": {"groups": 4},
      "workload": {"destinations": "skewed"}}, "kind 'bftsmart' is"),
    ({"protocol": {"kind": "bftsmart"}, "topology": {"groups": 4},
      "workload": {"destinations": "fixed", "fixed": ["g1", "g2"]}},
     "with fixed ['g1']"),
    ({"workload": {"destinations": "fixed"}}, "workload.fixed"),
    ({"workload": {"destinations": "fixed", "fixed": ["g1", "g9"]}},
     "workload.fixed"),
    ({"workload": {"destinations": "skewed"}}, "g1..g4"),
], ids=lambda value: value if isinstance(value, str) else "")
def test_kind_and_destination_lint(document, complaint):
    spec = ScenarioSpec.from_dict({"name": "t", **document})
    assert any(complaint in problem for problem in spec.validate())
