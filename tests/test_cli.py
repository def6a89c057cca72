"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from tests.helpers import SCENARIOS, soak_spec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["demo"]).command == "demo"
        assert parser.parse_args(["table3"]).capacity == 9500.0
        args = parser.parse_args(["plan", "{}", "--capacity", "100"])
        assert args.capacity == 100.0
        assert parser.parse_args(["experiment", "table1"]).name == "table1"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Uniform workload" in out
        assert "Not viable" in out

    def test_plan_skewed(self, capsys):
        demand = json.dumps({"g1,g2": 9000, "g3,g4": 9000})
        assert main(["plan", demand]) == 0
        out = capsys.readouterr().out
        assert "objective sum-of-heights = 4" in out
        assert "h1" in out

    def test_plan_heuristic_flag(self, capsys):
        demand = json.dumps({"g1,g2": 100})
        assert main(["plan", demand, "--heuristic"]) == 0
        assert "objective" in capsys.readouterr().out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "CA-VA" in out or "CA-JP" in out
        assert "measured" in out

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "g3:" in out
        assert "ms" in out

    def test_chaos_parses(self):
        parser = build_parser()
        args = parser.parse_args(["chaos", "--backend", "both", "--seed", "3",
                                  "--intensity", "heavy", "--timeline"])
        assert (args.file, args.backend, args.seed) == (None, "both", 3)
        assert args.intensity == "heavy"
        assert args.timeline
        # unset per-run flags mean "whatever the scenario says"
        assert args.duration is None and args.messages is None
        assert parser.parse_args(["chaos", "soak.json"]).file == "soak.json"
        for bad in (["--backend", "fpga"], ["--intensity", "apocalyptic"],
                    ["--max-in-flight", "2"], ["--joins", "1"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["chaos", *bad])

    def test_chaos_sim_soak(self, capsys):
        assert main(["chaos", "--backend", "sim", "--seed", "7",
                     "--duration", "4", "--messages", "24", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "chaos soak [sim] seed=7" in out
        assert "PASS" in out
        assert "invariants" in out
        assert "# nemesis seed=7" in out  # --timeline prints the schedule

    def test_chaos_unsoakable_scenarios_are_refused(self, capsys, tmp_path):
        from repro.scenario.spec import FaultSpec, ProtocolSpec, ScenarioSpec

        baseline = str(tmp_path / "baseline.json")
        ScenarioSpec(name="b", protocol=ProtocolSpec(kind="baseline"),
                     faults=FaultSpec()).save(baseline)
        garbage = tmp_path / "garbage.json"
        garbage.write_text('{"name": "x", "chaos": 1}', encoding="utf-8")
        for path, why in (
            (str(tmp_path / "nope.json"), "No such file"),
            (str(garbage), "unknown key(s) ['chaos']"),
            (str(SCENARIOS / "mixed_two_level.json"), "no faults section"),
            (str(SCENARIOS / "sharded_kv_soak.json"), "app 'sharded_kv'"),
            (baseline, "needs protocol.kind 'byzcast'"),
        ):
            assert main(["chaos", path, "--intensity", "light"]) == 2
            assert why in capsys.readouterr().out, path

    def test_chaos_failure_prints_the_full_replay_command(
            self, capsys, monkeypatch, tmp_path):
        import repro.runtime.chaos as chaos

        legs = []

        def failing(spec, messages=60):
            legs.append((spec.backend, spec.protocol.wire, spec.seed))
            return chaos.ChaosReport(
                backend=spec.backend, seed=spec.seed, intensity="medium",
                schedule="", fault_kinds=(), sent=messages, completed=0,
                outstanding=messages, liveness_ok=False)

        monkeypatch.setattr(chaos, "run_chaos_soak", failing)
        path = str(tmp_path / "rt_binary.json")
        soak_spec(backend="rt", wire="binary").save(path)
        assert main(["chaos", path, "--backend", "both", "--seed", "1275",
                     "--duration", "4", "--messages", "24"]) == 2
        assert (f"replay with: python -m repro chaos {path} --backend both "
                "--seed 1275 --duration 4.0 --messages 24\n"
                ) in capsys.readouterr().out
        # the sim leg never sees a codec only rt can take
        assert legs == [("sim", "auto", 1275), ("rt", "binary", 1275)]


class TestScenarioCommand:
    def test_parses(self):
        parser = build_parser()
        args = parser.parse_args(["scenario", "validate", "spec.json"])
        assert args.action == "validate"
        assert args.file == "spec.json"
        with pytest.raises(SystemExit):
            parser.parse_args(["scenario", "lint", "spec.json"])

    def test_validate_ok(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        path = str(tmp_path / "ok.json")
        ScenarioSpec(name="from-cli").save(path)
        assert main(["scenario", "validate", path]) == 0
        out = capsys.readouterr().out
        assert "'from-cli': OK" in out
        assert "target group(s)" in out

    def test_validate_invalid_spec(self, capsys, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"name": "bad", "workload": {"loop": "semi"}}, handle)
        assert main(["scenario", "validate", path]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_validate_unreadable_file(self, capsys, tmp_path):
        assert main(["scenario", "validate", str(tmp_path / "nope.json")]) == 2

    def test_validate_mistyped_value(self, capsys, tmp_path):
        path = str(tmp_path / "typo.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 7, "name": "x",
                       "topology": {"groups": "4"}}, handle)
        assert main(["scenario", "validate", path]) == 2
        out = capsys.readouterr().out
        assert "cannot load" in out
        assert "topology.groups must be an int" in out

    def test_run_reports_result(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec
        from repro.scenario.spec import ProtocolSpec, WorkloadSpec

        path = str(tmp_path / "tiny.json")
        ScenarioSpec(
            name="cli-tiny",
            workload=WorkloadSpec(clients=2, warmup=0.2, duration=0.6),
            protocol=ProtocolSpec(costs="soak"),
        ).save(path)
        assert main(["scenario", "run", path]) == 0
        out = capsys.readouterr().out
        assert "cli-tiny" in out
        assert "tput=" in out
