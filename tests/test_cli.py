import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import schedleak as sl
from schedleak import cli, simulate


def write_config(path: Path, **sections) -> str:
    doc = {
        "model": {"scenario": "estimation", "num_states": 12, "theta": 8.0},
        "planner": {"beta": 1.0, "t_max": 4},
        "simulation": {"n_steps": 30, "n_episodes": 1, "seed": 5},
        "output": {},
    }
    for key, body in sections.items():
        doc.setdefault(key, {}).update(body)
    cfg = path / "config.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"thetta": 2}}))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"modell": {}}))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{\n  "model": {,}\n}')
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        rc = cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("command, sections", [
        ("solve", {"planner": {"gamma": 1.5}}),
        ("solve", {"planner": {"value_tolerance": 0.0}}),
        ("solve", {"planner": {"value_tolerance": 1e-15}}),
        ("simulate", {"planner": {"value_tolerance": -1e-9}}),
        ("simulate", {"defense": {"l_low": 0.6, "l_high": 0.4},
                      "simulation": {"trace": True}}),
        ("simulate", {"simulation": {"epsilon": -0.5, "trace": True}}),
        ("simulate", {"defense": {"target_entropy_fraction": 1.7}}),
        ("pareto", {"defense": {"pde_fraction_grid": [0.5, 1.7]}}),
        ("pareto", {"defense": {"pde_fraction_grid": [-0.25]}}),
        ("pareto", {"defense": {"ade_l_low_grid": [0.2, "low"]}}),
        ("solve", {"model": {"num_states": 4}}),
        ("solve", {"model": {"theta": [8, 0]}}),
        ("simulate", {"model": {"num_states": 4}}),
        ("simulate", {"model": {"theta": [8, 0]}}),
        ("simulate", {"planner": {"beta": [1.0, -1.0]}}),
        ("simulate", {"defense": {"forecast_mode": "instant"}}),
        ("solve", {"planner": {"beta": float("nan")}}),
        ("simulate", {"planner": {"beta": [1.0, float("nan")]}}),
        ("solve", {"model": {"theta": float("inf")}}),
        ("simulate", {"model": {"theta": [8, float("inf")]}}),
        ("pareto", {"model": {"theta": float("inf")}}),
        ("simulate", {"simulation": {"epsilon": float("inf")}}),
        ("solve", {"simulation": {"seed": -1}}),
        ("simulate", {"simulation": {"seed": -1}}),
        ("pareto", {"simulation": {"seed": -1}}),
    ], ids=["gamma", "value_tolerance=0", "value_tolerance=1e-15",
            "value_tolerance<0", "l_low>l_high", "epsilon<0", "fraction>1",
            "pde_grid>1", "pde_grid<0", "ade_grid", "solve-num_states=4",
            "solve-theta=0", "simulate-num_states=4", "simulate-theta=0",
            "simulate-beta<0", "forecast_mode=instant", "solve-beta=nan",
            "simulate-beta=nan", "solve-theta=inf", "simulate-theta=inf",
            "pareto-theta=inf", "epsilon=inf", "solve-seed<0", "simulate-seed<0",
            "pareto-seed<0"])
    def test_bad_parameter_value(self, tmp_path, capsys, monkeypatch, command, sections):
        def forbidden(cfg):
            raise AssertionError("cell solved before the config was checked")
        monkeypatch.setattr(simulate, "CellSolution", forbidden)
        cfg = write_config(tmp_path, **sections)
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate", "pareto"])
    def test_negative_seed_flag(self, tmp_path, capsys, monkeypatch, command):
        def forbidden(cfg):
            raise AssertionError("cell solved before the config was checked")
        monkeypatch.setattr(simulate, "CellSolution", forbidden)
        cfg = write_config(tmp_path)
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert rc == 2
        assert "config error: seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("solve", "planner", "t_max", 2.5),
        ("solve", "model", "num_states", 12.5),
        ("solve", "simulation", "n_steps", 30.5),
        ("simulate", "simulation", "n_episodes", 1.9),
        ("simulate", "simulation", "n_episodes", "three"),
        ("pareto", "simulation", "n_episodes", 2.5),
        ("simulate", "simulation", "d_gap", [3, 2.7]),
        ("solve", "simulation", "seed", 5.5),
    ], ids=["t_max", "num_states", "n_steps", "n_episodes", "n_episodes-text",
            "pareto-n_episodes", "d_gap", "seed"])
    def test_whole_number_fields(self, tmp_path, capsys, monkeypatch, command, section,
                                 key, value):
        """A fractional or non-numeric count is a config error naming its key,
        not a truncation or a traceback."""
        def forbidden(cfg):
            raise AssertionError("cell solved before the config was checked")
        monkeypatch.setattr(simulate, "CellSolution", forbidden)
        cfg = write_config(tmp_path, **{section: {key: value}})
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{section}.{key} must be a whole number" in capsys.readouterr().err

    def test_whole_floats_accepted(self, tmp_path):
        cfg = write_config(tmp_path, planner={"t_max": 4.0}, simulation={"seed": 5.0})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        jp = sl.policy_from_json(next(out.glob("policy_MPI_*.json")).read_text())
        assert jp.t_max == 4

    def test_defaults_match_episode_config(self):
        """A key the CLI shares with ``EpisodeConfig`` has the same default."""
        fields = {f.name: f.default for f in dataclasses.fields(sl.EpisodeConfig)}
        shared = {key: value for body in cli._DEFAULTS.values()
                  for key, value in body.items() if key in fields}
        assert len(shared) == 13
        for key, value in shared.items():
            default = fields[key]
            if isinstance(default, sl.Scenario):
                default = default.value
            assert value == default, key

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        def boom(*args, **kwargs):
            raise sl.NumericalError("synthetic")
        monkeypatch.setattr(cli, "cmd_solve", boom)
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3


class TestSolve:
    def test_writes_policies_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("policy_*.json"))
        assert len(files) == 3  # MPI, PP, PDE
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == set(files)

    def test_idempotent_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli.main(["solve", "--config", cfg, "--out", str(out1)])
        cli.main(["solve", "--config", cfg, "--out", str(out2)])
        for p1 in out1.glob("policy_*.json"):
            assert (out2 / p1.name).read_bytes() == p1.read_bytes()

    def test_beta_list_fans_out(self, tmp_path):
        cfg = write_config(tmp_path, planner={"beta": [0.5, 1.5], "t_max": 4})
        out = tmp_path / "out"
        cli.main(["solve", "--config", cfg, "--out", str(out)])
        assert len(list(out.glob("policy_MPI_*.json"))) == 2

    def test_policy_reload_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["solve", "--config", cfg, "--out", str(out)])
        path = next(out.glob("policy_MPI_*.json"))
        jp = sl.policy_from_json(path.read_text())
        doc = json.loads(path.read_text())
        assert sl.extract_sigma(jp).intervals.tolist() == doc["sigma"]

    def test_builds_no_listener_model(self, tmp_path, monkeypatch):
        """``solve`` serialises policies and runs no listener."""
        built = []
        init = sl.SegmentModel.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(sl.SegmentModel, "__init__", counted)
        cfg = write_config(tmp_path, model={"scenario": "control", "num_states": 6},
                           planner={"t_max": 4})
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                         "--workers", "1"]) == 0
        assert built == []


class TestSimulate:
    def test_aggregate_shape(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"theta": [4.0, 8.0]},
            simulation={"policies": ["MPI", "PP"], "n_episodes": 1})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                         "--workers", "1"]) == 0
        rows = json.loads((out / "aggregate.json").read_text())
        assert len(rows) == 4  # 2 thetas x 2 policies
        assert (out / "aggregate.csv").exists()

    def test_trace_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            simulation={"policies": ["MPI", "PP", "ADE", "PDE"],
                        "trace": True, "n_episodes": 1})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for kind in ("MPI", "PP", "ADE", "PDE"):
            text = (out / f"trace_{kind}.csv").read_text().splitlines()
            assert text[0].startswith("n,s,a,c,")
            assert len(text) == 31

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        cli.main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "1"])
        cli.main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "1"])
        cli.main(["simulate", "--config", cfg, "--out", str(out3), "--seed", "2"])
        rows1 = (out1 / "aggregate.json").read_text()
        assert rows1 == (out2 / "aggregate.json").read_text()
        assert rows1 != (out3 / "aggregate.json").read_text()


class TestPareto:
    def test_anchors_only_with_empty_grids(self, tmp_path):
        cfg = write_config(
            tmp_path,
            defense={"ade_l_low_grid": [], "pde_fraction_grid": []})
        out = tmp_path / "out"
        assert cli.main(["pareto", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "frontier.csv").read_text().splitlines()
        assert len(lines) == 3  # header + MPI + PP anchors

    def test_reruns_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            defense={"ade_l_low_grid": [0.3], "pde_fraction_grid": [0.5]})
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        cli.main(["pareto", "--config", cfg, "--out", str(out1)])
        cli.main(["pareto", "--config", cfg, "--out", str(out2)])
        assert (out1 / "frontier.csv").read_bytes() \
            == (out2 / "frontier.csv").read_bytes()
        assert (out1 / "frontier_filtered.csv").exists()

    def test_anchor_ordering_at_leaky_cell(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": {"scenario": "estimation", "num_states": 30, "theta": 32.0},
            "planner": {"beta": 1.0, "t_max": 10},
            "simulation": {"n_steps": 80, "n_episodes": 2, "seed": 3},
            "defense": {"ade_l_low_grid": [], "pde_fraction_grid": []},
        }))
        out = tmp_path / "out"
        assert cli.main(["pareto", "--config", str(cfg_path), "--out", str(out)]) == 0
        import csv as _csv
        with open(out / "frontier.csv") as fh:
            rows = list(_csv.DictReader(fh))
        mpi = next(r for r in rows if r["defense"] == "MPI")
        pp = next(r for r in rows if r["defense"] == "PP")
        assert float(pp["mean_leakage"]) < float(mpi["mean_leakage"])


class TestWorkers:
    def test_parallel_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, model={"theta": [4.0, 8.0]})
        out1, out2 = tmp_path / "s", tmp_path / "p"
        cli.main(["simulate", "--config", cfg, "--out", str(out1), "--workers", "1"])
        cli.main(["simulate", "--config", cfg, "--out", str(out2), "--workers", "2"])
        assert (out1 / "aggregate.json").read_text() \
            == (out2 / "aggregate.json").read_text()
