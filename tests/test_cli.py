import json
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import splitgame
from splitgame import acceptance, arena, cli, sde, splitting

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def base_sim_config(n_paths=50, dt=1 / 32):
    return {
        "schema_version": 1,
        "seed": 3,
        "horizon": 1.0,
        "hamiltonian": {"kind": "analytic", "name": "tent"},
        "sim": {
            "dt": dt, "n_paths": n_paths,
            "start": {"p": [0.4, 0.6], "q": [1.0]},
            "controls": {"u": {"kind": "directional", "scale": 0.5},
                         "v": {"kind": "zero"}},
            "dump_trajectories": True,
        },
    }


def mc_game_config():
    return {
        "schema_version": 1,
        "seed": 0,
        "horizon": 1.0,
        "hamiltonian": {"kind": "analytic", "name": "tent"},
        "sim": {"start": {"p": [0.5, 0.5], "q": [1.0]}},
        "split": {"steps": 32, "horizon": 0.125},
        "arena": {"n_paths": 200, "dt": 0.00390625},
    }


class TestConfigValidation:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("unreadable", ["directory", "not-utf-8"])
    def test_unreadable_config_exit_2_naming_the_file(self, tmp_path, capsys, unreadable):
        path = tmp_path / "configs"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}")
        code = cli.main(["solve-hj", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: config file {path} cannot be read: ")
        assert not (tmp_path / "o").exists()

    def test_negative_dt_exit_2_with_field_path(self, tmp_path, capsys):
        cfg = base_sim_config()
        cfg["sim"]["dt"] = -0.1
        path = write_config(tmp_path, cfg)
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "sim.dt" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        cfg = base_sim_config()
        cfg["schema_version"] = 99
        path = write_config(tmp_path, cfg)
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG

    def test_unknown_hamiltonian(self, tmp_path):
        cfg = base_sim_config()
        cfg["hamiltonian"]["name"] = "mystery"
        cfg["hj"] = {"p_resolution": 20, "time_steps": 16}
        path = write_config(tmp_path, cfg)
        code = cli.main(["solve-hj", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG

    def test_bad_start_vector(self, tmp_path, capsys):
        cfg = base_sim_config()
        cfg["sim"]["start"]["p"] = [0.7, 0.7]
        path = write_config(tmp_path, cfg)
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "sim.start.p" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, key", [
        ("solve-hj", "hj"), ("simulate", "sim"), ("split-demo", "sim"),
        ("split-demo", "split"), ("mc-game", "sim"), ("mc-game", "split"),
        ("mc-game", "arena"),
    ])
    def test_non_object_block_exit_2(self, tmp_path, capsys, subcommand, key):
        cfg = mc_game_config() if subcommand == "mc-game" else base_sim_config()
        cfg[key] = [1, 2]
        path = write_config(tmp_path, cfg)
        code = cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert f"config error: {key}: must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, block", [("simulate", "sim"), ("mc-game", "arena")])
    def test_one_path_exit_2_naming_the_field(self, tmp_path, capsys, subcommand, block):
        cfg = mc_game_config() if subcommand == "mc-game" else base_sim_config()
        cfg[block]["n_paths"] = 1
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert cli.main([subcommand, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert (f"config error: {block}.n_paths: need at least two paths for a standard error"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("seed, flag", [
        ("abc", None), (-1, None), (1.5, None), (True, None), (None, None), (0, "-3"),
    ])
    def test_bad_seed_exit_2(self, tmp_path, capsys, seed, flag):
        cfg = {"schema_version": 1, "seed": seed, "split": {"steps": 16},
               "sim": {"n_paths": 20}}
        argv = ["split-demo", "--config", str(write_config(tmp_path, cfg)),
                "--out", str(tmp_path / "o")]
        if flag is not None:
            argv += ["--seed", flag]
        assert cli.main(argv) == cli.EXIT_CONFIG
        where = "--seed" if flag is not None else "seed"
        assert f"config error: {where}: must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, path, value, message", [
        ("solve-hj", ["horizon"], "abc", "horizon: must be a positive number"),
        ("simulate", ["sim", "controls", "u"], {"kind": "constant", "matrix": "x"},
         "sim.controls.u.matrix: must be a 2x2 matrix of finite numbers"),
        ("simulate", ["sim", "start"], 5, "sim.start: must be an object"),
        ("simulate", ["sim", "controls"], 5, "sim.controls: must be an object"),
        ("simulate", ["sim", "controls", "u"], 3, "sim.controls.u: must be an object"),
        ("solve-hj", ["hamiltonian"], 5, "hamiltonian: must be an object"),
        ("solve-hj", ["hamiltonian"], {"kind": "tensor", "path": 5},
         "hamiltonian.path: must be a string"),
        ("simulate", ["sim", "dump_trajectories"], "no",
         "sim.dump_trajectories: must be true or false"),
        ("split-demo", ["split", "lam1"], True, "split.lam1: must be a number in [0, 1]"),
        ("solve-hj", ["hamiltonian"], None, "hamiltonian: required field missing"),
        ("solve-hj", ["hamiltonian"],
         {"kind": "analytic", "name": "tent", "params": {"centre": 0.3}},
         "hamiltonian.params: tent takes no parameter 'centre'"),
        ("solve-hj", ["hamiltonian"],
         {"kind": "analytic", "name": "zero", "params": {"dim_p": 1.5}},
         "hamiltonian.params.dim_p: must be a positive integer, got 1.5"),
        ("mc-game", ["hamiltonian"],
         {"kind": "analytic", "name": "constant", "params": {"dim_q": 0}},
         "hamiltonian.params.dim_q: must be a positive integer, got 0"),
        ("simulate", ["sim", "controls", "u"], {"kind": "split"},
         "split: control 'split' switches at 1.125, past the horizon 1"),
        ("mc-game", ["arena"], {"n_paths": 20},
         "split: control 'split' switches at 1.125, past the horizon 1"),
        ("mc-game", ["arena"], {"n_paths": 20, "dt": 0.1},
         "split: control 'split' switches at 0.125, off the noise grid of step 0.1"),
        # the one switch snaps to step 0, where the first interval begins
        ("mc-game", ["split"], {"steps": 1, "horizon": 1e-10},
         "split: control 'split' switches at 1e-10, on noise step 0, where interval 0 begins"),
        # 1e308 / dt steps overflow to inf before any step is counted
        ("simulate", ["horizon"], 1e308,
         "sim: (horizon - t) / dt = inf steps is beyond float range"),
        ("mc-game", ["horizon"], 1e308,
         "arena: (horizon - t) / dt = inf steps is beyond float range"),
        ("simulate", ["hamiltonian"], 5, "hamiltonian: must be an object"),
        ("simulate", ["hamiltonian"],
         {"kind": "analytic", "name": "constant", "params": {"dim_q": 0}},
         "hamiltonian.params.dim_q: must be a positive integer, got 0"),
        # ten coordinates at the default resolution pass solve-hj's size limit
        ("solve-hj", ["hamiltonian"],
         {"kind": "analytic", "name": "zero", "params": {"dim_p": 10}},
         "hj: two value grids of 129 x 4263421511271 x 1 nodes and their solve's "
         "temporaries need "),
    ], ids=["tensor-horizon", "matrix", "start", "controls", "control-u", "hamiltonian",
            "tensor-path", "dump-trajectories", "lam1", "missing-hamiltonian", "unknown-param",
            "dim-p", "dim-q", "split-past-horizon", "mc-game-split-past-horizon",
            "mc-game-split-off-grid", "mc-game-split-on-the-start", "simulate-steps-overflow",
            "mc-game-steps-overflow", "simulate-hamiltonian",
            "simulate-dim-q", "ten-coordinate-size"])
    def test_malformed_field_exit_2_with_path(self, tmp_path, capsys, subcommand, path,
                                              value, message):
        # the solve-hj cases run on a tensor cost, whose field is built from the horizon
        (tmp_path / "tensor.json").write_text(json.dumps(
            {"time_samples": [0.0], "values": np.full((1, 2, 1, 1, 2), 0.5).tolist()}))
        cfg = base_sim_config()
        cfg["hamiltonian"] = {"kind": "tensor", "path": "tensor.json"}
        # a split that switches every 1/8, past the horizon 1
        cfg["split"] = {"steps": 16, "horizon": 2.0}
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        out = tmp_path / "o"
        code = cli.main([subcommand, "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {message}")
        assert not out.exists()


class TestMcGameSplitBlock:
    def three_coordinate_config(self, split):
        cfg = mc_game_config()
        cfg["hamiltonian"] = {"kind": "analytic", "name": "zero", "params": {"dim_p": 3}}
        cfg["sim"]["start"]["p"] = [0.3, 0.3, 0.4]
        cfg["split"] = split
        cfg["arena"] = {"n_paths": 20, "dt": 1 / 64}
        return cfg

    def test_three_coordinate_split_is_played(self, tmp_path):
        split = {"steps": 8, "horizon": 0.125, "p1": [0.5, 0.2, 0.3], "p2": [0.1, 0.4, 0.5]}
        path = write_config(tmp_path, self.three_coordinate_config(split))
        out = tmp_path / "o"
        assert cli.main(["mc-game", "--config", str(path), "--out", str(out)]) == 0
        _, report = read_report(out)
        assert report["mc_game"]["names_1"] == ["zero", "directional", "split"]

    @pytest.mark.parametrize("split, message", [
        ({"lam1": True}, "split.lam1: must be a number in [0, 1], got True"),
        ({"steps": 8}, "split: split spec dimension 2 != 3"),
    ], ids=["malformed", "two-coordinate-spec"])
    def test_three_coordinate_bad_split_exit_2(self, tmp_path, capsys, split, message):
        path = write_config(tmp_path, self.three_coordinate_config(split))
        code = cli.main(["mc-game", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_simulate_names_a_two_coordinate_split_the_same_way(self, tmp_path, capsys):
        cfg = base_sim_config()
        cfg["sim"]["start"]["p"] = [0.3, 0.3, 0.4]
        cfg["sim"]["controls"]["u"] = {"kind": "split"}
        cfg["hamiltonian"] = {"kind": "analytic", "name": "zero", "params": {"dim_p": 3}}
        cfg["split"] = {"steps": 8}
        path = write_config(tmp_path, cfg)
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: split: split spec dimension 2 != 3\n"


class TestNoStepGrid:
    @pytest.mark.parametrize("subcommand, path, value, message", [
        ("simulate", ["sim", "dt"], 1e10,
         "sim: dt=10000000000.0 leaves no step on the horizon 1.0"),
        ("simulate", ["horizon"], 1e-300,
         "sim: dt=0.001953125 leaves no step on the horizon 1e-300"),
        ("mc-game", ["arena", "dt"], 1e10,
         "arena: dt=10000000000.0 leaves no step on the horizon 1.0"),
    ], ids=["simulate-dt", "simulate-horizon", "mc-game-dt"])
    def test_grid_of_no_step_exit_2(self, tmp_path, capsys, subcommand, path, value, message):
        # (horizon - t) / dt rounds to 0 within the grid's snap tolerance
        if subcommand == "simulate":
            cfg = json.loads((CONFIGS / "simulate_directional.json").read_text())
        else:
            cfg = mc_game_config()
            cfg["hamiltonian"] = {"kind": "analytic", "name": "zero", "params": {"dim_p": 3}}
            cfg["sim"]["start"]["p"] = [0.3, 0.3, 0.4]
            del cfg["split"]
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        out = tmp_path / "o"
        code = cli.main([subcommand, "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestThreadsFlag:
    def test_default_is_one_thread(self, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: seen.update(kwargs) or 0)
        path = write_config(tmp_path, base_sim_config())
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert seen["threads"] == 1

    def test_zero_threads_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_sim_config())
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"),
                         "--threads", "0"]) == cli.EXIT_CONFIG
        assert "config error: --threads: must be a positive integer" in capsys.readouterr().err


class TestConfigHash:
    def test_whitespace_insensitive(self, tmp_path):
        cfg = base_sim_config()
        a = json.dumps(cfg, indent=4)
        b = json.dumps(cfg, separators=(",", ":"))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(a)
        pb.write_text(b)
        ca = cli.load_config(pa)
        cb = cli.load_config(pb)
        strip = lambda c: {k: v for k, v in c.items() if not k.startswith("_")}
        assert cli.config_hash(strip(ca)) == cli.config_hash(strip(cb))

    def test_field_change_changes_hash(self):
        cfg = base_sim_config()
        h1 = cli.config_hash(cfg)
        cfg["seed"] = 4
        assert cli.config_hash(cfg) != h1


class TestSolveHj:
    def test_zero_H_all_zero_csv(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "hamiltonian": {"kind": "analytic", "name": "zero"},
            "hj": {"p_resolution": 20, "q_resolution": 1, "time_steps": 16},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert cli.main(["solve-hj", "--config", str(path), "--out", str(out)]) == 0
        artifact = next(out.iterdir())
        rows = (artifact / "values.csv").read_text().splitlines()[1:]
        vals = np.array([float(r.split(",")[-1]) for r in rows])
        np.testing.assert_array_equal(vals, 0.0)

    def test_two_sided_bilinear_report(self, tmp_path):
        # a non-flat two-sided value: the regularity fields must serialize
        cfg = {
            "schema_version": 1,
            "hamiltonian": {"kind": "analytic", "name": "bilinear"},
            "hj": {"p_resolution": 20, "q_resolution": 20, "time_steps": 16},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert cli.main(["solve-hj", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((next(out.iterdir()) / "report.json").read_text())
        regularity = report["solve_hj"]["regularity"]
        assert regularity["all_ok"] is True
        assert regularity["lipschitz_p"] > 0

    def test_tensor_hamiltonian_roundtrip(self, tmp_path):
        vals = np.zeros((1, 2, 1, 1, 2))
        vals[0, 0, 0, 0, :] = [1.0, 0.0]
        vals[0, 1, 0, 0, :] = [0.0, 1.0]
        tensor_path = tmp_path / "tensor.json"
        tensor_path.write_text(json.dumps(
            {"time_samples": [0.0], "values": vals.tolist()}))
        cfg = {
            "schema_version": 1,
            "hamiltonian": {"kind": "tensor", "path": "tensor.json"},
            "hj": {"p_resolution": 20, "q_resolution": 1, "time_steps": 16},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert cli.main(["solve-hj", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((next(out.iterdir()) / "report.json").read_text())
        # the tensor encodes the tent cost whose envelope iteration stays at 0
        assert abs(report["solve_hj"]["min_value"]) <= 1e-12

    def test_tensor_contents_change_hash(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "hamiltonian": {"kind": "tensor", "path": "tensor.json"},
            "hj": {"p_resolution": 20, "q_resolution": 1, "time_steps": 16},
        }
        out = tmp_path / "o"
        for name, level in (("a", 0.25), ("b", 0.75)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "tensor.json").write_text(json.dumps(
                {"time_samples": [0.0], "values": np.full((1, 2, 1, 1, 1), level).tolist()}))
            path = write_config(tmp_path / name, cfg)
            assert cli.main(["solve-hj", "--config", str(path), "--out", str(out)]) == 0
        assert len([d for d in out.iterdir() if d.is_dir()]) == 2

    def test_tensor_hashed_and_parsed_from_the_same_bytes(self, tmp_path, monkeypatch):
        tensor = tmp_path / "tensor.json"

        def write(level):
            tensor.write_text(json.dumps(
                {"time_samples": [0.0], "values": np.full((1, 2, 1, 1, 1), level).tolist()}))

        write(0.25)
        path = write_config(tmp_path, {
            "schema_version": 1,
            "hamiltonian": {"kind": "tensor", "path": "tensor.json"},
            "hj": {"p_resolution": 20, "q_resolution": 1, "time_steps": 16},
        })
        args = ["solve-hj", "--config", str(path), "--out"]
        assert cli.main(args + [str(tmp_path / "a")]) == 0
        real = cli.config_hash

        def hash_then_rewrite(cfg):
            # another writer replaces the tensor once its bytes are hashed
            digest = real(cfg)
            write(0.75)
            return digest

        monkeypatch.setattr(cli, "config_hash", hash_then_rewrite)
        assert cli.main(args + [str(tmp_path / "b")]) == 0
        (a,), (b,) = (list((tmp_path / name).iterdir()) for name in "ab")
        assert a.name == b.name
        assert sorted(f.name for f in a.iterdir()) == sorted(f.name for f in b.iterdir())
        for f in a.iterdir():
            assert (b / f.name).read_bytes() == f.read_bytes(), f.name

    def test_non_finite_tensor_exit_2(self, tmp_path, capsys):
        vals = np.full((1, 2, 1, 1, 2), 0.5)
        vals[0, 1, 0, 0, 1] = np.nan
        (tmp_path / "tensor.json").write_text(json.dumps(
            {"time_samples": [0.0], "values": vals.tolist()}))
        cfg = {
            "schema_version": 1,
            "hamiltonian": {"kind": "tensor", "path": "tensor.json"},
            "hj": {"p_resolution": 20, "q_resolution": 1, "time_steps": 16},
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve-hj", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "hamiltonian.path" in capsys.readouterr().err

    def test_four_coordinate_tensor_solves(self, tmp_path):
        (tmp_path / "tensor.json").write_text(json.dumps(
            {"time_samples": [0.0], "values": np.full((1, 4, 1, 1, 2), 0.5).tolist()}))
        cfg = {
            "schema_version": 1,
            "hamiltonian": {"kind": "tensor", "path": "tensor.json"},
            "hj": {"p_resolution": 20, "q_resolution": 1, "time_steps": 16},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert cli.main(["solve-hj", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        _, report = read_report(out)
        assert report["solve_hj"]["p_nodes"] == 1771
        assert report["solve_hj"]["regularity"]["all_ok"] is True

    def test_missing_tensor_file(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "hamiltonian": {"kind": "tensor", "path": "absent.json"},
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve-hj", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("case", ["missing", "directory", "permission"])
    def test_tensor_file_that_cannot_be_read_exit_2(self, tmp_path, capsys, monkeypatch, case):
        # a file that is there but cannot be read is named as such, not as missing
        name = {"missing": "absent.json", "directory": ".", "permission": "tensor.json"}[case]
        if case == "permission":  # read_bytes fails as for a file its user may not read
            (tmp_path / name).write_text("{}")

            def denied(self):
                raise PermissionError(13, "Permission denied", str(self))
            monkeypatch.setattr(Path, "read_bytes", denied)
        path = write_config(tmp_path, {"schema_version": 1,
                                       "hamiltonian": {"kind": "tensor", "path": name}})
        code = cli.main(["solve-hj", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        if case == "missing":
            assert line == f"config error: hamiltonian.path: file {tmp_path / name} does not exist"
        else:
            assert line.startswith("config error: hamiltonian.path: cannot read tensor file "
                                   f"{tmp_path / name}: ")
        assert not (tmp_path / "o").exists()


class TestArtifactDeterminism:
    def test_rerun_bit_identical(self, tmp_path):
        path = write_config(tmp_path, base_sim_config())
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(path), "--out", str(out),
                             "--threads", "2"]) == 0
            artifact = next(out.iterdir())
            outs.append(b"".join(f.read_bytes() for f in sorted(artifact.iterdir())))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_dump_steps_once_and_keeps_the_report(self, tmp_path, monkeypatch, threads):
        from splitgame import sde

        monkeypatch.setattr(sde, "_block_ranges", lambda n, k: [(0, 70), (70, 71), (71, n)])
        blocks, real = [], sde.NoiseGrid.increments
        monkeypatch.setattr(sde.NoiseGrid, "increments",
                            lambda grid, lo, hi: blocks.append(lo) or real(grid, lo, hi))
        reports = []
        for dump in (False, True):
            cfg = base_sim_config(n_paths=200)
            cfg["sim"]["dump_trajectories"] = dump
            assert cli.run("simulate", cfg, tmp_path / str(dump), threads=threads) == 0
            artifact = next((tmp_path / str(dump)).iterdir())
            reports.append(json.loads((artifact / "report.json").read_text())["simulate"])
            assert sorted(blocks) == [0, 70, 71]  # each path stepped once
            blocks.clear()
        assert reports[0] == reports[1]

    def test_seed_override_changes_artifacts(self, tmp_path):
        path = write_config(tmp_path, base_sim_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert cli.main(["simulate", "--config", str(path), "--out", str(out),
                         "--seed", "99"]) == 0
        assert len(list(out.iterdir())) == 2  # different hash directories

    def test_env_var_out_fallback(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, base_sim_config(n_paths=10))
        monkeypatch.setenv("SPLITGAME_OUT", str(tmp_path / "env_out"))
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "env_out").exists()


class TestSplitDemoCommand:
    def test_histogram_artifact(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "seed": 0,
            "split": {"steps": 64, "horizon": 0.125},
            "sim": {"n_paths": 500},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert cli.main(["split-demo", "--config", str(path), "--out", str(out)]) == 0
        artifact = next(out.iterdir())
        lines = (artifact / "histogram.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        total = sum(int(r.split(",")[2]) for r in lines[1:])
        assert total == 500

    def test_one_path_exit_2_without_output(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "seed": 0, "split": {"steps": 64, "horizon": 0.125},
               "sim": {"n_paths": 1}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        code = cli.main(["split-demo", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert ("config error: sim.n_paths: need at least two paths for a standard error"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_artifacts_refuse_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError, match="JSON compliant"):
        cli._write_json(tmp_path / "report.json", {"eps_se": value})
    assert not (tmp_path / "report.json").exists()


def overflow_config(subcommand, p=None):
    """A shipped Monte Carlo config on two steps of 0.5 whose control scale of
    1e308 makes products u·dB overflow; simulate's start p replaced if given."""
    if subcommand == "simulate":
        cfg = json.loads((CONFIGS / "simulate_directional.json").read_text())
        cfg["sim"].update(dt=0.5, n_paths=50)
        cfg["sim"]["controls"]["u"]["scale"] = 1e308
        if p is not None:
            cfg["sim"]["start"]["p"] = p
    else:
        cfg = json.loads((CONFIGS / "mc_game_tent.json").read_text())
        cfg["arena"] = {"dt": 0.5, "n_paths": 50, "scale": 1e308}
        cfg["split"] = {"steps": 1, "horizon": 0.5}
    return cfg


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand, block", [("simulate", "sim"), ("mc-game", "arena")])
def test_overflowing_products_exit_2(tmp_path, capsys, subcommand, block):
    # numpy's warnings on the way to the NaN state stay silent: one line on stderr
    path = write_config(tmp_path, overflow_config(subcommand))
    out = tmp_path / "o"
    assert cli.main([subcommand, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"config error: {block}: a state is not finite: the products u·dB of "
                    "a control's matrices and the increments overflow")
    assert not list(out.rglob("*.json"))


def test_overflowing_control_on_a_vertex_draws_nothing(tmp_path, monkeypatch):
    # a path on a vertex draws no noise, so its products are 0.0 whatever the
    # scale; a block that draws no path does not key its streams either
    keyed, keys = [], sde.NoiseGrid.keys

    def recording(grid, stream, lo, hi):
        keyed.append(stream)
        return keys(grid, stream, lo, hi)

    monkeypatch.setattr(sde.NoiseGrid, "keys", recording)
    path = write_config(tmp_path, overflow_config("simulate", p=[1, 0]))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert keyed == [1]  # player 2 moves; player 1 on its vertex is never keyed


class TestFullPathMemoryGuard:
    @pytest.mark.parametrize("case", ["simulate", "simulate-block-sums", "split-demo",
                                      "mc-game", "solve-hj-p_resolution", "solve-hj-time_steps",
                                      "solve-hj-six-coordinates", "split-demo-steps",
                                      "mc-game-split-steps"])
    def test_oversized_run_exit_2_without_allocating(self, tmp_path, capsys, case):
        # simulate keeps full paths, its report two sums per block of paths,
        # split-demo only the terminal states, mc-game one path integral per
        # path, solve-hj two value grids and its solve's temporaries, none of
        # which is ever built, and a split its switch times
        subcommand = next(sub for sub in cli.SUBCOMMANDS if case.startswith(sub))
        if case == "simulate":
            cfg = base_sim_config(n_paths=10**9)
            kept = "sim.n_paths: 1000000000 full paths"
        elif case == "simulate-block-sums":
            # at 2**20 steps a block holds one path, and each keeps two
            # (2**20 + 1, 2) sums until the report adds them up
            cfg = base_sim_config(n_paths=400, dt=2**-20)
            cfg["sim"]["controls"]["u"] = {"kind": "zero"}
            cfg["sim"]["dump_trajectories"] = False
            kept = "sim.n_paths: 400 paths' sums over 400 blocks of 1048577 x 2"
        elif case == "split-demo":
            cfg = {"schema_version": 1, "seed": 0, "split": {"steps": 64, "horizon": 0.125},
                   "sim": {"n_paths": 10**9}}
            kept = "sim.n_paths: 1000000000 terminal states"
        elif case == "mc-game":
            cfg = mc_game_config()
            cfg["arena"]["n_paths"] = 10**9
            kept = "arena.n_paths: 1000000000 path integrals"
        elif case == "solve-hj-p_resolution":
            cfg = json.loads((CONFIGS / "hj_simplex3.json").read_text())
            cfg["hamiltonian"]["path"] = str(CONFIGS / cfg["hamiltonian"]["path"])
            cfg["hj"]["p_resolution"] = 100_000
            kept = "hj: two value grids of 33 x 5000150001 x 1 nodes"
        elif case == "solve-hj-time_steps":
            cfg = json.loads((CONFIGS / "hj_bilinear.json").read_text())
            cfg["hj"]["time_steps"] = 10**7
            kept = "hj: two value grids of 10000001 x 101 x 101 nodes"
        elif case == "solve-hj-six-coordinates":
            # the value grids take 0.95 GB, under the limit, and with the solve's
            # temporaries 5.3 GB
            cfg = {"schema_version": 1,
                   "hamiltonian": {"kind": "analytic", "name": "zero", "params": {"dim_p": 6}},
                   "hj": {"p_resolution": 50, "time_steps": 16}}
            kept = "hj: two value grids of 17 x 3478761 x 1 nodes and their solve's temporaries"
        elif case == "split-demo-steps":
            cfg = {"schema_version": 1, "seed": 0, "split": {"steps": 10**13, "horizon": 0.125},
                   "sim": {"n_paths": 100}}
            kept = "split: 10000000000000 control switches"
        else:
            cfg = mc_game_config()
            cfg["split"]["steps"] = 10**13
            kept = "split: 10000000000000 control switches"
        path = write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {kept}") and line.endswith(" over the 2 GiB limit")
        assert elapsed < 1.0 and peak < 16 * 2**20
        assert not (tmp_path / "o").exists()


class TestSolvePeakCounted:
    @pytest.mark.parametrize("dim_p, resolution, steps", [(2, 100, 1024), (5, 12, 16)])
    def test_refusal_counts_the_measured_peak(self, tmp_path, monkeypatch, dim_p, resolution,
                                              steps):
        # what solve-hj's size check counts bounds what the solve allocates
        counted, check = [], sde._check_kept

        def recording(size, what):
            counted.append(size)
            check(size, what)

        monkeypatch.setattr(sde, "_check_kept", recording)

        def config(res, n_steps):
            return {"schema_version": 1,
                    "hamiltonian": {"kind": "analytic", "name": "zero",
                                    "params": {"dim_p": dim_p}},
                    "hj": {"p_resolution": res, "time_steps": n_steps}}

        assert cli.run("solve-hj", config(10, 16), tmp_path / "warm") == 0
        tracemalloc.start()
        try:
            code = cli.run("solve-hj", config(resolution, steps), tmp_path / "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= counted[-1]


class TestMcGameCommand:
    def test_report_keyed_by_hash(self, tmp_path):
        path = write_config(tmp_path, mc_game_config())
        out = tmp_path / "o"
        assert cli.main(["mc-game", "--config", str(path), "--out", str(out)]) == 0
        name, report = read_report(out)
        assert report["config_hash"] == name
        assert report["mc_game"]["lower"] <= report["mc_game"]["upper"] + 1e-12

    def test_concurrent_runs_keep_every_entry(self, tmp_path):
        cfg = mc_game_config()
        cfg["arena"]["n_paths"] = 20
        out = tmp_path / "o"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                codes = list(pool.map(lambda seed: cli.run("mc-game", cfg, out, seed=seed),
                                      range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert codes == [cli.EXIT_OK] * 8
        artifacts = sorted(out.iterdir())
        assert len(artifacts) == 8 and all(d.is_dir() for d in artifacts)
        for d in artifacts:
            assert sorted(p.name for p in d.iterdir()) == ["report.json"]
            report = json.loads((d / "report.json").read_text())
            assert report["config_hash"] == d.name and "table" in report["mc_game"]


def fast_configs(tmp_path, monkeypatch):
    """One small config per subcommand; verify runs one passing stub check."""
    monkeypatch.setattr(acceptance, "run_all", lambda seed, threads: [
        acceptance.CheckResult("stub", True, 0.0, 1.0, "stub check")])
    cfg = base_sim_config()
    cfg["sim"]["dump_trajectories"] = False
    mc = mc_game_config()
    mc["arena"]["n_paths"] = 20
    return {
        "solve-hj": {"schema_version": 1, "hamiltonian": {"kind": "analytic", "name": "zero"},
                     "hj": {"p_resolution": 20, "time_steps": 16}},
        "simulate": cfg,
        "split-demo": {"schema_version": 1, "seed": 0, "split": {"steps": 64, "horizon": 0.125},
                       "sim": {"n_paths": 500}},
        "mc-game": mc,
        "verify": {"schema_version": 1},
    }


def read_report(out):
    (artifact,) = [d for d in out.iterdir() if d.is_dir()]
    return artifact.name, json.loads((artifact / "report.json").read_text())


class TestReport:
    @pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
    def test_report_holds_the_hash_and_the_subcommand_key(self, tmp_path, monkeypatch,
                                                          subcommand):
        cfg = fast_configs(tmp_path, monkeypatch)[subcommand]
        out = tmp_path / "o"
        argv = [subcommand, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        name, report = read_report(out)
        assert sorted(report) == sorted(["config_hash", subcommand.replace("-", "_")])
        assert report["config_hash"] == name

    @pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
    def test_out_root_holds_only_hash_directories(self, tmp_path, monkeypatch, subcommand):
        cfg = fast_configs(tmp_path, monkeypatch)[subcommand]
        out = tmp_path / "o"
        argv = [subcommand, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        (artifact,) = out.iterdir()
        assert artifact.is_dir() and artifact.name == cli.config_hash(cfg)

    @pytest.mark.parametrize("subcommand, module, attr, force, verdict", [
        ("simulate", sde, "simulation_report",
         lambda rep: replace(rep, mean_dev=rep.mean_dev + 1.0), lambda p: p["martingale_ok"]),
        ("split-demo", splitting, "landing_report",
         lambda rep: replace(rep, mean_dev=1.0), lambda p: p["martingale_ok"]),
        ("mc-game", arena, "value_bracket",
         lambda br: replace(br, lower=br.upper + 1.0, lower_se=0.0, upper_se=0.0),
         lambda p: p["ordered"]),
        ("verify", acceptance, "run_all",
         lambda results: [replace(results[0], passed=False)], lambda p: p[0]["passed"]),
    ], ids=["simulate", "split-demo", "mc-game", "verify"])
    def test_failed_verdict_exit_1_with_the_report(self, tmp_path, monkeypatch, subcommand,
                                                    module, attr, force, verdict):
        cfg = fast_configs(tmp_path, monkeypatch)[subcommand]
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args, **kwargs: force(real(*args, **kwargs)))
        out = tmp_path / "o"
        argv = [subcommand, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CHECK_FAILED
        _, report = read_report(out)
        assert verdict(report[subcommand.replace("-", "_")]) is False


class TestEntryPoints:
    def test_python_m_splitgame_runs_main(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "splitgame", "solve-hj"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == cli.EXIT_CONFIG
        assert done.stderr == "config error: --config is required for this subcommand\n"

    def test_every_exported_name_resolves(self):
        # a stale __all__ entry breaks only the star import
        assert all(hasattr(splitgame, name) for name in splitgame.__all__)
        namespace = {}
        exec("from splitgame import *", namespace)
        assert set(splitgame.__all__) <= set(namespace)
