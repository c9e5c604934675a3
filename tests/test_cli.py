"""End-to-end CLI behavior: artifacts, manifests, exit codes, replay."""

import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reflectsde
from reflectsde.cli import main
from reflectsde.domain import HalfSpace, NumericalError
from reflectsde.experiments import build_driver, builtin_config, config_digest
from reflectsde.path import StepPath
from reflectsde.penalty import PenalizedPath
from reflectsde.sde import Grid, Identity, euler_penalized_batch, sample_driver_batch
from reflectsde.skorokhod import oracle_halfline

THREEJUMP = StepPath(
    [0.0, 0.25, 0.5, 0.75], [[0.5], [-0.75], [1.0], [-0.25]], q=1.0
)

SIMULATE_CFG = {
    "experiment": "simulate",
    "domain": {"variant": "halfline"},
    "driver": {
        "dim": 1,
        "h": {"kind": "constant", "x0": 0.5},
        "z": [{"kind": "brownian", "sigma": 1.0}],
    },
    "grid": {"q": 1.0, "cells": 32},
    "coefficient": {"kind": "identity"},
    "n": 100.0,
    "paths": 20,
    "seed": 3,
    "keep_paths": 2,
}


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""

    def no_constant(name):
        raise ValueError(f"JSON holds {name}")

    return json.loads(text, parse_constant=no_constant)


def with_jumps(tag, params, rate=2.0):
    """Config override: SIMULATE_CFG's driver with compound Poisson jumps."""
    jumps = {
        "kind": "compound_poisson",
        "rate": rate,
        "jumps": {"tag": tag, "params": params},
    }
    return {"driver": dict(SIMULATE_CFG["driver"], z=[jumps])}


def on_plane(h=None, z=None):
    """Config override: a d = 2 box with a driver whose H or Z replaces a
    constant start at the centre and a unit Brownian integrator."""
    driver = {
        "dim": 2,
        "h": h or {"kind": "constant", "x0": [0.5, 0.5]},
        "z": z or [{"kind": "brownian", "sigma": 1.0}],
    }
    domain = {"variant": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
    return {"domain": domain, "driver": driver}


class TestSkorokhodCommand:
    def test_builtin_config_writes_verified_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "skorokhod",
                "--config",
                "halfline-threejump",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        ref = oracle_halfline(THREEJUMP)
        x = StepPath.from_csv((out / "x.csv").read_text(), q=1.0)
        k = StepPath.from_csv((out / "k.csv").read_text(), q=1.0)
        assert np.array_equal(x.values, ref.x.values)
        assert np.array_equal(x.times, ref.x.times)
        assert np.array_equal(k.values, ref.k.values)
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        names = [e["name"] for e in report["entries"]]
        assert names == [
            "decomposition_residual",
            "containment_residual",
            "support_residual",
            "normal_residual",
        ]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and all(line.startswith("pass ") for line in lines)

    def test_manifest_hash_matches_config(self, tmp_path):
        out = tmp_path / "run"
        assert main(["skorokhod", "--config", "halfline-threejump", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "skorokhod"
        assert manifest["config_sha256"] == config_digest(manifest["config"])
        assert manifest["format"] == "csv"
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "reflectsde": reflectsde.__version__,
        }

    def test_json_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "skorokhod",
                "--config",
                "halfline-threejump",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads((out / "x.json").read_text())
        assert payload["q"] == 1.0
        assert payload["times"] == [0.0, 0.25, 0.5, 0.75]
        assert payload["values"][1] == [0.0]


class TestConfigErrors:
    def test_unknown_builtin(self, tmp_path, capsys):
        code = main(["skorokhod", "--config", "no-such-config", "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code = main(["skorokhod", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_deeply_nested_json_file(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid JSON" in err

    def test_experiment_mismatch(self, tmp_path, capsys):
        code = main(["penalize", "--config", "halfline-threejump", "--out", str(tmp_path)])
        assert code == 1
        assert "skorokhod" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tol",
        [float("nan"), float("inf"), -1e-9, "tight"],
        ids=["nan", "infinite", "negative", "string"],
    )
    def test_bad_skorokhod_tol(self, tmp_path, capsys, tol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(builtin_config("halfline-threejump"), tol=tol)))
        out = tmp_path / "run"
        code = main(["skorokhod", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: skorokhod:") and err.count("\n") == 1
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "command, cfg, where",
        [
            pytest.param("simulate", dict(SIMULATE_CFG, n="X"), "n", id="simulate-n"),
            pytest.param(
                "simulate",
                {**SIMULATE_CFG, **with_jumps("normal", [0.0, "X"])},
                "driver.z[0].jumps.params[1]",
                id="simulate-jump-param",
            ),
            pytest.param(
                "penalize",
                dict(builtin_config("halfline-threejump"), n_list=[1.0, "X"]),
                "n_list[1]",
                id="penalize-rate",
            ),
            pytest.param(
                "converge",
                dict(builtin_config("tail-structure"), etas=[0.5, "X"]),
                "etas[1]",
                id="converge-eta",
            ),
        ],
    )
    @pytest.mark.parametrize("token", ["1e400", "-Infinity", "NaN"])
    def test_non_finite_number(self, tmp_path, capsys, command, cfg, where, token):
        # JSON reads 1e400 as inf; no such number reaches a runner
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cfg, experiment=command)).replace('"X"', token))
        out = tmp_path / "run"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: {command}: {where} must be finite, got ")
        assert not out.exists()

    def test_h_outside_domain(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        driver = dict(SIMULATE_CFG["driver"], h={"kind": "constant", "x0": -1.0})
        cfg.write_text(json.dumps(dict(SIMULATE_CFG, driver=driver)))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "inside the domain" in err
        # the runner's check comes before the output directory is made
        assert not out.exists()

    def test_h_past_the_float_range_outside_wedge(self, tmp_path, capsys):
        # the start projects to the apex at an overflowing distance: outside,
        # so the run stops at the check instead of projecting it at all
        cfg = tmp_path / "cfg.json"
        h = {"kind": "constant", "x0": [-1e308, 0.27]}
        wedge = FUZZ_BASES["simulate-wedge"][1]["domain"]
        driver = on_plane(h=h)["driver"]
        cfg.write_text(json.dumps(dict(SIMULATE_CFG, driver=driver, domain=wedge)))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "driver.h must start inside the domain" in err
        assert not out.exists()

    def test_out_names_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        argv = ["skorokhod", "--config", "halfline-threejump", "--out", str(taken)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: --out {taken}: ")
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["converge", "--config", "cp-oscillation", "--paths", "4"], "report.json"),
            (["skorokhod", "--config", "halfline-threejump"], "x.csv"),
        ],
        ids=["report", "artifact"],
    )
    def test_out_file_cannot_be_written(self, tmp_path, capsys, argv, blocked):
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: --out {out}: ")

    def test_config_names_a_directory(self, tmp_path, capsys):
        folder = tmp_path / "configs"
        folder.mkdir()
        out = tmp_path / "run"
        assert main(["skorokhod", "--config", str(folder), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: config {folder}: ")
        assert not out.exists()

    def test_config_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"experiment": "skorokhod", "tag": "\xff\xfe"}')
        out = tmp_path / "run"
        assert main(["skorokhod", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: config {cfg}: ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["max_numerical_failures", "keep_paths"])
    def test_negative_simulate_count(self, tmp_path, capsys, key):
        # -1 failures allowed would fail a clean run; -1 kept paths would
        # silently keep none
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SIMULATE_CFG, **{key: -1})))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: simulate: {key} must be nonnegative")
        assert not out.exists()

    def test_coefficient_dimension(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        coefficient = {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        cfg.write_text(json.dumps(dict(SIMULATE_CFG, coefficient=coefficient)))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "coefficient dimension" in err

    def test_converge_needs_a_path(self, tmp_path, capsys):
        argv = ["converge", "--config", "cp-oscillation", "--paths", "0"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert "at least one path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, override",
        [
            pytest.param(
                "coefficient",
                {"coefficient": {"kind": "constant", "matrix": [[1.0, 2.0]]}},
                id="non-square-matrix",
            ),
            pytest.param(
                "coefficient",
                {"coefficient": {"kind": "diag_affine", "base": -1.0, "slope": 0.0}},
                id="negative-base",
            ),
            pytest.param(
                "coefficient",
                {"coefficient": {"kind": "power_diag", "alpha": 2.0}},
                id="alpha-above-one",
            ),
            pytest.param(
                "driver.z", with_jumps("exponential", [-1.0]), id="negative-scale"
            ),
            pytest.param("driver.z", with_jumps("cauchy", [1.0]), id="unknown-tag"),
            pytest.param(
                "driver.z",
                with_jumps("normal", [0.0, 1.0], rate=-2.0),
                id="negative-rate",
            ),
            pytest.param(
                "driver.z", with_jumps("normal", [1.0]), id="one-normal-param"
            ),
            pytest.param(
                "driver",
                on_plane(h={"kind": "constant", "x0": [0.5, 0.5, 0.5]}),
                id="h-start-length-3",
            ),
            pytest.param(
                "driver",
                on_plane(
                    z=[
                        {
                            "kind": "compound_poisson",
                            "rate": 2.0,
                            "jumps": {"tag": "constant", "params": [1.0, 1.0, 1.0]},
                        }
                    ]
                ),
                id="constant-jump-length-3",
            ),
            pytest.param(
                "driver",
                on_plane(
                    h={
                        "kind": "table",
                        "times": [0.0, 0.5],
                        "values": [0.5, 0.7],
                        "q": 1.0,
                    }
                ),
                id="table-path-1d",
            ),
            pytest.param(
                "driver",
                on_plane(z=[{"kind": "brownian", "sigma": [1.0, 1.0, 1.0]}]),
                id="sigma-length-3",
            ),
            pytest.param(
                "driver",
                on_plane(z=[{"kind": "drift", "rate": [1.0, 1.0, 1.0]}]),
                id="drift-rate-length-3",
            ),
            pytest.param(
                "domain",
                {"domain": {"variant": "ball", "center": [0.0], "radius": "x"}},
                id="ball-radius-string",
            ),
            pytest.param(
                "domain",
                {"domain": {"variant": "ball", "center": [0.0], "radius": None}},
                id="ball-radius-null",
            ),
            pytest.param(
                "domain.faces",
                {"domain": {"variant": "polyhedron", "faces": "x", "anchor": [1.0]}},
                id="polyhedron-faces-string",
            ),
            pytest.param(
                "domain",
                {
                    "domain": {
                        "variant": "polyhedron",
                        "faces": [{"normal": [1.0], "offset": None}],
                        "anchor": [1.0],
                    }
                },
                id="face-offset-null",
            ),
            pytest.param(
                "domain",
                {"domain": {"variant": "halfline", "anchor": {"a": 1}}},
                id="halfline-anchor-object",
            ),
        ],
    )
    def test_builder_errors(self, tmp_path, capsys, section, override):
        # rejected while the config is built, before any sampling
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(SIMULATE_CFG, **override)))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: {section}: ")

    @pytest.mark.parametrize(
        "name, override, code, message",
        [
            pytest.param(
                "rbm-benchmark",
                {"paths": 50, "cells": 8},
                1,
                "config error: converge: need at least 100 samples",
                id="too-few-ks-samples",
            ),
            pytest.param(
                "tail-structure",
                {"paths": 50, "cells": 8, "delta": 0.0},
                1,
                "config error: converge: float division by zero",
                id="zero-delta",
            ),
            pytest.param(
                "rbm-benchmark",
                {"paths": 100, "cells": 8, "q": 1e308},
                2,
                "numerical error: overflow",
                id="horizon-overflows",
            ),
        ],
    )
    def test_study_errors(self, tmp_path, capsys, name, override, code, message):
        # raised while a study runs, not while its config is read
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**builtin_config(name), **override}))
        assert main(["converge", "--config", str(path), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(message)

    def test_missing_section(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "simulate"}))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1


class TestSimulateCommand:
    def test_replay_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CFG))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == ["manifest.json", "path_0.csv", "path_1.csv", "report.json"]
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flag_overrides_land_in_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CFG))
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--seed",
                "123",
                "--paths",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 123
        assert manifest["config"]["paths"] == 7
        report = json.loads((out / "report.json").read_text())
        assert report["params"]["seed"] == 123
        assert report["params"]["paths"] == 7

    def test_json_artifacts_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CFG))
        out = tmp_path / "run"
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out), "--format", "json"]
        )
        assert code == 0
        sol = PenalizedPath.from_json((out / "path_0.json").read_text())
        assert sol.q == 1.0
        assert sol.times.shape[0] == 33

    def test_numerical_failures_exit_code(self, tmp_path, capsys):
        # jumps of scale 1e308 overflow: every path they touch fails
        cfg = dict(SIMULATE_CFG)
        cfg["driver"] = dict(
            SIMULATE_CFG["driver"],
            z=[
                {
                    "kind": "compound_poisson",
                    "rate": 2.0,
                    "jumps": {"tag": "normal", "params": [0.0, 1e308]},
                }
            ],
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failures")
        # outputs still written for diagnosis, as strict JSON
        report = strict_json((out / "report.json").read_text())
        assert report["all_passed"] is False
        assert report["params"]["final_mean_1"] is None
        failures = report["params"]["numerical_failures"]
        assert failures and all(f["error"] for f in failures)
        assert len({f["path"] for f in failures}) == len(failures)
        assert report["entries"][0]["value"] == len(failures)
        # every path left out of the statistics is listed: a non-finite
        # state, or finite states whose penalty variation overflows
        grid = Grid.regular(1.0, 32)
        halfline = HalfSpace([1.0], 0.0)
        with np.errstate(over="ignore"):
            H, Z = sample_driver_batch(build_driver(cfg["driver"]), grid, 3, 20)
            states, projections = euler_penalized_batch(
                halfline, Identity(1), H, Z, 100.0, grid
            )
            bad = [
                i
                for i in range(20)
                if not np.isfinite(states[i]).all()
                or not np.isfinite(
                    PenalizedPath(
                        100.0, grid.times, states[i], projections[i], 1.0
                    ).penalty_variation()
                )
            ]
        assert sorted(f["path"] for f in failures) == bad
        reasons = {f["error"] for f in failures}
        assert "penalty variation not finite" in reasons

    def test_projection_failure_counts_only_its_path(self, tmp_path, monkeypatch):
        # a projection that diverges below a cut only the lowest path crosses
        spec = build_driver(SIMULATE_CFG["driver"])
        grid = Grid.regular(1.0, 32)
        H, Z = sample_driver_batch(spec, grid, 3, 20)
        halfline = HalfSpace([1.0], 0.0)
        states, _ = euler_penalized_batch(halfline, Identity(1), H, Z, 100.0, grid)
        lows = states.min(axis=(1, 2))
        worst = int(np.argmin(lows))
        cut = 0.5 * (lows[worst] + np.min(np.delete(lows, worst)))

        project = HalfSpace.project_points

        def flaky(self, X):
            out = project(self, X)
            low = np.asarray(X)[:, 0] < cut
            if low.any():
                out[low] = np.nan
                raise NumericalError("forced failure", out)
            return out

        monkeypatch.setattr(HalfSpace, "project_points", flaky)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CFG))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        failures = report["params"]["numerical_failures"]
        assert [f["path"] for f in failures] == [worst]

    def test_uncertified_projection_reason(self, tmp_path, monkeypatch):
        # past the block bound with the NNLS capped at two steps, rows that
        # pass the apex of a 10-degree wedge have no certified projection
        monkeypatch.setattr("reflectsde.domain._ENTRIES_PER_BLOCK", 0)
        monkeypatch.setattr("reflectsde.domain._NNLS_MAX_ITER", 2)
        angle = np.radians(10.0)
        faces = [[0.0, 1.0], [float(np.sin(angle)), float(-np.cos(angle))]]
        cfg = dict(
            SIMULATE_CFG,
            domain={
                "variant": "polyhedron",
                "anchor": [2.0, 0.1],
                "faces": [{"normal": a, "offset": 0.0} for a in faces],
            },
            driver={
                "dim": 2,
                "h": {"kind": "constant", "x0": [2.0, 0.1]},
                "z": [{"kind": "brownian", "sigma": 2.0}],
            },
            grid={"q": 1.0, "cells": 16},
            paths=12,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        failures = report["params"]["numerical_failures"]
        assert 0 < len(failures) < 12
        reasons = {f["error"] for f in failures}
        assert reasons == {"state not finite or projection not certified"}

    def test_numerical_error_during_run(self, tmp_path, monkeypatch, capsys):
        import reflectsde.cli as cli_mod

        def boom(cfg):
            raise NumericalError("projection diverged")

        monkeypatch.setitem(cli_mod._RUNNERS, "simulate", boom)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CFG))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "projection diverged" in capsys.readouterr().err


class TestConvergeCommand:
    def test_failed_check_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "converge",
                    "benchmark": "rbm",
                    "seed": 1,
                    "paths": 200,
                    "cells": 64,
                    "n": 256.0,
                    "ks_threshold": 1e-09,
                }
            )
        )
        out = tmp_path / "run"
        code = main(["converge", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "FAIL ks_half_normal" in capsys.readouterr().out
        assert (out / "convergence.csv").exists()
        table = (out / "convergence.csv").read_text().splitlines()
        assert table[0] == "n,mesh,M,statistic,value,threshold,pass"

    def test_penalize_rate_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "penalize",
                    "domain": {"variant": "halfline"},
                    "path": {
                        "times": [0.0, 0.5],
                        "values": [[0.5], [-1.0]],
                        "q": 1.0,
                    },
                    "n_list": [9.0, 100.0],
                    "delta": 0.5,
                }
            )
        )
        out = tmp_path / "run"
        code = main(["penalize", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        sampled = StepPath.from_csv((out / "penalized_n9.csv").read_text(), q=1.0)
        assert sampled.values[1, 0] == pytest.approx(-1.0)
        rates = (out / "rates.csv").read_text().splitlines()
        assert len(rates) == 3  # header + one row per rate


@pytest.mark.parametrize("command", ["skorokhod", "penalize"])
def test_overflowing_driver_is_a_numerical_error(tmp_path, capsys, command):
    # the first step leaves the float range: a numerical failure of the
    # run (exit 2), not an invalid config
    cfg = tmp_path / "cfg.json"
    path = {"times": [0.0, 0.5], "values": [[1e308], [-1e308]], "q": 1.0}
    cfg.write_text(json.dumps({"domain": {"variant": "halfline"}, "path": path}))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, statistic, table",
    [
        ("converge", "strong-refinement", "median_sup_distance", "convergence"),
        ("penalize", None, "penalty_variation", "rates"),
    ],
)
def test_rows_without_threshold_are_null(tmp_path, command, config, statistic, table):
    if config is None:
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "experiment": "penalize",
                    "domain": {"variant": "halfline"},
                    "path": {
                        "times": THREEJUMP.times.tolist(),
                        "values": THREEJUMP.values.tolist(),
                        "q": 1.0,
                    },
                    "n_list": [1.0, 100.0],
                }
            )
        )
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    report = strict_json((out / "report.json").read_text())
    rows = report["tables"][table]
    assert rows and all(r["statistic"] == statistic for r in rows)
    assert all(r["threshold"] is None for r in rows)
    # the CSV table keeps writing a missing threshold as nan
    lines = (out / f"{table}.csv").read_text().splitlines()[1:]
    assert [line.split(",")[5] for line in lines] == ["nan"] * len(rows)


def test_cli_import_leaves_scipy_out():
    # scipy is a test oracle, not a runtime dependency
    code = (
        "import sys, reflectsde.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_console_entry_point(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "reflectsde.cli",
            "skorokhod",
            "--config",
            "halfline-threejump",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()
    assert "pass decomposition_residual" in proc.stdout


# Small versions of every built-in, of SIMULATE_CFG on the half-line, a
# ball and a two-face wedge, and of a penalize sweep on the three-jump
# path: the bases the fuzz test perturbs.
FUZZ_BASES = {
    "halfline-threejump": ("skorokhod", {}),
    "rbm-benchmark": ("converge", {"paths": 100, "cells": 8}),
    "cp-oscillation": ("converge", {"paths": 20, "cells": 16}),
    "strong-refinement": (
        "converge",
        {"paths": 8, "levels": [[100.0, 4], [1e4, 8]], "reference_factor": 2},
    ),
    "tail-structure": ("converge", {"paths": 50, "cells": 8}),
    "simulate": ("simulate", {"paths": 8, "grid": {"q": 1.0, "cells": 8}}),
    "simulate-ball": (
        "simulate",
        {
            **on_plane(),
            "domain": {"variant": "ball", "center": [0.5, 0.5], "radius": 1.0},
            "paths": 8,
            "grid": {"q": 1.0, "cells": 8},
        },
    ),
    "simulate-wedge": (
        "simulate",
        {
            **on_plane(
                h={"kind": "constant", "x0": [1.0, 0.2679491924311227]},
                z=[
                    {"kind": "brownian", "sigma": 1.0},
                    {
                        "kind": "compound_poisson",
                        "rate": 2.0,
                        "jumps": {"tag": "normal", "params": [0.0, 0.5]},
                    },
                ],
            ),
            "domain": {
                "variant": "polyhedron",
                "anchor": [2.0, 0.5358983848622454],
                "faces": [
                    {"normal": [0.0, 1.0], "offset": 0.0},
                    {"normal": [0.5, -0.8660254037844387], "offset": 0.0},
                ],
            },
            "coefficient": {"kind": "diag_affine", "base": 0.5, "slope": 0.25},
            "paths": 8,
            "grid": {"q": 1.0, "cells": 8},
        },
    ),
    "penalize": ("penalize", {"n_list": [1.0, 100.0], "delta": 0.5}),
}
# keys that size the work: never made huge, so a run stays small
FUZZ_SIZE_KEYS = {"paths", "cells", "keep_paths", "levels", "reference_factor", "dim"}
FUZZ_KIND_KEYS = {"experiment", "benchmark", "variant", "kind", "tag"}


def fuzz_base(name):
    command, overrides = FUZZ_BASES[name]
    if command == "simulate":
        cfg = SIMULATE_CFG
    elif name == "penalize":
        cfg = dict(builtin_config("halfline-threejump"), experiment="penalize")
    else:
        cfg = builtin_config(name)
    return command, json.loads(json.dumps({**cfg, **overrides}))


def fuzz_locations(node, prefix=()):
    """Key paths of every entry of a JSON tree, inner and leaf."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from fuzz_locations(child, prefix + (key,))


@st.composite
def perturbed_configs(draw):
    """A base config with one entry dropped, retyped, resized, made
    negative, zero, NaN, infinite or huge, or given an unknown kind."""
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    command, cfg = fuzz_base(name)
    mutation = draw(
        st.sampled_from(
            [
                "drop",
                "type",
                "length",
                "negative",
                "zero",
                "nan",
                "inf",
                "huge",
                "kind",
            ]
        )
    )
    places = list(fuzz_locations(cfg))
    if mutation == "kind":
        places = [p for p in places if p[-1] in FUZZ_KIND_KEYS]
    elif mutation == "huge":
        places = [p for p in places if not FUZZ_SIZE_KEYS.intersection(p)]
    where = draw(st.sampled_from(places))
    parent = cfg
    for key in where[:-1]:
        parent = parent[key]
    key, value = where[-1], parent[where[-1]]
    if mutation == "drop":
        del parent[key]
    elif mutation == "type":
        parent[key] = draw(st.sampled_from(["x", None, True, {}, [], [[1.0]]]))
    elif mutation == "length":
        if isinstance(value, list) and value and draw(st.booleans()):
            parent[key] = value[1:]
        elif isinstance(value, list):
            parent[key] = value + value[-1:]
        else:
            parent[key] = [value] * draw(st.integers(0, 3))
    elif mutation == "negative":
        parent[key] = -value if isinstance(value, (int, float)) and value else -1.0
    elif mutation == "zero":
        parent[key] = 0
    elif mutation == "nan":
        parent[key] = float("nan")
    elif mutation == "inf":
        parent[key] = draw(st.sampled_from([float("inf"), float("-inf")]))
    elif mutation == "huge":
        parent[key] = draw(st.sampled_from([1e308, -1e308]))
    else:
        parent[key] = "bogus"
    return command, cfg


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(perturbed_configs())
def test_cli_exit_codes_on_perturbed_configs(case):
    # any config, however malformed, ends in an exit code, never a traceback,
    # and every JSON file a run writes is strict JSON
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "run"
        code = main([command, "--config", str(path), "--out", str(out)])
        for written in out.glob("*.json"):
            strict_json(written.read_text())
        # a config error leaves no output directory
        assert code != 1 or not out.exists()
    assert code in {0, 1, 2, 3}
