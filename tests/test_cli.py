"""End-to-end CLI behavior: artifacts, manifests, exit codes, replay."""

import json
import subprocess
import sys

import numpy as np
import pytest

from reflectsde.cli import main
from reflectsde.domain import HalfSpace, NumericalError
from reflectsde.experiments import build_driver, config_digest
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

    def test_experiment_mismatch(self, tmp_path, capsys):
        code = main(["penalize", "--config", "halfline-threejump", "--out", str(tmp_path)])
        assert code == 1
        assert "skorokhod" in capsys.readouterr().err

    def test_h_outside_domain(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        driver = dict(SIMULATE_CFG["driver"], h={"kind": "constant", "x0": -1.0})
        cfg.write_text(json.dumps(dict(SIMULATE_CFG, driver=driver)))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "inside the domain" in err

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

        def no_constant(name):
            raise ValueError(f"report.json holds {name}")

        text = (out / "report.json").read_text()
        report = json.loads(text, parse_constant=no_constant)
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
