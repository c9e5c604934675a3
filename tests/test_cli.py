"""End-to-end CLI behavior: artifacts, manifests, exit codes, replay."""

import errno
import hashlib
import json
import os
import platform
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import OverflowingHalfSpace

import reflectsde
from reflectsde.cli import main
from reflectsde.domain import HalfSpace, NumericalError
from reflectsde import experiments, sde
from reflectsde.experiments import build_driver, builtin_config, config_digest
from reflectsde.path import StepPath
from reflectsde.penalty import PenalizedPath
from reflectsde.sde import Grid, Identity, euler_penalized_batch, sample_driver_batch
from reflectsde.skorokhod import oracle_halfline

ROOT = Path(__file__).resolve().parent.parent

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


# the three-jump path of the halfline-threejump built-in, as a penalize config
PENALIZE_CFG = {
    **{k: v for k, v in builtin_config("halfline-threejump").items() if k != "tol"},
    "experiment": "penalize",
}


def overflowing_domains(monkeypatch):
    """Build each configured half-space as an ``OverflowingHalfSpace``."""
    build = experiments.build_domain

    def overflowing(cfg):
        domain = build(cfg)
        return OverflowingHalfSpace(domain.normal, domain.offset)

    monkeypatch.setattr(experiments, "build_domain", overflowing)


def run_config(tmp_path, command, cfg, *flags):
    """Exit code of one CLI run on ``cfg``, and whether it made --out."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code = main([command, "--config", str(path), *flags, "--out", str(out)])
    return code, out.exists()


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

    def test_far_ball_checks_at_its_own_scale(self, tmp_path, capsys):
        # a jump to (3e200, 4e200) out of a ball of radius 1e200: every
        # length is finite, so the run ends in its checks, which are
        # absolute (1e-9) at a scale of 1e200, not in a numerical error
        cfg = {
            "experiment": "skorokhod",
            "domain": {"variant": "ball", "center": [0.0, 0.0], "radius": 1e200},
            "path": {"times": [0.0, 0.5], "values": [[0.0, 0.0], [3e200, 4e200]], "q": 1.0},
        }
        assert run_config(tmp_path, "skorokhod", cfg) == (3, True)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "pass decomposition_residual",
            "pass containment_residual",
            "pass support_residual",
            "FAIL normal_residual",
        ]


    def test_boundary_checks_report_the_threshold_they_apply(self, tmp_path, capsys):
        # support and normal pass at max(tol, BOUNDARY_TOL), and the report
        # says so; the jump out of a ball of radius 1e-20 lies in the normal
        # cone within rounding of its length, 4e-20
        cfg = {
            "experiment": "skorokhod",
            "domain": {"variant": "ball", "center": [0.0, 0.0], "radius": 1e-20},
            "path": {"times": [0.0, 0.5], "values": [[0.0, 0.0], [3e-20, 4e-20]], "q": 1.0},
            "tol": 1e-30,
        }
        assert run_config(tmp_path, "skorokhod", cfg) == (0, True)
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert [entry["threshold"] for entry in report["entries"]] == [1e-30, 1e-30, 1e-9, 1e-9]
        assert report["entries"][3]["value"] <= 1e-15 * 4e-20
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith("pass normal_residual:")
        assert lines[3].endswith("threshold=1e-09 (M=1, deterministic)")


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

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"paths": 1' + "0" * 5000 + "}")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid JSON" in err

    @pytest.mark.parametrize(
        "command, cfg, flags, message",
        [
            pytest.param(
                "penalize", dict(PENALIZE_CFG, n_list=[]), [],
                "penalize: empty rate sweep", id="empty-rate-sweep",
            ),
            pytest.param(
                "simulate", SIMULATE_CFG, ["--paths", "0"],
                "simulate: need at least one path", id="no-paths",
            ),
        ],
    )
    def test_runner_refuses(self, tmp_path, capsys, command, cfg, flags, message):
        assert run_config(tmp_path, command, cfg, *flags) == (1, False)
        assert capsys.readouterr().err == f"config error: {message}\n"

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

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["converge", "--config", "cp-oscillation", "--paths", "4"], "report.json"),
            (["skorokhod", "--config", "halfline-threejump"], "x.csv"),
        ],
        ids=["report", "artifact"],
    )
    def test_failed_write_leaves_no_file(self, tmp_path, argv, blocked):
        # the files are moved in only once all are written and no name is
        # taken by a directory; the user's own files stay as they were
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        (out / "notes.txt").write_bytes(b"mine\r\n")
        (out / "manifest.json").write_text("an earlier run")
        assert main([*argv, "--out", str(out)]) == 1
        left = sorted(p.name for p in out.iterdir())
        assert left == sorted([blocked, "manifest.json", "notes.txt"])
        assert list((out / blocked).iterdir()) == []
        assert (out / "notes.txt").read_bytes() == b"mine\r\n"
        assert (out / "manifest.json").read_text() == "an earlier run"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    def test_failed_write_to_a_new_out_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        inner = Path.write_text

        def full(self, text, *args, **kwargs):
            if self.name == "report.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
            return inner(self, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full)
        out = tmp_path / "new" / "run"
        argv = ["skorokhod", "--config", "halfline-threejump", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: --out {out}: No space left on device\n"
        assert not out.exists()
        assert list((tmp_path / "new").iterdir()) == []

    def test_error_while_serializing_leaves_nothing(self, tmp_path, monkeypatch):
        def broken(self):
            raise RuntimeError("serializer failed")

        monkeypatch.setattr(StepPath, "to_csv_string", broken)
        out = tmp_path / "run"
        out.mkdir()
        argv = ["skorokhod", "--config", "halfline-threejump"]
        with pytest.raises(RuntimeError, match="serializer failed"):
            main([*argv, "--out", str(out)])
        assert list(out.iterdir()) == []
        with pytest.raises(RuntimeError, match="serializer failed"):
            main([*argv, "--out", str(tmp_path / "fresh")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

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
            pytest.param(
                "tail-structure",
                {"paths": 50, "cells": 8, "q": 1e308, "delta": 1e308},
                2,
                "numerical error: overflow",
                id="distance-overflows",
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

    @pytest.mark.parametrize(
        "name, key",
        [
            ("tail-structure", "etas"),
            ("tail-structure", "n_list"),
            ("cp-oscillation", "deltas"),
            ("cp-oscillation", "epsilons"),
            ("strong-refinement", "levels"),
        ],
    )
    def test_empty_ladder(self, tmp_path, capsys, name, key):
        # a check over no cell would pass, and an empty ladder has no finest level
        _, cfg = fuzz_base(name)
        code, made = run_config(tmp_path, "converge", dict(cfg, **{key: []}))
        assert (code, made) == (1, False)
        assert capsys.readouterr().err == f"config error: converge: {key} must not be empty\n"

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

    def test_new_out_is_the_staged_directory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CFG))
        out = tmp_path / "deep" / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        names = ["manifest.json", "path_0.csv", "path_1.csv", "report.json"]
        assert sorted(p.name for p in out.iterdir()) == names
        assert [p.name for p in (tmp_path / "deep").iterdir()] == ["run"]
        # the mode a plain mkdir gives, not a private temporary one
        plain = tmp_path / "plain"
        plain.mkdir()
        assert out.stat().st_mode == plain.stat().st_mode

    def test_existing_out_keeps_the_users_files(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CFG))
        fresh = tmp_path / "fresh"
        assert main(["simulate", "--config", str(cfg), "--out", str(fresh)]) == 0
        out = tmp_path / "run"
        (out / "sub").mkdir(parents=True)
        (out / "sub" / "data.csv").write_text("1,2\n")
        (out / "notes.txt").write_text("mine")
        (out / "report.json").write_text("stale")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        names = ["manifest.json", "notes.txt", "path_0.csv", "path_1.csv", "report.json", "sub"]
        assert sorted(p.name for p in out.iterdir()) == names
        assert (out / "notes.txt").read_text() == "mine"
        assert (out / "sub" / "data.csv").read_text() == "1,2\n"
        for p in fresh.iterdir():
            assert (out / p.name).read_bytes() == p.read_bytes()
        # the default --out is the working directory
        monkeypatch.chdir(out)
        assert main(["simulate", "--config", str(cfg), "--seed", "4"]) == 0
        assert sorted(p.name for p in out.iterdir()) == names
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 4
        assert (out / "notes.txt").read_text() == "mine"

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
        # in d = 1 a finite state's gap is at most about 1e308, and these
        # gaps do not sum past the float range: only the draws fail
        assert {f["error"] for f in failures} == {"driver values not finite"}

    def test_draws_summing_inf_and_minus_inf_stay_off_stderr(self, tmp_path):
        # jumps of scale 1e308 at rate 16: some rows draw +inf and -inf,
        # whose sums are NaN; such rows are counted as failures, and the
        # run prints its one line of stderr and no warning
        jumps = with_jumps("normal", [0.0, 1e308], rate=16.0)
        cfg = dict(SIMULATE_CFG, grid={"q": 1.0, "cells": 8}, **jumps)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "run")]
        proc = subprocess.run(
            [sys.executable, "-m", "reflectsde.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("numerical failures")

    def test_gaps_summing_past_the_float_range(self, tmp_path, capsys):
        # a drift of -1.5e308 per coordinate out of a half-space: each of the
        # 32 steps leaves a finite gap of about 6.9e306, and each path's
        # variation sums to about 2.0e308, past the float range
        drift = {"kind": "drift", "rate": [-1.5e308, -1.5e308]}
        cfg = dict(
            SIMULATE_CFG,
            domain={"variant": "halfspace", "normal": [0.6, 0.8], "offset": 0.0},
            driver={"dim": 2, "h": {"kind": "constant", "x0": [1.0, 1.0]}, "z": [drift]},
        )
        code, _ = run_config(tmp_path, "simulate", cfg, "--format", "json")
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failures: 20 ")
        out = tmp_path / "run"
        report = strict_json((out / "report.json").read_text())
        error = "penalty variation not finite"
        assert report["params"]["numerical_failures"] == [
            {"error": error, "path": i} for i in range(20)
        ]
        # the states are finite, and the kept paths hold them
        sol = PenalizedPath.from_json((out / "path_0.json").read_text())
        assert np.isfinite(sol.values).all() and np.isfinite(sol.projections).all()
        with np.errstate(over="ignore"):
            assert sol.penalty_variation() == np.inf

    def test_threaded_draws_fail_as_on_one(self, tmp_path, capsys, monkeypatch):
        # a Brownian of sigma 1e308 on 1024 cells, drawn on two threads:
        # the rows whose running sum overflows fail as on one thread
        cfg = dict(SIMULATE_CFG, grid={"q": 1.0, "cells": 1024}, paths=300)
        huge = {"kind": "brownian", "sigma": 1e308}
        cfg["driver"] = dict(SIMULATE_CFG["driver"], z=[huge])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(sde, "_cpus", lambda: 2)
        runs = []
        for workers in (2, 1):
            monkeypatch.setattr(sde, "_WORKERS", workers)
            out = tmp_path / f"run{workers}"
            code = main(["simulate", "--config", str(path), "--out", str(out)])
            report = json.loads((out / "report.json").read_text())
            runs.append((code, capsys.readouterr().err, report))
        assert runs[0] == runs[1]
        code, err, report = runs[0]
        failures = report["params"]["numerical_failures"]
        assert code == 2 and err.startswith("numerical failures")
        assert 0 < len(failures) < 300

    def test_kept_paths_hold_only_kept_rows(self):
        # one batch of the kept, unfailed rows: no other row stays in memory
        cfg = dict(SIMULATE_CFG, keep_paths=20)
        sizes = {"tag": "normal", "params": [0.0, 1e308]}
        jumps = {"kind": "compound_poisson", "rate": 2.0, "jumps": sizes}
        cfg["driver"] = dict(SIMULATE_CFG["driver"], z=[jumps])
        _, artifacts = experiments.run_simulate(json.loads(json.dumps(cfg)))
        grid = Grid.regular(1.0, 32)
        with np.errstate(over="ignore", invalid="ignore"):
            H, Z = sample_driver_batch(build_driver(cfg["driver"]), grid, 3, 20)
            states, projections = euler_penalized_batch(
                HalfSpace([1.0], 0.0), Identity(1), H, Z, 100.0, grid
            )
        rows = [i for i in range(20) if np.isfinite(states[i]).all()]
        assert 0 < len(rows) < 20
        assert list(artifacts) == [f"path_{i}" for i in rows]
        for i in rows:
            path = artifacts[f"path_{i}"]
            assert path.states.tobytes() == states[i].tobytes()
            assert path.projections.tobytes() == projections[i].tobytes()
            for held in (path.states, path.projections):
                assert held.base.shape == (len(rows), 33, 1)
            assert path.times is artifacts[f"path_{rows[0]}"].times

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_last_projection_past_the_float_range(self, tmp_path, capsys, monkeypatch, fmt):
        # one step to a finite state whose projection on the test
        # half-space is infinite: the row is a failure, and no artifact
        # holds its projection
        overflowing_domains(monkeypatch)
        drift = {"kind": "drift", "rate": [-1.5e308, -1.5e308]}
        cfg = dict(
            SIMULATE_CFG,
            domain={"variant": "halfspace", "normal": [0.6, 0.8], "offset": 0.0},
            driver={"dim": 2, "h": {"kind": "constant", "x0": [1.0, 1.0]}, "z": [drift]},
            grid={"q": 1.0, "cells": 1},
            paths=1,
            keep_paths=1,
        )
        code, _ = run_config(tmp_path, "simulate", cfg, "--format", fmt)
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failures: 1 ")
        out = tmp_path / "run"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]
        report = strict_json((out / "report.json").read_text())
        error = "state not finite or projection not certified"
        assert report["params"]["numerical_failures"] == [{"error": error, "path": 0}]

    def test_numerical_error_during_run(self, tmp_path, monkeypatch, capsys):
        import reflectsde.cli as cli_mod

        def boom(cfg):
            raise NumericalError("projection diverged")

        monkeypatch.setitem(cli_mod._RUNNERS, "simulate", (boom, "simulate"))
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


def _penalized_json(n, third, fourth):
    """The JSON artifact of the three-jump path penalized at rate n; the
    last two breakpoint states lie inside, so each is its own projection."""
    return (
        f'{{"n": {n}, "q": 1.0, "segments": ['
        '{"t": 0.0, "state": [0.5], "projection": [0.5]}, '
        '{"t": 0.25, "state": [-0.75], "projection": [0.0]}, '
        f'{{"t": 0.5, "state": [{third}], "projection": [{third}]}}, '
        f'{{"t": 0.75, "state": [{fourth}], "projection": [{fourth}]}}]}}'
    )


# Path artifacts byte for byte, as the CLI wrote them before paths
# serialized themselves: the three-jump path reflected (skorokhod) and
# penalized at three rates (penalize), in both formats.
THREEJUMP_ARTIFACTS = {
    ("skorokhod", "json"): {
        "x.json": '{"q": 1.0, "times": [0.0, 0.25, 0.5, 0.75], '
        '"values": [[0.5], [0.0], [1.75], [0.5]]}',
        "k.json": '{"q": 1.0, "times": [0.0, 0.25, 0.5, 0.75], '
        '"values": [[0.0], [0.75], [0.75], [0.75]]}',
    },
    ("penalize", "csv"): {
        "penalized_n10.csv": "t,x_1\r\n0.0,0.5\r\n0.25,-0.75\r\n"
        "0.5,1.6884362510320758\r\n0.75,0.43843625103207584\r\n",
        "penalized_n100.csv": "t,x_1\r\n0.0,0.5\r\n0.25,-0.75\r\n"
        "0.5,1.749999999989584\r\n0.75,0.4999999999895841\r\n",
        "penalized_n1000.csv": "t,x_1\r\n0.0,0.5\r\n0.25,-0.75\r\n0.5,1.75\r\n0.75,0.5\r\n",
    },
    ("penalize", "json"): {
        "penalized_n10.json": _penalized_json(
            10.0, 1.6884362510320758, 0.43843625103207584
        ),
        "penalized_n100.json": _penalized_json(
            100.0, 1.749999999989584, 0.4999999999895841
        ),
        "penalized_n1000.json": _penalized_json(1000.0, 1.75, 0.5),
    },
}


# simulate on a box, a ball and a half-space in d = 2-3, for report digests
SIMULATE_DOMAINS = {
    "simulate-box": {
        "domain": {"variant": "box", "lower": [0, 0, 0], "upper": [1, 2, 1]},
        "driver": {
            "dim": 3,
            "h": {"kind": "brownian", "x0": [0.5, 0.5, 0.5], "sigma": 0.7},
            "z": [
                {"kind": "brownian", "sigma": [1.0, 0.5, 2.0]},
                {"kind": "drift", "rate": [0.5, 0.0, -0.5]},
                {
                    "kind": "compound_poisson",
                    "rate": 2.0,
                    "jumps": {"tag": "normal", "params": [0.0, 0.5]},
                },
            ],
        },
        "coefficient": {"kind": "diag_affine", "base": 0.5, "slope": 0.25},
        "n": 50.0,
    },
    "simulate-ball": {
        "domain": {"variant": "ball", "center": [0.5, 0.5], "radius": 1.0},
        "driver": {
            "dim": 2,
            "h": {"kind": "constant", "x0": [0.5, 0.5]},
            "z": [
                {"kind": "brownian", "sigma": 1.5},
                {
                    "kind": "compound_poisson",
                    "rate": 3.0,
                    "jumps": {"tag": "uniform", "params": [-1.0, 1.0]},
                },
            ],
        },
        "coefficient": {"kind": "constant", "matrix": [[1.0, 0.0], [0.3, 1.0]]},
        "n": 20.0,
    },
    "simulate-halfspace": {
        "domain": {"variant": "halfspace", "normal": [0.0, 0.6, 0.8], "offset": -0.1},
        "driver": {
            "dim": 3,
            "h": {"kind": "brownian", "x0": [0.0, 0.3, 0.4], "sigma": 0.5},
            "z": [
                {"kind": "brownian", "sigma": 1.0},
                {"kind": "drift", "rate": [0.0, -1.0, -1.0]},
            ],
        },
        "coefficient": {"kind": "power_diag", "alpha": 0.75},
        "n": 400.0,
    },
}


class TestArtifactBytes:
    # exit code and report.json by sha256: tail-structure reduces every
    # path to its sup distance and penalty variation (its small fuzz base
    # fails a check, exit 3), and simulate reports the mean variation and
    # the moments of the final states
    REPORT_DIGESTS = {
        "tail-structure": (
            3, "82d5db4a7cd4a9fb4dc63d762e403f5ddf8ae4360976861867831b53703a91cd"
        ),
        "simulate": (
            0, "15829918d72f98de8c2b0935ec66b442dbae2085305b6a6ed235b2fb2700a351"
        ),
        "simulate-ball": (
            0, "6d54d4a9c854fbe5b3a654eb51f73e6d89796645cf2b9b5e07d4cdeb86a9103f"
        ),
        "simulate-box": (
            0, "9c7ea4df70bfde88579daef6ddbc492407915d9192ebdec1e03d039f21671f08"
        ),
        "simulate-halfspace": (
            0, "2bbfe766ed585eca2110af429e7937e3d211b6e22c5f674034ccef1d0223d8f2"
        ),
    }

    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_report(self, tmp_path, name):
        command, cfg = "simulate", SIMULATE_CFG
        if name == "tail-structure":
            command, cfg = fuzz_base(name)
        elif name in SIMULATE_DOMAINS:
            cfg = dict(SIMULATE_CFG, **SIMULATE_DOMAINS[name], paths=30)
            cfg["grid"] = {"q": 1.0, "cells": 16}
        code, _ = run_config(tmp_path, command, cfg)
        digest = hashlib.sha256((tmp_path / "run" / "report.json").read_bytes())
        assert (code, digest.hexdigest()) == self.REPORT_DIGESTS[name]

    @pytest.mark.parametrize(
        "command, fmt", sorted(THREEJUMP_ARTIFACTS), ids="-".join
    )
    def test_three_jump_artifacts(self, tmp_path, command, fmt):
        cfg = dict(PENALIZE_CFG, experiment=command)
        if command == "penalize":
            cfg.update(n_list=[10.0, 100.0, 1000.0], delta=0.25)
        code, _ = run_config(tmp_path, command, cfg, "--format", fmt)
        assert code == 0
        expected = THREEJUMP_ARTIFACTS[command, fmt]
        written = {p.name for p in (tmp_path / "run").iterdir()}
        assert written - {"manifest.json", "report.json", "rates.csv"} == set(expected)
        for name, text in expected.items():
            assert (tmp_path / "run" / name).read_bytes() == text.encode()

    def test_kept_simulate_path(self, tmp_path):
        # the driver comes from numpy's Philox and normal streams, so this
        # digest holds where the sampler's stream digests in test_sde hold
        code, _ = run_config(tmp_path, "simulate", SIMULATE_CFG)
        assert code == 0
        data = (tmp_path / "run" / "path_0.csv").read_bytes()
        assert data.startswith(b"t,x_1\r\n0.0,0.5\r\n0.03125,0.37725500134336765\r\n")
        digest = hashlib.sha256(data).hexdigest()
        assert digest == "ae04609aaf23f7c70b22c6506c914fa84132fec02cc569cf2bc49e261f5504a9"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["skorokhod", "penalize"])
def test_overflowing_last_projection_is_a_numerical_error(
    tmp_path, capsys, monkeypatch, command, fmt
):
    # a finite last state whose projection on the test half-space is
    # infinite fails the run as an overflowing state does, in either format
    overflowing_domains(monkeypatch)
    domain = {"variant": "halfspace", "normal": [0.6, 0.8], "offset": 0.0}
    path = {"times": [0.0, 0.5], "values": [[1.0, 1.0], [-1.5e308, -1.5e308]], "q": 1.0}
    code, made = run_config(tmp_path, command, {"domain": domain, "path": path}, "--format", fmt)
    assert code == 2 and not made
    err = capsys.readouterr().err
    assert err == "numerical error: state not finite or projection not certified\n"


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


@pytest.mark.parametrize("seed", [7, 11])
def test_kept_wedge_paths_take_their_states(seed):
    # each kept simulate path on the benchmark's wedge, at the config's seed
    # and another, takes its stored states at its breakpoints, and its CSV
    # holds them
    wedge = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WEDGE_CONFIG"]
    _, kept = experiments.run_simulate(dict(wedge, seed=seed))
    assert len(kept) == wedge["keep_paths"]
    for path in kept.values():
        values = path.eval_many(path.times)
        assert values.tobytes() == path.states.tobytes()
        assert np.array_equal(np.signbit(values), np.signbit(path.states))
        assert path.eval(path.q).tobytes() == path.states[-1].tobytes()
        written = StepPath.from_csv(path.to_csv_string())
        assert written.values.tobytes() == path.states.tobytes()


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


# Runs each command line of argv[1] with its own --out under argv[2], then
# the 1-D energy distance; its last line is the exit codes and whether
# numpy.ma was imported.
NO_MASKED_ARRAYS = """
import json, sys
import numpy as np
from reflectsde.cli import main
from reflectsde.stats import energy_distance
runs, out = json.loads(sys.argv[1]), sys.argv[2]
codes = [main([*argv, "--out", f"{out}/{i}"]) for i, argv in enumerate(runs)]
energy_distance(np.arange(5.0), np.arange(4.0) + 0.5)
print(json.dumps([codes, "numpy.ma" in sys.modules]))
"""


def test_runs_leave_numpy_ma_out(tmp_path):
    # np.unique (np.union1d too) and np.median import numpy.ma on first use,
    # 10-15 ms inside a timed run; no command may reach them
    wedge = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WEDGE_CONFIG"]
    configs = {"wedge": wedge, "penalize": PENALIZE_CFG}
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    runs = [
        ["skorokhod", "--config", "halfline-threejump"],
        ["penalize", "--config", str(tmp_path / "penalize.json")],
        ["converge", "--config", "rbm-benchmark", "--paths", "200"],
        ["converge", "--config", "cp-oscillation", "--paths", "20"],
        ["converge", "--config", "strong-refinement", "--paths", "20"],
        ["converge", "--config", "tail-structure", "--paths", "20"],
        ["simulate", "--config", str(tmp_path / "wedge.json"), "--paths", "16"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, json.dumps(runs), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes, imported = json.loads(proc.stdout.splitlines()[-1])
    # small samples may fail a statistical check (exit 3), never a run
    assert all(code in (0, 3) for code in codes), codes
    assert not imported


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
        cfg = PENALIZE_CFG
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
    """A base config with one entry dropped, renamed, retyped, resized,
    made negative, zero, NaN, infinite or huge, or given an unknown kind."""
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    command, cfg = fuzz_base(name)
    mutation = draw(
        st.sampled_from(
            [
                "drop",
                "rename",
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
    elif mutation == "rename":
        places = [p for p in places if isinstance(p[-1], str)]
    where = draw(st.sampled_from(places))
    parent = cfg
    for key in where[:-1]:
        parent = parent[key]
    key, value = where[-1], parent[where[-1]]
    if mutation == "drop":
        del parent[key]
    elif mutation == "rename":
        parent[key + "_"] = parent.pop(key)
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
    return command, cfg, mutation


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
    command, cfg, mutation = case
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
    # a renamed key is unknown to its section's table
    assert mutation != "rename" or code == 1


def table_defaults():
    """(command, study tag, key, default) of every default in the config
    tables; the study tag is None outside converge."""
    for command, entry in experiments._COMMANDS.items():
        tables = entry.tables.items() if command == "converge" else [(None, entry)]
        for tag, table in tables:
            for key, default in table.items():
                if isinstance(default, (float, int, str, tuple)):
                    yield command, tag, key, default


# study defaults that no report's params show: they shape rows and thresholds
UNREPORTED = {
    "rbm": {"mean_sigmas"},
    "cp-oscillation": {"q", "deltas", "epsilons"},
    "strong-refinement": {"q", "reference_factor"},
    "tail-structure": {"q", "n_list", "etas", "headroom"},
}


def small_converge(benchmark):
    """The built-in of a convergence study, sized as its fuzz base."""
    name = {"rbm": "rbm-benchmark"}.get(benchmark, benchmark)
    return {**builtin_config(name), **FUZZ_BASES[name][1]}


class TestConfigSchema:
    @pytest.mark.parametrize(
        "command, cfg, flags, message",
        [
            pytest.param(
                "simulate", dict(SIMULATE_CFG, pahts=3), [],
                "simulate: pahts: unknown key", id="misspelled-key",
            ),
            pytest.param(
                "simulate", dict(SIMULATE_CFG, paths=True), [],
                "simulate: paths must be an integer, got a boolean", id="bool-count",
            ),
            pytest.param(
                "simulate", dict(SIMULATE_CFG, paths=2.7), [],
                "simulate: paths must be an integer, got 2.7", id="fractional-count",
            ),
            pytest.param(
                "simulate", dict(SIMULATE_CFG, seed="5"), [],
                "simulate: seed must be an integer, got a string", id="string-seed",
            ),
            pytest.param(
                "simulate",
                dict(SIMULATE_CFG, driver=dict(SIMULATE_CFG["driver"], dim=1.5)),
                [],
                "driver: dim must be an integer, got 1.5",
                id="fractional-dim",
            ),
            pytest.param(
                "simulate",
                dict(SIMULATE_CFG, domain={"variant": "halfline", "anchr": [1.0]}),
                [],
                "simulate: domain.anchr: unknown key",
                id="misspelled-domain-key",
            ),
            pytest.param(
                "penalize", dict(PENALIZE_CFG, n_list="12"), [],
                "penalize: n_list must be a list, got a string", id="string-rates",
            ),
            pytest.param(
                "converge", dict(small_converge("cp-oscillation"), deltas="42"), [],
                "converge: deltas must be a list, got a string", id="string-deltas",
            ),
            pytest.param(
                "converge",
                dict(small_converge("strong-refinement"), levels=[[100.0, True], [1e4, 8]]),
                [],
                "converge: levels[0][1] must be an integer, got a boolean",
                id="bool-cells",
            ),
            pytest.param(
                "skorokhod", builtin_config("halfline-threejump"), ["--seed", "5"],
                "skorokhod: seed: unknown key", id="seed-flag-without-seed",
            ),
        ],
    )
    def test_once_silent_configs_are_refused(
        self, tmp_path, capsys, command, cfg, flags, message
    ):
        # each of these ran and exited 0 before the config schema existed
        assert run_config(tmp_path, command, cfg, *flags) == (1, False)
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_absent_coefficient_is_the_identity(self, tmp_path):
        # a tagged section with a default is built from it when left out
        absent = {k: v for k, v in SIMULATE_CFG.items() if k != "coefficient"}
        written = []
        for name, cfg in (("absent", absent), ("identity", SIMULATE_CFG)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / name
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.glob("[!m]*")})
        # the report and the kept paths, all but the manifest of the config
        assert sorted(written[0]) == ["path_0.csv", "path_1.csv", "report.json"]
        assert written[0] == written[1]

    def test_penalize_takes_n_or_n_list(self, tmp_path, capsys):
        cfg = dict(PENALIZE_CFG, n=5.0, n_list=[1.0, 2.0])
        assert run_config(tmp_path, "penalize", cfg) == (1, False)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: penalize: ")
        assert "n and n_list" in err

    @pytest.mark.parametrize(
        "rates, message",
        [
            ([100.0, 100.0000001, 100.0], "rates 100.0 and 100.0000001 both name penalized_n100"),
            ([2.0, 1.0, 2.0], "rates 2.0 and 2.0 both name penalized_n2"),
        ],
        ids=["rounded", "repeated"],
    )
    def test_penalize_refuses_rates_of_one_artifact_name(
        self, tmp_path, capsys, rates, message
    ):
        # each rate writes penalized_n{n:g} and is checked against the
        # bounds under that name, so two rates of one name would leave one
        # artifact and one pair of bound entries for both
        cfg = dict(PENALIZE_CFG, n_list=rates, delta=0.25)
        assert run_config(tmp_path, "penalize", cfg) == (1, False)
        assert capsys.readouterr().err == f"config error: penalize: {message}\n"

    def test_penalize_artifacts_keep_fractional_rates(self, tmp_path):
        # a point in the rate is not taken for a file suffix, so 0.5 and
        # 0.25 do not both write penalized_n0.csv
        cfg = dict(PENALIZE_CFG, n_list=[0.5, 0.25, 1.5e6])
        assert run_config(tmp_path, "penalize", cfg) == (0, True)
        written = {p.name for p in (tmp_path / "run").glob("penalized_*")}
        assert written == {
            "penalized_n0.5.csv", "penalized_n0.25.csv", "penalized_n1.5e+06.csv"
        }

    @pytest.mark.parametrize(
        "command, tag, key, default",
        [
            pytest.param(*case, id=f"{case[1] or case[0]}-{case[2]}")
            for case in table_defaults()
            if case[2] not in UNREPORTED.get(case[1], ())
        ],
    )
    def test_table_default_is_what_the_run_reports(
        self, tmp_path, command, tag, key, default
    ):
        base = small_converge(tag) if tag else {
            "skorokhod": builtin_config("halfline-threejump"),
            "penalize": PENALIZE_CFG,
            "simulate": SIMULATE_CFG,
        }[command]
        cfg = {k: v for k, v in base.items() if k != key}
        # a study this small may fail its statistical check (exit 3)
        code, made = run_config(tmp_path, command, cfg)
        assert code in (0, 3) and made
        out = tmp_path / "run"
        report = json.loads((out / "report.json").read_text())
        # the first entry is the KS check (rbm) or the failure count (simulate)
        first = report["entries"][0]["threshold"] if report["entries"] else None
        reported = {
            "keep_paths": len(list(out.glob("path_*.csv"))),
            "ks_threshold": first,
            "max_numerical_failures": first,
            **report["params"],
        }
        assert reported[key] == json.loads(json.dumps(default))


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--out", "run"],
            ["simulate", "--config", "cfg.json", "--paths", "abc"],
            ["bogus", "--config", "cfg.json"],
        ],
        ids=["missing-config", "non-integer-paths", "unknown-command"],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        # argparse's own exit code, 2, would read as a numerical failure
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_help_names_each_command_with_its_help(self, capsys):
        assert main(["--help"]) == 0
        lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        commands = [
            ["skorokhod", "reflect a step driver and verify the solution"],
            ["penalize", "solve the penalized equation for a step driver"],
            ["simulate", "run the penalized Euler scheme over sampled drivers"],
            ["converge", "run a named convergence benchmark"],
        ]
        assert [line for line in lines if line and line[0] in dict(commands)] == commands
