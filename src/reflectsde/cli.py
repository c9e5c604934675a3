"""Command-line entry point.

Four subcommands: ``skorokhod`` and ``penalize`` transform a configured
step driver, ``simulate`` runs the penalized Euler scheme over sampled
drivers, ``converge`` runs a named convergence benchmark.  Every run
writes a manifest with the resolved config, its hash and the Python,
numpy and package versions next to the outputs, so a rerun of the same
manifest under the same versions reproduces the outputs byte for byte.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failures
beyond the configured threshold or arithmetic that leaves the float
range, 3 a benchmark check failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .domain import NumericalError
from .experiments import (
    ConfigError,
    builtin_config,
    config_digest,
    run_converge,
    run_penalize,
    run_simulate,
    run_skorokhod,
)
from .path import StepPath
from .penalty import PenalizedPath

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

_RUNNERS = {
    "skorokhod": run_skorokhod,
    "penalize": run_penalize,
    "simulate": run_simulate,
    "converge": run_converge,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectsde",
        description="Reflected paths and SDEs on convex domains via penalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("skorokhod", "reflect a step driver and verify the solution"),
        ("penalize", "solve the penalized equation for a step driver"),
        ("simulate", "run the penalized Euler scheme over sampled drivers"),
        ("converge", "run a named convergence benchmark"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config",
            required=True,
            help="path to a JSON config, or the name of a builtin one",
        )
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--paths", type=int, help="override the path count")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="path artifact format",
        )
    return parser


def _load_config(ref: str, command: str) -> dict:
    path = Path(ref)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {ref}: cannot read ({exc})") from exc
        try:
            cfg = json.loads(text)
        # nesting deeper than the interpreter's recursion limit is invalid too
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"config {ref}: invalid JSON ({exc})") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {ref}: expected a JSON object")
    else:
        cfg = builtin_config(ref)
    declared = cfg.get("experiment")
    if declared is not None and declared != command:
        raise ConfigError(
            f"config is for experiment {declared!r}, not {command!r}"
        )
    cfg["experiment"] = command
    _reject_non_finite(cfg, command)
    return cfg


def _reject_non_finite(node, command: str, where: str = "") -> None:
    """Raise a ConfigError naming the key path of the first number in a
    parsed config that is not finite (JSON ``NaN``, ``Infinity`` or a
    literal beyond the float range such as ``1e400``)."""
    if isinstance(node, float) and not np.isfinite(node):
        raise ConfigError(f"{command}: {where} must be finite, got {node}")
    if isinstance(node, dict):
        for key, child in node.items():
            _reject_non_finite(child, command, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            _reject_non_finite(child, command, f"{where}[{i}]")


def _write_path_artifact(path_obj, stem: Path, fmt: str) -> None:
    if isinstance(path_obj, PenalizedPath):
        if fmt == "json":
            stem.with_suffix(".json").write_text(path_obj.to_json())
        else:
            sampled = path_obj.to_step(path_obj.times)
            stem.with_suffix(".csv").write_text(sampled.to_csv_string())
    elif isinstance(path_obj, StepPath):
        if fmt == "json":
            payload = {
                "q": path_obj.q,
                "times": [float(t) for t in path_obj.times],
                "values": [[float(v) for v in row] for row in path_obj.values],
            }
            stem.with_suffix(".json").write_text(json.dumps(payload))
        else:
            stem.with_suffix(".csv").write_text(path_obj.to_csv_string())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.paths is not None:
            cfg["paths"] = args.paths

        report, artifacts = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, FloatingPointError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    manifest = {
        "command": args.command,
        "config": cfg,
        "config_sha256": config_digest(cfg),
        "format": args.format,
        # replay byte for byte rests on numpy's Philox and normal streams
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "reflectsde": __version__,
        },
    }
    # made once the config checks passed, so a config error leaves none
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        (out_dir / "report.json").write_text(report.to_json())
        for name, artifact in artifacts.items():
            _write_path_artifact(artifact, out_dir / name, args.format)
        for table_name in report.tables:
            (out_dir / f"{table_name}.csv").write_text(report.table_csv(table_name))
    except OSError as exc:
        print(f"config error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG

    failures = [e for e in report.entries if e.name == "numerical_failures"]
    if failures and not failures[0].passed:
        print(
            f"numerical failures: {failures[0].value:g} "
            f"(threshold {failures[0].threshold:g})",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    for entry in report.entries:
        status = "pass" if entry.passed else "FAIL"
        print(
            f"{status} {entry.name}: value={entry.value:.6g} "
            f"threshold={entry.threshold:.6g} (M={entry.sample_size}, {entry.repro})"
        )
    if not report.all_passed():
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
