"""Command-line entry point.

Four subcommands: ``skorokhod`` and ``penalize`` transform a configured
step driver, ``simulate`` runs the penalized Euler scheme over sampled
drivers, ``converge`` runs a named convergence benchmark.  Every run
writes a manifest with the resolved config, its hash and the Python,
numpy and package versions next to the outputs, so a rerun of the same
manifest under the same versions reproduces the outputs byte for byte.
The files are written into a staging directory first and moved to
``--out`` once every one is written, so a failed write leaves none.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failures
beyond the configured threshold or arithmetic that leaves the float
range, 3 a benchmark check failed.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import platform
import shutil
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

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

# each command's runner and its one-line help
_RUNNERS = {
    "skorokhod": (run_skorokhod, "reflect a step driver and verify the solution"),
    "penalize": (run_penalize, "solve the penalized equation for a step driver"),
    "simulate": (run_simulate, "run the penalized Euler scheme over sampled drivers"),
    "converge": (run_converge, "run a named convergence benchmark"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectsde",
        description="Reflected paths and SDEs on convex domains via penalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _RUNNERS.items():
        p = sub.add_parser(name, help=help_text)
        config = "path to a JSON config, or the name of a builtin one"
        p.add_argument("--config", required=True, help=config)
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


def _load_config(ref: str) -> dict:
    path = Path(ref)
    if not path.exists():
        return builtin_config(ref)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {ref}: cannot read ({exc})") from exc
    try:
        cfg = json.loads(text)
    # invalid JSON too: nesting past the recursion limit, and an integer
    # literal past Python's digit limit (json.loads raises a plain ValueError)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {ref}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {ref}: expected a JSON object")
    return cfg


def _write_all(out_dir: Path, files) -> None:
    """Write the (name, text) pairs of ``files`` to ``out_dir``, all or none.

    They are written into a staging directory this function makes: a
    sibling of a new ``out_dir``, which is then renamed to it, or a hidden
    directory inside an existing one, whose files are then moved in.  On
    failure only the staging directory is removed.  A file is moved in only
    once every file is written and no name is taken by a directory.
    """
    fresh = not out_dir.exists()
    if fresh:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        stage = out_dir.parent / f".{out_dir.name}-{os.urandom(4).hex()}.part"
    else:
        stage = out_dir / f".reflectsde-{os.urandom(4).hex()}.part"
    stage.mkdir()
    try:
        names = []
        for name, text in files:
            (stage / name).write_text(text)
            names.append(name)
        if fresh:
            stage.rename(out_dir)
            return
        for target in (out_dir / name for name in names):
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for name in names:
            os.replace(stage / name, out_dir / name)
        stage.rmdir()
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # the numerical-failure code here
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        cfg = _load_config(args.config)
        # the command's config table decides whether it takes an override
        for key in ("seed", "paths"):
            if getattr(args, key) is not None:
                cfg[key] = getattr(args, key)
        run, _ = _RUNNERS[args.command]
        report, artifacts = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, FloatingPointError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    # set once the runner has refused a config declared for another command
    cfg["experiment"] = args.command
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

    def outputs():
        yield "manifest.json", json.dumps(manifest, indent=2, sort_keys=True)
        yield "report.json", report.to_json()
        for name, path in artifacts.items():
            text = path.to_json() if args.format == "json" else path.to_csv_string()
            yield f"{name}.{args.format}", text
        for table_name in report.tables:
            yield f"{table_name}.csv", report.table_csv(table_name)

    # written once the config checks passed, so a config error leaves none
    try:
        _write_all(Path(args.out), outputs())
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
