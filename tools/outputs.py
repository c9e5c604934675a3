"""Write the outputs of the runs whose bytes a change must keep, for one
checkout, so that two checkouts compare with one ``diff -r``.

    python tools/outputs.py DIR

runs the package of the checkout this script sits in (its ``src``), in
this process, and writes one ``--out`` directory per run under DIR:

- each built-in config, under its own name;
- ``simulate`` on ``WEDGE_CONFIG`` from ``bench/workloads.py`` at its own
  seed and at ``--seed 11``, in ``--format csv`` and ``json``, under
  ``simulate-seed<seed>-<format>``;
- ``penalize`` on the path of the ``halfline-threejump`` built-in at the
  rates in ``PENALIZE_RATES`` with ``delta`` 0.25, in ``--format csv`` and
  ``json``, under ``penalize-<format>``.

DIR must not exist or be empty.  The script prints each run's exit code
and exits 1 if any run did not exit 0.  To compare a change with its
parent, copy this file into a checkout of the parent, run it there and
here, and ``diff -r`` the two directories.  It writes nothing outside
DIR apart from temporary config files.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reflectsde.cli import main  # noqa: E402
from reflectsde.experiments import BUILTIN_CONFIGS  # noqa: E402

SEEDS = (None, 11)
FORMATS = ("csv", "json")
PENALIZE_RATES = [1, 100, 1e4]


def penalize_config() -> dict:
    """``penalize`` on the ``halfline-threejump`` domain and path."""
    threejump = BUILTIN_CONFIGS["halfline-threejump"]
    return {
        "experiment": "penalize",
        "domain": threejump["domain"],
        "path": threejump["path"],
        "n_list": PENALIZE_RATES,
        "delta": 0.25,
    }


def runs(wedge: Path, penalize: Path):
    """(directory name, CLI arguments without --out) of every run."""
    for name in sorted(BUILTIN_CONFIGS):
        yield name, [BUILTIN_CONFIGS[name]["experiment"], "--config", name]
    seed = json.loads(wedge.read_text())["seed"]
    for extra in SEEDS:
        flags = [] if extra is None else ["--seed", str(extra)]
        for fmt in FORMATS:
            args = ["simulate", "--config", str(wedge), *flags, "--format", fmt]
            yield f"simulate-seed{seed if extra is None else extra}-{fmt}", args
    for fmt in FORMATS:
        yield f"penalize-{fmt}", ["penalize", "--config", str(penalize), "--format", fmt]


def write_outputs(out: Path) -> dict:
    """Run every run into its directory under ``out``; returns the exit
    codes by directory name."""
    wedge_config = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WEDGE_CONFIG"]
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        wedge, penalize = Path(tmp) / "wedge.json", Path(tmp) / "penalize.json"
        wedge.write_text(json.dumps(wedge_config))
        penalize.write_text(json.dumps(penalize_config()))
        for name, args in runs(wedge, penalize):
            # the pass/fail lines a run prints are in its report.json
            with contextlib.redirect_stdout(io.StringIO()):
                codes[name] = main([*args, "--out", str(out / name)])
    return codes


def cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"{out} exists and is not an empty directory", file=sys.stderr)
        return 2
    codes = write_outputs(out)
    for name, code in codes.items():
        print(f"{code} {name}")
    return int(any(codes.values()))


if __name__ == "__main__":
    sys.exit(cli())
