"""Write the outputs of the runs whose bytes a change must keep, for one
checkout, so that two checkouts compare with one ``diff -r``.

    python tools/outputs.py DIR

runs the package of the checkout this script sits in (its ``src``), in
this process, and writes one ``--out`` directory per run under DIR:

- each built-in config, under its own name, and the ``converge``
  built-ins of ``CONVERGE_SEEDS`` at ``--seed 11`` too, under
  ``<name>-seed11``;
- ``simulate`` on ``WEDGE_CONFIG`` from ``bench/workloads.py`` at its own
  seed and at ``--seed 11``, in ``--format csv`` and ``json``, under
  ``simulate-seed<seed>-<format>``;
- ``simulate`` on a half-space, a ball and a box (``SIMULATE_DOMAINS``:
  ``WEDGE_CONFIG`` with that domain and fewer paths and cells), in
  ``--format csv`` and ``json``, under ``simulate-<domain>-<format>``;
- ``simulate`` on a half-space, a ball and the wedge (``FAR_DRIFTS``:
  ``WEDGE_CONFIG`` with that domain, one cell, the identity coefficient
  and a drift that steps past 1e307), in ``--format csv`` and ``json``,
  under ``simulate-far-<domain>-<format>``;
- ``simulate`` on ``WEDGE_CONFIG`` with the half-space of
  ``SIMULATE_DOMAINS``, the identity coefficient and a Brownian part of
  sigma ``FAR_SIGMA``, whose gaps square past the float range, in
  ``--format csv`` and ``json``, under ``simulate-far-gaps-<format>``;
- ``simulate`` on ``WEDGE_CONFIG`` with the face ``FAR_FACE`` added, whose
  default anchor lies past 2**53, in ``--format csv`` and ``json``, under
  ``simulate-far-face-<format>``;
- ``simulate`` on ``WEDGE_CONFIG`` with a Brownian H and rows long enough
  to be drawn on worker threads (``BROWNIAN_H``), in ``--format csv`` and
  ``json``, under ``simulate-brownian-h-<format>``;
- ``penalize`` on the path of the ``halfline-threejump`` built-in at the
  rates in ``PENALIZE_RATES`` with ``delta`` 0.25, in ``--format csv`` and
  ``json``, under ``penalize-<format>``;
- ``skorokhod`` on ``NEAR_BALL``, a jump out of a ball of radius 1e-200,
  whose squared lengths underflow, under ``skorokhod-near-ball``; its
  containment check, absolute at ``tol`` 1e-300, fails by rounding, so
  its exit code and stderr go to ``exit_code`` and ``stderr`` too;
- ``simulate`` on each bad config of ``BAD_SIMULATE``, ``WEDGE_CONFIG``
  with the value at one key path replaced, and ``converge`` on each
  built-in of ``EMPTY_LADDERS`` with that key's ladder empty, whose exit
  code and stderr go to ``exit_code`` and ``stderr`` under
  ``error-<name>``.

DIR must not exist or be empty.  The script prints each run's exit code
and exits 1 if any run's code is not the one it expects: 0 for a good
run, 1 (a config error) for a bad one, 3 (a failed check) for the near
ball.  To compare a change with its parent, copy this file into a
checkout of the parent, run it there and here, and ``diff -r`` the two
directories.  It writes nothing outside DIR apart from temporary config
files.
"""

from __future__ import annotations

import contextlib
import copy
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
# the converge built-ins also run at a second seed
CONVERGE_SEEDS = ("cp-oscillation", "strong-refinement")
FORMATS = ("csv", "json")
PENALIZE_RATES = [1, 100, 1e4]

# the domains besides the wedge, each holding WEDGE_CONFIG's start inside
SIMULATE_DOMAINS = {
    "halfspace": {"variant": "halfspace", "normal": [0.6, 0.8], "offset": 0.0},
    "ball": {"variant": "ball", "center": [1.0, 0.5], "radius": 1.0},
    "box": {"variant": "box", "lower": [0.0, 0.0], "upper": [2.0, 1.0]},
}

# (domain, None for the wedge; drift rate) of a run whose one step goes
# past 1e307: out of the half-space, where a state's inner product with
# the normal overflows, out of the wedge, which scales such a row, and
# into the ball, where its squared distance from the centre overflows
FAR_DRIFTS = {
    "halfspace": (SIMULATE_DOMAINS["halfspace"], [-1.5e308, -1.5e308]),
    "ball": ({"variant": "ball", "center": [1.0, 0.5], "radius": 1.7e308}, [1e308, -1e308]),
    "wedge": (None, [-1.5e308, -1.5e308]),
}

# sigma of the Brownian part of a run whose gaps, about 1e200, square past
# the float range while their lengths and variations are finite
FAR_SIGMA = 1e200

# a face x >= -1e16 beyond the wedge, built without an anchor: offset + 1
# rounds back onto it, so its default anchor takes a longer step
FAR_FACE = {"normal": [1.0, 0.0], "offset": -1e16}

# a drawn H from WEDGE_CONFIG's start; on 512 cells in d = 2 its rows and
# the Brownian Z's hold 1024 values, which are drawn on worker threads
BROWNIAN_H = {"kind": "brownian", "x0": [1.0, 0.2679491924311227], "sigma": 0.5}

# a jump to (3e-200, 4e-200) out of a ball of radius 1e-200
NEAR_BALL = {
    "experiment": "skorokhod",
    "domain": {"variant": "ball", "center": [0.0, 0.0], "radius": 1e-200},
    "path": {"times": [0.0, 0.5], "values": [[0.0, 0.0], [3e-200, 4e-200]], "q": 1.0},
    "tol": 1e-300,
}

# (built-in, key) of each study's ladders, each run empty
EMPTY_LADDERS = (
    ("cp-oscillation", "deltas"),
    ("cp-oscillation", "epsilons"),
    ("strong-refinement", "levels"),
    ("tail-structure", "etas"),
    ("tail-structure", "n_list"),
)

# (name, key path, value): at least one error of each tagged section and
# of each constructor a tag names
BAD_SIMULATE = (
    ("unknown-variant", ("domain",), {"variant": "cone"}),
    ("halfline-anchor", ("domain",), {"variant": "halfline", "anchor": [-1.0]}),
    (
        "halfspace-normal",
        ("domain",),
        {"variant": "halfspace", "normal": [1.0, 1.0], "offset": 0.0},
    ),
    (
        "box-bounds",
        ("domain",),
        {"variant": "box", "lower": [0.0, 1.0], "upper": [1.0, 1.0]},
    ),
    (
        "ball-radius",
        ("domain",),
        {"variant": "ball", "center": [0.0, 0.0], "radius": -1.0},
    ),
    ("face-normal", ("domain", "faces", 1, "normal"), [0.5, -0.5]),
    ("unknown-h", ("driver", "h", "kind"), "wiener"),
    ("constant-h-start", ("driver", "h", "x0"), [1.0, 0.5, 0.0]),
    (
        "brownian-h-sigma",
        ("driver", "h"),
        {"kind": "brownian", "x0": [1.0, 0.3], "sigma": [[1.0, 0.0]]},
    ),
    (
        "table-h-times",
        ("driver", "h"),
        {"kind": "table", "times": [0.0, 0.5, 0.5], "values": [[1.0, 0.3]] * 3},
    ),
    ("unknown-z", ("driver", "z", 0, "kind"), "levy"),
    ("brownian-z-sigma", ("driver", "z", 0, "sigma"), [1.0, 2.0, 3.0]),
    ("drift-rate", ("driver", "z", 1, "rate"), [1.0, 2.0, 3.0]),
    ("poisson-rate", ("driver", "z", 2, "rate"), -1.0),
    ("unknown-jumps", ("driver", "z", 2, "jumps", "tag"), "cauchy"),
    ("normal-one-parameter", ("driver", "z", 2, "jumps", "params"), [0.5]),
    (
        "exponential-scale",
        ("driver", "z", 2, "jumps"),
        {"tag": "exponential", "params": [-1.0]},
    ),
    (
        "constant-jump-length",
        ("driver", "z", 2, "jumps"),
        {"tag": "constant", "params": [1.0, 2.0, 3.0]},
    ),
    ("unknown-coefficient", ("coefficient", "kind"), "cubic"),
    ("constant-matrix", ("coefficient",), {"kind": "constant", "matrix": [[1.0, 0.0]]}),
    (
        "diag-affine-base",
        ("coefficient",),
        {"kind": "diag_affine", "base": -1.0, "slope": 0.0},
    ),
    ("power-diag-alpha", ("coefficient",), {"kind": "power_diag", "alpha": 1.5}),
)


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


def bad_config(wedge_config: dict, keys: tuple, value) -> dict:
    """``wedge_config`` with the value at the key path ``keys`` replaced."""
    cfg = copy.deepcopy(wedge_config)
    *parents, last = keys
    section = cfg
    for key in parents:
        section = section[key]
    section[last] = value
    return cfg


def runs(wedge: Path, penalize: Path, tmp: Path):
    """(directory name, CLI arguments without --out, expected exit code)
    of every run; any other config's file is ``tmp/<name>.json``."""
    for name in sorted(BUILTIN_CONFIGS):
        yield name, [BUILTIN_CONFIGS[name]["experiment"], "--config", name], 0
    for name in CONVERGE_SEEDS:
        yield f"{name}-seed11", ["converge", "--config", name, "--seed", "11"], 0
    seed = json.loads(wedge.read_text())["seed"]
    for extra in SEEDS:
        flags = [] if extra is None else ["--seed", str(extra)]
        for fmt in FORMATS:
            args = ["simulate", "--config", str(wedge), *flags, "--format", fmt]
            yield f"simulate-seed{seed if extra is None else extra}-{fmt}", args, 0
    for name in SIMULATE_DOMAINS:
        for fmt in FORMATS:
            args = ["simulate", "--config", str(tmp / f"{name}.json"), "--format", fmt]
            yield f"simulate-{name}-{fmt}", args, 0
    for name in FAR_DRIFTS:
        for fmt in FORMATS:
            args = ["simulate", "--config", str(tmp / f"far-{name}.json"), "--format", fmt]
            yield f"simulate-far-{name}-{fmt}", args, 0
    for fmt in FORMATS:
        args = ["simulate", "--config", str(tmp / "far-gaps.json"), "--format", fmt]
        yield f"simulate-far-gaps-{fmt}", args, 0
    for fmt in FORMATS:
        args = ["simulate", "--config", str(tmp / "far-face.json"), "--format", fmt]
        yield f"simulate-far-face-{fmt}", args, 0
    for fmt in FORMATS:
        args = ["simulate", "--config", str(tmp / "brownian-h.json"), "--format", fmt]
        yield f"simulate-brownian-h-{fmt}", args, 0
    for fmt in FORMATS:
        args = ["penalize", "--config", str(penalize), "--format", fmt]
        yield f"penalize-{fmt}", args, 0
    yield "skorokhod-near-ball", ["skorokhod", "--config", str(tmp / "near-ball.json")], 3
    for name, _, _ in BAD_SIMULATE:
        yield f"error-{name}", ["simulate", "--config", str(tmp / f"{name}.json")], 1
    for builtin, key in EMPTY_LADDERS:
        name = f"{builtin}-empty-{key}"
        yield f"error-{name}", ["converge", "--config", str(tmp / f"{name}.json")], 1


def write_outputs(out: Path) -> dict:
    """Run every run into its directory under ``out``; returns the exit
    code and the expected one by directory name."""
    wedge_config = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WEDGE_CONFIG"]
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        wedge, penalize = Path(tmp) / "wedge.json", Path(tmp) / "penalize.json"
        wedge.write_text(json.dumps(wedge_config))
        penalize.write_text(json.dumps(penalize_config()))
        small = {"grid": {"q": 1.0, "cells": 32}, "paths": 32, "keep_paths": 4}
        configs = {
            name: {**wedge_config, **small, "domain": domain}
            for name, domain in SIMULATE_DOMAINS.items()
        }
        long_rows = {"grid": {"q": 1.0, "cells": 512}, "paths": 300, "keep_paths": 4}
        driver = {**wedge_config["driver"], "h": BROWNIAN_H}
        configs["brownian-h"] = {**wedge_config, **long_rows, "driver": driver}
        one_step = {"grid": {"q": 1.0, "cells": 1}, "paths": 8, "keep_paths": 2}
        for name, (domain, rate) in FAR_DRIFTS.items():
            z = [
                dict(part, rate=rate) if part["kind"] == "drift" else part
                for part in wedge_config["driver"]["z"]
            ]
            configs[f"far-{name}"] = {
                **wedge_config,
                **one_step,
                "domain": domain or wedge_config["domain"],
                "driver": {**wedge_config["driver"], "z": z},
                "coefficient": {"kind": "identity"},
            }
        z = [
            dict(part, sigma=FAR_SIGMA) if part["kind"] == "brownian" else part
            for part in wedge_config["driver"]["z"]
        ]
        configs["far-gaps"] = {
            **wedge_config,
            "grid": {"q": 1.0, "cells": 16},
            "paths": 16,
            "keep_paths": 2,
            "domain": SIMULATE_DOMAINS["halfspace"],
            "driver": {**wedge_config["driver"], "z": z},
            "coefficient": {"kind": "identity"},
        }
        faces = [*wedge_config["domain"]["faces"], FAR_FACE]
        configs["far-face"] = {**wedge_config, "domain": {**wedge_config["domain"], "faces": faces}}
        configs["near-ball"] = NEAR_BALL
        for name, keys, value in BAD_SIMULATE:
            configs[name] = bad_config(wedge_config, keys, value)
        for builtin, key in EMPTY_LADDERS:
            configs[f"{builtin}-empty-{key}"] = {**BUILTIN_CONFIGS[builtin], key: []}
        for name, cfg in configs.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(cfg))
        for name, args, expected in runs(wedge, penalize, Path(tmp)):
            # the pass/fail lines a run prints are in its report.json
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(stderr if expected else sys.stderr):
                    code = main([*args, "--out", str(out / name)])
            codes[name] = code, expected
            if expected:
                (out / name).mkdir(parents=True, exist_ok=True)
                (out / name / "exit_code").write_text(f"{code}\n")
                (out / name / "stderr").write_text(stderr.getvalue())
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
    for name, (code, expected) in codes.items():
        miss = "" if code == expected else f" (expected {expected})"
        print(f"{code} {name}{miss}")
    return int(any(code != expected for code, expected in codes.values()))


if __name__ == "__main__":
    sys.exit(cli())
