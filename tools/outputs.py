"""Write the outputs of the runs whose bytes a change must keep, for one
checkout, so that two checkouts compare with one ``diff -r``.

    python tools/outputs.py DIR

runs the package of the checkout this script sits in (its ``src``), in
this process, and writes one ``--out`` directory per entry of
``run_table`` under DIR.  An entry holds its run's directory name,
command, config, further flags and expected exit code: 0 for a good run,
1 for a config error, 3 for a failed check.  A config is a built-in's
name or a dict, which goes to a temporary file named after the run.  A
run expected to fail also writes its exit code and stderr to
``exit_code`` and ``stderr``.

DIR must not exist or be empty.  The script prints each run's exit code
and exits 1 if any run's code is not the one it expects.  To compare a
change with its parent, copy this file into a checkout of the parent,
run it there and here, and ``diff -r`` the two directories.  It writes
nothing outside DIR apart from temporary config files.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reflectsde.cli import main  # noqa: E402
from reflectsde.experiments import BUILTIN_CONFIGS  # noqa: E402

# the converge built-ins also run at a second seed
CONVERGE_SEEDS = ("cp-oscillation", "strong-refinement")

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

def tangent_polygon(center) -> dict:
    """The polygon of 64 faces tangent to the unit circle about ``center``,
    anchored there: past the stacked maps' 63 faces in d = 2, so each row
    outside goes through the least-distance NNLS."""
    faces = []
    for k in range(64):
        normal = [-math.cos(2.0 * math.pi * k / 64), -math.sin(2.0 * math.pi * k / 64)]
        offset = normal[0] * center[0] + normal[1] * center[1] - 1.0
        faces.append({"normal": normal, "offset": offset})
    return {"variant": "polyhedron", "anchor": list(center), "faces": faces}


# a drawn H from WEDGE_CONFIG's start; on 512 cells in d = 2 its rows and
# the Brownian Z's hold 1024 values, which are drawn on worker threads
BROWNIAN_H = {"kind": "brownian", "x0": [1.0, 0.2679491924311227], "sigma": 0.5}

# a jump to (3e-200, 4e-200) out of a ball of radius 1e-200, whose squared
# lengths underflow; its containment check, absolute at tol 1e-300, fails
# by rounding, so the run exits 3
NEAR_BALL = {
    "experiment": "skorokhod",
    "domain": {"variant": "ball", "center": [0.0, 0.0], "radius": 1e-200},
    "path": {"times": [0.0, 0.5], "values": [[0.0, 0.0], [3e-200, 4e-200]], "q": 1.0},
    "tol": 1e-300,
}

# (built-in, key) of each study's ladders, each run empty: a config error
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
    ("box-bounds", ("domain",), {"variant": "box", "lower": [0.0, 1.0], "upper": [1.0, 1.0]}),
    ("ball-radius", ("domain",), {"variant": "ball", "center": [0.0, 0.0], "radius": -1.0}),
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
    ("exponential-scale", ("driver", "z", 2, "jumps"), {"tag": "exponential", "params": [-1.0]}),
    (
        "constant-jump-length",
        ("driver", "z", 2, "jumps"),
        {"tag": "constant", "params": [1.0, 2.0, 3.0]},
    ),
    ("unknown-coefficient", ("coefficient", "kind"), "cubic"),
    ("constant-matrix", ("coefficient",), {"kind": "constant", "matrix": [[1.0, 0.0]]}),
    ("diag-affine-base", ("coefficient",), {"kind": "diag_affine", "base": -1.0, "slope": 0.0}),
    ("power-diag-alpha", ("coefficient",), {"kind": "power_diag", "alpha": 1.5}),
)


def bad_config(wedge_config: dict, keys: tuple, value) -> dict:
    """``wedge_config`` with the value at the key path ``keys`` replaced."""
    cfg = copy.deepcopy(wedge_config)
    *parents, last = keys
    section = cfg
    for key in parents:
        section = section[key]
    section[last] = value
    return cfg


def both_formats(table: dict, name: str, command: str, config, flags=()) -> None:
    """Add the ``--format csv`` and ``json`` runs of one config to
    ``table``, under ``<name>-<format>``."""
    for fmt in ("csv", "json"):
        table[f"{name}-{fmt}"] = command, config, [*flags, "--format", fmt], 0


def far_config(wedge: dict, size: dict, domain: dict, kind: str, **values) -> dict:
    """``wedge`` with the grid and paths of ``size``, two kept paths, in
    ``domain``, with the identity coefficient and ``values`` set in each Z
    part of ``kind``."""
    z = [dict(part, **values) if part["kind"] == kind else part for part in wedge["driver"]["z"]]
    return {
        **wedge,
        **size,
        "keep_paths": 2,
        "domain": domain,
        "driver": {**wedge["driver"], "z": z},
        "coefficient": {"kind": "identity"},
    }


def run_table(wedge: dict) -> dict:
    """{directory name: (command, config, flags, expected exit code)} of
    every run; a config is a built-in's name or a dict, and ``wedge`` is
    ``WEDGE_CONFIG``."""
    table = {
        name: (BUILTIN_CONFIGS[name]["experiment"], name, [], 0)
        for name in sorted(BUILTIN_CONFIGS)
    }
    for name in CONVERGE_SEEDS:
        table[f"{name}-seed11"] = "converge", name, ["--seed", "11"], 0
    both_formats(table, f"simulate-seed{wedge['seed']}", "simulate", wedge)
    both_formats(table, "simulate-seed11", "simulate", wedge, ["--seed", "11"])
    small = {"grid": {"q": 1.0, "cells": 32}, "paths": 32, "keep_paths": 4}
    for name, domain in SIMULATE_DOMAINS.items():
        config = {**wedge, **small, "domain": domain}
        both_formats(table, f"simulate-{name}", "simulate", config)
    one_step = {"grid": {"q": 1.0, "cells": 1}, "paths": 8}
    for name, (domain, rate) in FAR_DRIFTS.items():
        config = far_config(wedge, one_step, domain or wedge["domain"], "drift", rate=rate)
        both_formats(table, f"simulate-far-{name}", "simulate", config)
    sixteen = {"grid": {"q": 1.0, "cells": 16}, "paths": 16}
    config = far_config(wedge, sixteen, SIMULATE_DOMAINS["halfspace"], "brownian", sigma=FAR_SIGMA)
    both_formats(table, "simulate-far-gaps", "simulate", config)
    faces = [*wedge["domain"]["faces"], FAR_FACE]
    config = {**wedge, "domain": {**wedge["domain"], "faces": faces}}
    both_formats(table, "simulate-far-face", "simulate", config)
    nnls = {"grid": {"q": 1.0, "cells": 32}, "paths": 16, "keep_paths": 4}
    polygon = tangent_polygon(wedge["driver"]["h"]["x0"])
    table["simulate-nnls"] = "simulate", {**wedge, **nnls, "domain": polygon}, [], 0
    long_rows = {"grid": {"q": 1.0, "cells": 512}, "paths": 300, "keep_paths": 4}
    config = {**wedge, **long_rows, "driver": {**wedge["driver"], "h": BROWNIAN_H}}
    both_formats(table, "simulate-brownian-h", "simulate", config)
    threejump = BUILTIN_CONFIGS["halfline-threejump"]
    config = {
        "experiment": "penalize",
        "domain": threejump["domain"],
        "path": threejump["path"],
        "n_list": [1, 100, 1e4],
        "delta": 0.25,
    }
    both_formats(table, "penalize", "penalize", config)
    table["skorokhod-near-ball"] = "skorokhod", NEAR_BALL, [], 3
    for name, keys, value in BAD_SIMULATE:
        table[f"error-{name}"] = "simulate", bad_config(wedge, keys, value), [], 1
    for builtin, key in EMPTY_LADDERS:
        config = {**BUILTIN_CONFIGS[builtin], key: []}
        table[f"error-{builtin}-empty-{key}"] = "converge", config, [], 1
    return table


def write_outputs(out: Path) -> dict:
    """Run every run of ``run_table`` into its directory under ``out``;
    returns the exit code and the expected one by directory name."""
    wedge = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WEDGE_CONFIG"]
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, config, flags, expected) in run_table(wedge).items():
            if isinstance(config, dict):
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(config))
                config = str(path)
            args = [command, "--config", config, *flags, "--out", str(out / name)]
            # the pass/fail lines a run prints are in its report.json
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(stderr if expected else sys.stderr):
                    code = main(args)
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
