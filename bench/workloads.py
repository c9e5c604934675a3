"""The benchmark's workload table and the inputs it generates from a seed.

Shared by the driver (``run.py``), the timed child process (``child.py``)
and the independent reference (``reference.py``).  Only numpy is imported
here, never the package under test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Brownian motion reflected in a 30-degree wedge, cut off at x = 4: the
# acute corner at the origin is where Dykstra's cyclic projection needs
# the most sweeps.  A drift toward the corner and compound-Poisson jumps
# put about a third of the grid points outside the domain.  The Dykstra
# sweeps a path needs vary with its distance from the corner (coefficient
# of variation about 1.1 across paths), so the run takes 256 paths on 128
# cells rather than 128 on 256: the same path-steps, with the seed-to-seed
# spread of its cost cut by a factor of 1.4.  128 paths are written.
WEDGE_CONFIG = {
    "experiment": "simulate",
    "domain": {
        "variant": "polyhedron",
        "anchor": [2.0, 0.5358983848622454],
        "faces": [
            {"normal": [0.0, 1.0], "offset": 0.0},
            {"normal": [0.5, -0.8660254037844387], "offset": 0.0},
            {"normal": [-1.0, 0.0], "offset": -4.0},
        ],
    },
    "driver": {
        "dim": 2,
        "h": {"kind": "constant", "x0": [1.0, 0.2679491924311227]},
        "z": [
            {"kind": "brownian", "sigma": 1.0},
            {"kind": "drift", "rate": [-2.0, 0.0]},
            {
                "kind": "compound_poisson",
                "rate": 2.0,
                "jumps": {"tag": "normal", "params": [0.0, 0.5]},
            },
        ],
    },
    "grid": {"q": 1.0, "cells": 128},
    "coefficient": {"kind": "diag_affine", "base": 0.5, "slope": 0.25},
    "n": 1000.0,
    "paths": 256,
    "seed": 7,
    "keep_paths": 128,
}

# marginal-energy: (rate n, cells K) ladder, paths per level, exact draws
ENERGY_LADDER = ((64.0, 64), (1024.0, 256), (16384.0, 1024))
ENERGY_PATHS = 2000
ENERGY_DRAWS = 8000


@dataclass(frozen=True)
class Part:
    """One program run inside a workload repetition.

    ``levels`` lists (paths M, cells K) per kernel invocation, so the
    declared path-steps are sum(M * K).  ``cli`` holds the CLI arguments
    before ``--seed`` and ``--out``, or None for the library pipeline.
    ``counts`` holds traced counters particular to the part.
    """

    name: str
    levels: tuple
    cli: tuple | None
    domain: str
    counts: dict = field(default_factory=dict)

    @property
    def paths(self) -> int:
        return sum(m for m, _ in self.levels)

    @property
    def path_steps(self) -> int:
        return sum(m * k for m, k in self.levels)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its parts run one after the other in the
    child process of every repetition."""

    name: str
    parts: tuple

    @property
    def paths(self) -> int:
        return sum(part.paths for part in self.parts)

    @property
    def path_steps(self) -> int:
        return sum(part.path_steps for part in self.parts)

    def coverage(self) -> dict:
        """Traced counters and the value the workload arithmetic gives:
        each path sampled once, every path-step taken by a kernel, every
        grid point projected (a floor: start-inside checks add points),
        plus the parts' own counters, summed over the parts."""
        want = Counter()
        for part in self.parts:
            want["sde.sample.paths"] += part.paths
            want["sde.kernel.path_steps"] += part.path_steps
            want[f"domain.project.{part.domain}.points"] += sum(m * (k + 1) for m, k in part.levels)
            want.update(part.counts)
        return dict(want)


_CP_PATHS, _CP_DELTAS = 400, 4  # the cp-oscillation built-in
_ENERGY_PAIRS = len(ENERGY_LADDER) * (
    ENERGY_PATHS * ENERGY_DRAWS + ENERGY_PATHS**2 + ENERGY_DRAWS**2
)

# Every CLI part writes manifest.json and report.json, plus one table
# (converge) or one CSV per kept path (simulate).
PARTS = {
    part.name: part
    for part in (
        Part(
            "rbm",
            ((10_000, 1024),),
            ("converge", "--config", "rbm-benchmark"),
            "halfspace",
            {"stats.ks.calls": 1, "cli.write.files": 3},
        ),
        Part(
            "cp-oscillation",
            ((_CP_PATHS, 256),),
            ("converge", "--config", "cp-oscillation"),
            "halfspace",
            {"path.modulus.calls": _CP_PATHS * _CP_DELTAS, "stats.oscillation.calls": 1, "cli.write.files": 3},
        ),
        Part(
            "simulate-wedge",
            ((WEDGE_CONFIG["paths"], WEDGE_CONFIG["grid"]["cells"]),),
            ("simulate", "--config", "wedge.json"),
            "polyhedron",
            {"cli.write.files": WEDGE_CONFIG["keep_paths"] + 2},
        ),
        Part(
            "marginal-energy",
            tuple((ENERGY_PATHS, k) for _, k in ENERGY_LADDER),
            None,
            "halfspace",
            {"stats.energy.pairs": _ENERGY_PAIRS},
        ),
    )
}

# Two workloads of two parts each.  Each pairs one run that exercises a
# layer with nothing the other workload needs: the single-path kernel,
# per-point and Dykstra projection, moduli and artifact writing in one;
# batch sampling, the batch kernel, KS and the energy distance in the other.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cp-wedge", (PARTS["cp-oscillation"], PARTS["simulate-wedge"])),
        Workload("rbm-energy", (PARTS["rbm"], PARTS["marginal-energy"])),
    )
}


def component_stream(seed: int, path_index: int, component: int) -> np.random.Generator:
    """The package's documented driver stream for (seed, path, component)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_index), int(component)))
    return np.random.Generator(np.random.Philox(ss))


def halfnormal_draws(seed: int) -> np.ndarray:
    """Exact |N(0, 1)| draws for marginal-energy.  The one-element spawn key
    keeps this stream apart from every (path, component) driver stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(ENERGY_DRAWS,))
    return np.abs(np.random.Generator(np.random.Philox(ss)).standard_normal(ENERGY_DRAWS))
