"""Outside-in tracing of the reflectsde layers.

The package is not edited: after it is imported, each public entry point
of a layer is replaced by a wrapper that records one span per call.  A
function is replaced in every module namespace that binds it, because
``from .sde import euler_penalized`` copies the name into the importing
module and wrapping ``reflectsde.sde`` alone would miss those calls.
Projection and artifact-writing methods are replaced on their classes, so
calls through ``self`` are seen too.

Spans are kept in memory and written when the process ends.  A span's self
time is its duration minus the time its child spans cover, including the
tracer's own bookkeeping for those children.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _one(args, kwargs, result):
    return 1, 0


def _point(args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "x"), dtype=float)
    return 1, int(result is not None and bool((result != x).any()))


def _points(args, kwargs, result):
    X = np.asarray(_arg(args, kwargs, 1, "X"), dtype=float)
    outside = 0 if result is None else int(np.count_nonzero(np.any(result != X, axis=1)))
    return X.shape[0], outside


def _batch_paths(args, kwargs, result):
    return int(_arg(args, kwargs, 3, "paths")), 0


def _single_steps(grid_index):
    def steps(args, kwargs, result):
        return _arg(args, kwargs, grid_index, "grid").cells, 0

    return steps


def _batch_steps(args, kwargs, result):
    H = _arg(args, kwargs, 2, "H_vals")
    return H.shape[0] * (H.shape[1] - 1), 0


def _energy_pairs(args, kwargs, result):
    a = len(_arg(args, kwargs, 0, "first"))
    b = len(_arg(args, kwargs, 1, "second"))
    return a * b + a * a + b * b, 0


class Tracer:
    """Records spans (layer, start, end, self time, work, outside, error,
    nested) for the wrapped entry points."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer, fn, work):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            result = None
            error = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                amount, outside = work(args, kwargs, result)
                nested = parent is not None and parent[0] == layer
                spans.append((layer, start, end, end - start - frame[1], amount, outside, error, nested))
                if parent is not None:
                    parent[1] += perf_counter() - entered

        return traced

    def install(self):
        """Wrap every traced entry point of the already imported package."""
        from reflectsde import domain, path, penalty, sde, stats

        functions = [
            (sde.sample_driver, "sde.sample", _one),
            (sde.sample_driver_batch, "sde.sample", _batch_paths),
            (sde.euler_penalized, "sde.kernel.single", _single_steps(5)),
            (sde.euler_projected, "sde.kernel.single", _single_steps(4)),
            (sde.euler_penalized_batch, "sde.kernel.batch", _batch_steps),
            (sde.euler_projected_batch, "sde.kernel.batch", _batch_steps),
            (path.modulus_bar, "path.modulus", _one),
            (path.modulus_prime, "path.modulus", _one),
            (path.modulus_second, "path.modulus", _one),
            (stats.energy_distance, "stats.energy", _energy_pairs),
            (stats.ks_statistic, "stats.ks", _one),
            (stats.oscillation_diagnostic, "stats.oscillation", _one),
        ]
        wrapped = {id(fn): self.wrap(layer, fn, work) for fn, layer, work in functions}
        for name, module in list(sys.modules.items()):
            if name != "reflectsde" and not name.startswith("reflectsde."):
                continue
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

        methods = [
            (domain.HalfSpace, "project_point", "domain.project.halfspace", _point),
            (domain.HalfSpace, "project_points", "domain.project.halfspace", _points),
            (domain.Polyhedron, "project_point", "domain.project.polyhedron", _point),
            (domain.Polyhedron, "project_points", "domain.project.polyhedron", _points),
            (path.StepPath, "to_csv_string", "cli.write", _one),
            (penalty.PenalizedPath, "to_json", "cli.write", _one),
            (stats.ExperimentReport, "to_json", "cli.write", _one),
            (stats.ExperimentReport, "table_csv", "cli.write", _one),
        ]
        for cls, name, layer, work in methods:
            setattr(cls, name, self.wrap(layer, getattr(cls, name), work))

    def dump(self, target) -> None:
        """Write all spans as one JSON array."""
        with open(target, "w") as fh:
            fh.write(json.dumps(self.spans))


def summarize(spans) -> dict:
    """Per-layer totals: calls and work count only spans not nested in a
    span of the same layer; self time sums over all spans."""
    layers = {}
    for layer, _start, _end, self_s, amount, outside, error, nested in spans:
        agg = layers.setdefault(layer, {"calls": 0, "work": 0, "outside": 0, "errors": 0, "self_s": 0.0})
        agg["self_s"] += self_s
        if not nested:
            agg["calls"] += 1
            agg["work"] += amount
            agg["outside"] += outside
            agg["errors"] += int(error)
    return layers
