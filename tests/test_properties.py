"""Property tests of the invariants that byte identity rests on.

Each test draws small batches with hypothesis, derandomized and with a
fixed number of examples, so a run is deterministic and short: a domain
of any of the four kinds in dimension 1 to 3, a driver, a regular or
irregular grid, a rate up to 1e6 and a few paths, solved by the batch
penalized scheme.  Results are compared by their bytes, which include the
sign of a zero.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reflectsde.domain import Ball, Box, HalfSpace, Polyhedron
from reflectsde.path import StepPath
from reflectsde.penalty import PenalizedPath
from reflectsde.sde import (
    Brownian,
    CompoundPoisson,
    ConstantStart,
    Drift,
    DriverSpec,
    Grid,
    Identity,
    JumpSizes,
    euler_penalized_batch,
    sample_driver_batch,
)

PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

coordinates = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


def unit(draw, dim):
    """A unit vector in ``dim`` dimensions, drawn away from zero length."""
    v = np.array(draw(st.lists(coordinates, min_size=dim, max_size=dim)))
    v[0] += 1.5 if v[0] >= 0.0 else -1.5
    return v / np.linalg.norm(v)


@st.composite
def domains(draw, dim):
    """A half-space, box, ball or polyhedron holding its anchor inside."""
    kind = draw(st.sampled_from(["halfspace", "box", "ball", "polyhedron"]))
    center = np.array(draw(st.lists(coordinates, min_size=dim, max_size=dim)))
    width = draw(st.floats(0.1, 2.0))
    if kind == "halfspace":
        normal = unit(draw, dim)
        return HalfSpace(normal, float(normal @ center) - width)
    if kind == "box":
        return Box(center - width, center + width * draw(st.floats(0.5, 2.0)))
    if kind == "ball":
        return Ball(center, width)
    faces = []
    for _ in range(draw(st.integers(1, 4))):
        normal = unit(draw, dim)
        faces.append(HalfSpace(normal, float(normal @ center) - width))
    return Polyhedron(faces, anchor=center)


@st.composite
def grids(draw):
    """A regular grid, or one of irregular cell lengths."""
    cells = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return Grid.regular(draw(st.floats(0.25, 2.0)), cells)
    steps = draw(st.lists(st.floats(0.01, 0.5), min_size=cells, max_size=cells))
    return Grid(np.concatenate([[0.0], np.cumsum(steps)]))


@st.composite
def penalized_batches(draw):
    """(n, times, states, projections, q) of a batch of finite rows, the
    horizon on the last breakpoint or past it."""
    dim = draw(st.integers(1, 3))
    domain = draw(domains(dim))
    grid = draw(grids())
    n = 10.0 ** draw(st.floats(-1.0, 6.0))
    parts = [Brownian(draw(st.floats(0.1, 2.0)))]
    if draw(st.booleans()):
        parts.append(Drift([draw(coordinates) * 4.0] * dim))
    if draw(st.booleans()):
        parts.append(CompoundPoisson(3.0, JumpSizes("normal", (0.0, 1.0))))
    spec = DriverSpec(dim=dim, h=ConstantStart(domain.anchor), z_components=tuple(parts))
    paths = draw(st.integers(1, 5))
    H, Z = sample_driver_batch(spec, grid, draw(st.integers(0, 2**32)), paths)
    states, projections = euler_penalized_batch(domain, Identity(dim), H, Z, n, grid)
    # small drivers do not fail a row
    assert np.isfinite(states).all() and np.isfinite(projections).all()
    q = grid.q + draw(st.sampled_from([0.0, 0.5]))
    return n, grid.times, states, projections, q


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(penalized_batches())
def test_batch_paths_take_their_states_at_their_breakpoints(batch):
    n, times, states, projections, q = batch
    paths = PenalizedPath._batch(n, times, states, projections, q)
    for path, x, p in zip(paths, states, projections):
        at_breakpoints = path.eval_many(times)
        assert same_bits(at_breakpoints, x)
        assert np.array_equal(np.signbit(at_breakpoints), np.signbit(x))
        if q == times[-1]:
            assert same_bits(path.eval(q), x[-1])
        assert path.to_csv_string() == StepPath(times, x, q).to_csv_string()
        # and it is the constructor's path
        alone = PenalizedPath(n, times, x, p, q)
        assert (path.n, path.q) == (alone.n, alone.q)
        for got, want in (
            (path.times, alone.times),
            (path.states, alone.states),
            (path.projections, alone.projections),
        ):
            assert same_bits(got, want)
        assert path.to_json() == alone.to_json()
        assert path.to_csv_string() == alone.to_csv_string()
