"""Property tests of the invariants that byte identity rests on.

Each test draws small batches with hypothesis, derandomized and with a
fixed number of examples, so a run is deterministic and short: a domain
of any of the four kinds in dimension 1 to 3, a driver, a regular or
irregular grid, a rate up to 1e6 and a few paths.  Results are compared
by their bytes, which include the sign of a zero.  Module constants are
patched inside a test body, since hypothesis runs a function-scoped
fixture once for all examples.  The draws come from a backend without
hypothesis's pool of module literals (``conftest.NoConstantsProvider``), so
they do not change with the modules collected beside this one.
"""

import inspect
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers
from conftest import NO_CONSTANTS, NoConstantsProvider, OverflowingHalfSpace, entries_per_block
from conftest import kernel_history

from reflectsde import sde
from reflectsde.domain import BOUNDARY_TOL, Ball, Box, HalfSpace, NumericalError, Polyhedron
from reflectsde.domain import anchor_gap
from reflectsde.path import StepPath, _segment, modulus_bar, modulus_second
from reflectsde.penalty import PenalizedPath, _each, _Gaps, _Keep, _relaxed, _SupDistance
from reflectsde.penalty import solve_penalized
from reflectsde.skorokhod import solve_skorokhod
from reflectsde.sde import (
    Brownian,
    BrownianDrift,
    CompoundPoisson,
    ConstantStart,
    DiagAffine,
    Drift,
    DriverSpec,
    Grid,
    Identity,
    JumpSizes,
    euler_penalized,
    euler_penalized_batch,
    euler_projected,
    euler_projected_batch,
    sample_driver_batch,
)

PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
    backend=NO_CONSTANTS,
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
def integrators(draw, dim):
    """The parts of Z in a drawn order: a Brownian one, with an optional
    drift and an optional compound-Poisson part."""
    parts = [Brownian(draw(st.floats(0.1, 2.0)))]
    if draw(st.booleans()):
        parts.append(Drift([draw(coordinates) * 4.0] * dim))
    if draw(st.booleans()):
        parts.append(CompoundPoisson(3.0, JumpSizes("normal", (0.0, 1.0))))
    return tuple(draw(st.permutations(parts)))


@st.composite
def penalized_drivers(draw):
    """(domain, grid, H, Z, n) of a few small drivers from the anchor,
    which fail no row."""
    dim = draw(st.integers(1, 3))
    domain = draw(domains(dim))
    grid = draw(grids())
    n = 10.0 ** draw(st.floats(-1.0, 6.0))
    parts = draw(integrators(dim))
    spec = DriverSpec(dim=dim, h=ConstantStart(domain.anchor), z_components=parts)
    paths = draw(st.integers(1, 5))
    H, Z = sample_driver_batch(spec, grid, draw(st.integers(0, 2**32)), paths)
    return domain, grid, H, Z, n


@st.composite
def penalized_batches(draw):
    """(n, times, states, projections, q) of a batch of finite rows, the
    horizon on the last breakpoint or past it."""
    domain, grid, H, Z, n = draw(penalized_drivers())
    states, projections = euler_penalized_batch(domain, Identity(domain.dim), H, Z, n, grid)
    # small drivers do not fail a row
    assert np.isfinite(states).all() and np.isfinite(projections).all()
    q = grid.q + draw(st.sampled_from([0.0, 0.5]))
    return n, grid.times, states, projections, q


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# the longest row drawn, and the relative tolerance of the projection laws
# on it: a far row is projected to within a few rounding errors of its size
LONGEST = 1.7e308
FAR_RTOL = 1e-12


def scaled(domain, size, radius=None):
    """The domain with every length times ``size``: offsets, bounds, centre,
    anchor and, unless ``radius`` is given, a ball's radius."""
    anchor = size * domain.anchor
    if isinstance(domain, HalfSpace):
        return HalfSpace(domain.normal, size * domain.offset, anchor=anchor)
    if isinstance(domain, Box):
        return Box(size * domain.lower, size * domain.upper)
    if isinstance(domain, Ball):
        return Ball(size * domain.center, size * domain.radius if radius is None else radius)
    faces = [HalfSpace(h.normal, size * h.offset, anchor=anchor) for h in domain.faces]
    return Polyhedron(faces, anchor=anchor)


@st.composite
def far_projections(draw):
    """(domain, X): a drawn domain scaled about the origin by 1, 1e150,
    1e300 or 1e306, a ball's radius scaled by 1, the same or 8.5e307 (up
    to 1.7e308), and 1 to 6 finite rows of length at most 1.7e308, about
    the origin or the anchor.  Each domain holds a point within
    1.8e306 of the origin, so the exact projection of each row is a
    finite one; a longer row's need not be: (a, -a) projects onto the
    half-space of normal (0.6, 0.8) as (1.12 a, -0.84 a)."""
    dim = draw(st.integers(1, 3))
    domain = draw(domains(dim))
    size = draw(st.sampled_from([1.0, 1e150, 1e300, 1e306]))
    radius = None
    if isinstance(domain, Ball):
        radius = domain.radius * draw(st.sampled_from([1.0, size, 8.5e307]))
    # faces at a small angle meet far out: a vertex, or its multipliers, may
    # lie past the float range, and the domain builds without that set's map
    domain = scaled(domain, size, radius)
    rows = []
    magnitudes = st.sampled_from([1.0, 1e150, 1e300, 1e306, 1e308, LONGEST])
    for _ in range(draw(st.integers(1, 6))):
        v = np.array(draw(st.lists(coordinates, min_size=dim, max_size=dim)))
        row = draw(st.sampled_from([0.0, 1.0])) * domain.anchor + draw(magnitudes) * v
        length = math.hypot(*row)
        rows.append(row * (LONGEST / length) if length > LONGEST else row)
    return domain, np.array(rows)


def quarter_distance(a, b) -> float:
    """A quarter of |a - b|, which is finite for rows of length up to
    about 3.6e308."""
    return math.hypot(*(0.25 * a - 0.25 * b))


@PROPERTY
@given(far_projections())
def test_a_finite_row_projects_to_a_finite_row(projection):
    # a RuntimeWarning fails the test (pyproject's filterwarnings)
    domain, X = projection
    P = domain.project_points(X)
    assert np.isfinite(P).all()
    for i, (x, p) in enumerate(zip(X, P)):
        assert same_bits(domain.project_points(X[i : i + 1])[0], p)
        # idempotent, and nonexpansive toward every row of the batch, each
        # within FAR_RTOL of the sizes involved
        size = math.hypot(*x) + math.hypot(*domain.anchor) + domain.anchor_clearance
        tol = FAR_RTOL * size / 4.0
        assert quarter_distance(domain.project_point(p), p) <= tol
        for y, q in zip(X, P):
            bound = quarter_distance(x, y) + tol + FAR_RTOL * math.hypot(*y) / 4.0
            assert quarter_distance(p, q) <= bound


def test_the_backend_rests_on_hypothesis_internals():
    # a later hypothesis that moves these names fails here, not silently
    # by drawing from the pool again
    assert providers.AVAILABLE_PROVIDERS[NO_CONSTANTS] is NoConstantsProvider
    hook = providers.HypothesisProvider._maybe_draw_constant
    params = ["self", "choice_type", "constraints", "p"]
    assert list(inspect.signature(hook).parameters) == params
    for name in ("draw_integer", "draw_float", "draw_string", "draw_bytes"):
        draw = getattr(providers.HypothesisProvider, name)
        assert "_maybe_draw_constant" in draw.__code__.co_names
    pool = providers.HypothesisProvider._local_constants.func
    assert "_get_local_constants" in pool.__code__.co_names
    assert callable(providers._get_local_constants)


def drawn(backend):
    """The examples a derandomized test on ``backend`` draws, as reprs."""
    seen = []

    @settings(PROPERTY, backend=backend)
    @given(st.lists(st.floats(-2.0, 2.0) | st.integers(-(2**40), 2**40), max_size=4))
    def record(values):
        seen.append(repr(values))

    record()
    return seen


def test_property_draws_are_derandomized_without_the_pool():
    pool = patch.object(providers, "_get_local_constants", side_effect=LookupError("pool"))
    with pool:
        first = drawn(NO_CONSTANTS)
        # the default backend reads the pool of module literals
        with pytest.raises(LookupError, match="pool"):
            drawn("hypothesis")
    assert len(first) == PROPERTY.max_examples and first == drawn(NO_CONSTANTS)


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


@st.composite
def one_paths(draw):
    """Breakpoints, a horizon, and the states and projections of one path
    of 1 to 6 breakpoints, in d = 1 to 3 or one-dimensional as (m,) arrays,
    with signed zeros, a subnormal and a far value among them."""
    m = draw(st.integers(1, 6))
    spans = draw(st.lists(st.floats(0.01, 1.0), min_size=m - 1, max_size=m - 1))
    times = np.cumsum([0.0] + spans)
    # the horizon at the last breakpoint or past it, and positive
    q = float(times[-1]) + draw(st.sampled_from([0.0, 0.5])) or 1.0
    shape = (m,) + draw(st.sampled_from([(), (1,), (2,), (3,)]))
    entries = st.sampled_from([0.0, -0.0, 1.5, -2.0, 5e-324, 1e300])
    size = int(np.prod(shape))
    states, projections = (
        np.reshape(draw(st.lists(entries, min_size=size, max_size=size)), shape) for _ in range(2)
    )
    return times, q, states, projections


def builders(inputs, n):
    """For each path type, the builds from one path's ``inputs``: the path
    alone, and a batch of that path's row ``rows`` times."""
    times, q, states, projections = inputs
    return [
        (
            lambda: StepPath(times, states, q),
            lambda rows: StepPath._batch(times, [states] * rows, q),
        ),
        (
            lambda: PenalizedPath(n, times, states, projections, q),
            lambda rows: PenalizedPath._batch(n, times, [states] * rows, [projections] * rows, q),
        ),
    ]


@PROPERTY
@given(one_paths(), st.floats(1e-3, 1e6))
def test_a_path_is_its_one_row_batch(inputs, n):
    times = inputs[0]
    for alone, batch in builders(inputs, n):
        path, (row,), pair = alone(), batch(1), batch(2)
        for other in (row, *pair):
            assert type(other) is type(path)
            for name in ("times", "values", "q") + type(path).__slots__:
                got, want = getattr(path, name), getattr(other, name)
                if isinstance(got, float):
                    assert type(want) is float and got.hex() == want.hex()
                    continue
                assert got.dtype == want.dtype == float and same_bits(got, want)
                assert not got.flags.writeable and got.flags.c_contiguous
                assert got.ndim == (1 if name == "times" else 2)
        # the checked breakpoints: a copy of the given ones, which every
        # path of a batch shares
        assert not np.shares_memory(path.times, times)
        assert pair[0].times is pair[1].times


def same_error(build):
    """The ValueError message ``build`` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


# each malformation of one path's (times, q, states, projections, n),
# every one of which a penalized path refuses
MALFORMED = {
    "repeated-breakpoint": lambda t, q, x, p, n: (np.append(t, t[-1]), q, x, p, n),
    "late-start": lambda t, q, x, p, n: (t + 0.5, q + 0.5, x, p, n),
    "nan-breakpoint": lambda t, q, x, p, n: (np.append(t, np.nan), q, x, p, n),
    "early-horizon": lambda t, q, x, p, n: (t, t[-1] / 2 if t[-1] else -1.0, x, p, n),
    "extra-row": lambda t, q, x, p, n: (t, q, np.concatenate((x, x[:1])), p, n),
    "deep-states": lambda t, q, x, p, n: (t, q, x[..., None, None], p, n),
    "ragged-states": lambda t, q, x, p, n: (t, q, [[0.0], [0.0, 0.0]] * len(t), p, n),
    "word-state": lambda t, q, x, p, n: (t, q, [["x"]] * len(t), p, n),
    "nan-state": lambda t, q, x, p, n: (t, q, np.where(x == x.flat[-1], np.nan, x), p, n),
    "inf-state": lambda t, q, x, p, n: (t, q, np.where(x == x.flat[0], -np.inf, x), p, n),
    "wide-projections": lambda t, q, x, p, n: (t, q, x, np.stack((p, p), axis=-1), n),
    "short-projections": lambda t, q, x, p, n: (t, q, x, p[:-1], n),
    "inf-projection": lambda t, q, x, p, n: (t, q, x, np.where(p == p.flat[-1], np.inf, p), n),
    "zero-rate": lambda t, q, x, p, n: (t, q, x, p, 0.0),
    "nan-rate": lambda t, q, x, p, n: (t, q, x, p, np.nan),
}


@PROPERTY
@given(one_paths(), st.sampled_from(sorted(MALFORMED)))
def test_a_malformed_path_raises_as_its_one_row_batch(inputs, name):
    *broken, n = MALFORMED[name](*inputs, 4.0)
    builds = builders(broken, n)
    for alone, batch in builds:
        assert same_error(alone) == same_error(lambda: batch(1))
    assert same_error(builds[1][0]) is not None


@PROPERTY
@given(penalized_drivers(), st.data())
def test_the_kernels_visitors_are_the_path_functionals(driver, data):
    domain, grid, H, Z, n = driver
    dim = domain.dim
    point = np.array(data.draw(st.lists(coordinates, min_size=dim, max_size=dim))) * 3.0
    q = grid.q + data.draw(st.sampled_from([0.0, 0.5]))
    t = data.draw(st.floats(0.0, q))
    sup = _SupDistance(point, n, grid.times, q)
    gaps = _Gaps(n, grid.times, q, H.shape[0])
    visit = _each(sup, gaps)
    states, projections = euler_penalized_batch(domain, Identity(dim), H, Z, n, grid, visit=visit)
    paths = PenalizedPath._batch(n, grid.times, states, projections, q)
    at_q, at_t = gaps.variation(q), gaps.variation(t)
    ends = np.minimum(np.append(grid.times[1:], q), t)
    for i, path in enumerate(paths):
        assert same_bits(sup.sup[i], np.float64(path.sup_deviation(point)))
        assert same_bits(at_q[i], np.float64(path.penalty_variation()))
        assert same_bits(at_t[i], np.float64(path.penalty_variation(t)))
        # the supremum over the skeleton, and n times the integral of the
        # distance to the domain up to t, summed segment by segment
        skeleton = np.linalg.norm(path.skeleton_values() - point, axis=1)
        assert same_bits(sup.sup[i], np.max(skeleton))
        gap = np.linalg.norm(states[i] - projections[i], axis=1)
        pulls = gap * -np.expm1(-n * np.maximum(ends - grid.times, 0.0))
        assert at_t[i] == pytest.approx(sum(pulls), rel=1e-12, abs=1e-300)


@st.composite
def free_terms(draw, x0):
    """H frozen at ``x0``, or a Brownian motion with drift from it."""
    if draw(st.booleans()):
        return ConstantStart(x0)
    return BrownianDrift(x0, draw(st.floats(0.1, 2.0)), draw(coordinates))


@st.composite
def sampled_batches(draw):
    """(spec, grid, seed, paths, first_index) of a sampler call."""
    dim = draw(st.integers(1, 3))
    spec = DriverSpec(dim, draw(free_terms(np.zeros(dim))), draw(integrators(dim)))
    seed, paths = draw(st.integers(0, 2**32)), draw(st.integers(1, 6))
    return spec, draw(grids()), seed, paths, draw(st.integers(0, 2**64 - 8))


@PROPERTY
@given(sampled_batches(), st.data())
def test_a_sampled_row_is_its_one_row_batch(call, data):
    spec, grid, seed, paths, first = call
    H, Z = sample_driver_batch(spec, grid, seed, paths, first)
    for i in range(paths):
        h, z = sample_driver_batch(spec, grid, seed, 1, first_index=first + i)
        assert same_bits(H[i], h[0]) and same_bits(Z[i], z[0])
    # a block of one row up to one of all of them, and rows of any length
    # drawn on one thread or on two
    values = data.draw(st.integers(1, paths * grid.cells * spec.dim))
    workers = data.draw(st.sampled_from([1, 2]))
    threads = {"_WORKERS": workers, "_THREAD_ROW_VALUES": 1, "_cpus": lambda: 2}
    with entries_per_block(values), patch.multiple(sde, **threads):
        blocked = sample_driver_batch(spec, grid, seed, paths, first)
    assert same_bits(blocked[0], H) and same_bits(blocked[1], Z)


@st.composite
def overflowing_drivers(draw, dims=(1, 3)):
    """(domain, grid, H, Z) of a few paths from the anchor whose Z takes,
    besides a sampled integrator and a drift of total at most 5e306, a
    jump of its own, at the last grid point half of the time: none, 1e300
    or 1.7e308 with drawn signs, or 1.7e308 straight out of a half-space.
    The driver values are finite, while the states may leave the float
    range.  Half of the half-spaces are ``OverflowingHalfSpace``: a jump
    of 1.7e308 at the last point leaves a finite state whose projection
    is not."""
    dim = draw(st.integers(*dims))
    domain = draw(domains(dim))
    if isinstance(domain, HalfSpace) and draw(st.booleans()):
        domain = OverflowingHalfSpace(domain.normal, domain.offset)
    grid = draw(grids())
    # each row takes each kind of jump with a fixed chance, from a
    # generator of a drawn seed; the signs of the drift, then of each path
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    signs = rng.choice([-1.0, 1.0], (6, dim))
    if isinstance(domain, HalfSpace):
        signs[rng.random(6) < 0.5] = -np.sign(domain.normal)
    drift = 5e306 * signs[0] / max(grid.q, 1.0)
    parts = (*draw(integrators(dim)), Drift(drift))
    spec = DriverSpec(dim, draw(free_terms(domain.anchor)), parts)
    paths = draw(st.integers(1, 5))
    H, Z = sample_driver_batch(spec, grid, draw(st.integers(0, 2**32)), paths)
    Z = np.array(Z)
    for row, sign in zip(Z, signs[1:]):
        at = grid.cells if rng.random() < 0.5 else rng.integers(1, grid.cells + 1)
        row[at:] += rng.choice([0.0, 1e300, 1.7e308], p=[0.25, 0.25, 0.5]) * sign
    assert np.isfinite(H).all() and np.isfinite(Z).all()
    return domain, grid, H, Z


coefficients = st.sampled_from(["identity", "affine"])


def coefficient(name, dim):
    return Identity(dim) if name == "identity" else DiagAffine(dim, base=0.5, slope=0.25)


@PROPERTY
@given(overflowing_drivers(), coefficients, st.data())
def test_a_kernel_row_is_its_one_row_run(driver, name, data):
    domain, grid, H, Z = driver
    f = coefficient(name, domain.dim)
    if data.draw(st.booleans()):
        f, Z = None, None
    n = data.draw(st.just(np.inf) | st.floats(-1.0, 6.0).map(lambda e: 10.0**e))
    states, projections, failed = kernel_history(domain, f, H, Z, n, grid.times)
    for p in range(H.shape[0]):
        z = None if Z is None else Z[p : p + 1]
        row = kernel_history(domain, f, H[p : p + 1], z, n, grid.times)
        assert same_bits(row[0][0], states[p]) and same_bits(row[1][0], projections[p])
        assert row[2][0] == failed[p]
    # keeping some grid points keeps their bits
    points = st.lists(st.integers(0, grid.cells), min_size=1, unique=True)
    at = sorted(data.draw(points))
    kept = kernel_history(domain, f, H, Z, n, grid.times, at=at)
    assert same_bits(kept[0], states[:, at]) and same_bits(kept[1], projections[:, at])
    assert np.array_equal(kept[2], failed)


@PROPERTY
@given(overflowing_drivers(), coefficients, st.data())
def test_a_visitor_changes_no_kept_bit(driver, name, data):
    domain, grid, H, Z = driver
    f = coefficient(name, domain.dim)
    M, K1, d = H.shape
    n = data.draw(st.floats(-1.0, 6.0).map(lambda e: 10.0**e))
    points = st.lists(st.integers(0, grid.cells), min_size=1, unique=True).map(sorted)
    at = data.draw(st.none() | points)
    rows = data.draw(st.integers(0, M))
    history = _Keep(None, K1, rows, d)
    sup = _SupDistance(domain.anchor, n, grid.times, grid.q)
    visit = _each(history, sup, _Gaps(n, grid.times, grid.q, M))
    want = euler_penalized_batch(domain, f, H, Z, n, grid, at=at)
    got = euler_penalized_batch(domain, f, H, Z, n, grid, at=at, visit=visit)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    # the kept rows are the full history's, raw where a row fails
    full = kernel_history(domain, f, H, Z, n, grid.times)
    assert same_bits(history.states, full[0][:rows])
    assert same_bits(history.projections, full[1][:rows])


@st.composite
def refinements(draw):
    """(domain, fine grid, factor, H, Z, n) in dimension 1: a few paths on
    a fine grid, regular or not, of 1 to 8 coarse cells of ``factor`` (1 to
    4) fine cells each, and a last path whose Z turns infinite at a drawn
    fine point, so that it fails."""
    domain = draw(domains(1))
    factor = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 8)) * factor
    if draw(st.booleans()):
        fine = Grid.regular(draw(st.floats(0.25, 2.0)), cells)
    else:
        steps = draw(st.lists(st.floats(0.01, 0.5), min_size=cells, max_size=cells))
        fine = Grid(np.concatenate([[0.0], np.cumsum(steps)]))
    spec = DriverSpec(1, draw(free_terms(domain.anchor)), draw(integrators(1)))
    paths = draw(st.integers(1, 5))
    H, Z = sample_driver_batch(spec, fine, draw(st.integers(0, 2**32)), paths + 1)
    Z = np.array(Z)
    Z[-1, draw(st.integers(1, cells)) :] = np.inf
    return domain, fine, factor, H, Z, 10.0 ** draw(st.floats(-1.0, 6.0))


@PROPERTY
@given(refinements(), coefficients)
def test_the_sup_distance_to_a_reference_is_its_array_form(refinement, name):
    domain, fine, factor, H, Z, n = refinement
    f = coefficient(name, 1)
    coarse = fine.coarsen(factor)
    reference = euler_projected_batch(domain, f, H, Z, fine)
    H, Z = H[:, ::factor], Z[:, ::factor]
    # the array form: each full history relaxed to every fine point, then
    # abs and max, a failed row NaN throughout
    states, projections = euler_penalized_batch(domain, f, H, Z, n, coarse)
    j = _segment(coarse.times, fine.times)
    values = _relaxed(states[:, j], projections[:, j], n, fine.times - coarse.times[j])
    want = np.max(np.abs(values - reference)[:, :, 0], axis=1)
    # as the kernel steps, a failed row masked by the NaN of its final state
    sup = _SupDistance(reference.transpose(1, 0, 2), n, coarse.times, coarse.q, fine.times)
    finals = euler_penalized_batch(domain, f, H, Z, n, coarse, [coarse.cells], sup)[0]
    sup.sup[np.isnan(finals[:, 0, 0])] = np.nan
    assert same_bits(sup.sup, want) and np.isnan(want[-1])
    assert np.isfinite(want[:-1]).all()


def finite_or_nan(rows):
    """Per row of (M, K+1, d) arrays: True when finite throughout, False
    when NaN throughout, and a failed assertion otherwise."""
    finite = np.isfinite(rows).all(axis=(1, 2))
    assert (finite | np.isnan(rows).all(axis=(1, 2))).all()
    return finite


def one_step_out_of_a_half_space():
    """Two paths on the test half-space of normal (0.6, 0.8), one of which
    steps to (-1.5e308, -1.5e308) at the last grid point: a finite state
    whose projection is (-inf, -inf)."""
    H, Z = np.ones((2, 3, 2)), np.zeros((2, 3, 2))
    Z[1, 2] = -1.5e308
    return OverflowingHalfSpace([0.6, 0.8], 0.0), Grid.regular(1.0, 2), H, Z


@PROPERTY
@given(overflowing_drivers(dims=(2, 3)), coefficients, st.floats(-1.0, 6.0))
@example(driver=one_step_out_of_a_half_space(), name="identity", exponent=0.5)
def test_a_row_is_finite_or_nan_and_a_path_raises_for_nan(driver, name, exponent):
    domain, grid, H, Z = driver
    f = coefficient(name, domain.dim)
    n = 10.0**exponent
    states, projections = euler_penalized_batch(domain, f, H, Z, n, grid)
    finite = finite_or_nan(states)
    assert np.array_equal(finite_or_nan(projections), finite)
    projected = euler_projected_batch(domain, f, H, Z, grid)
    finite_projected = finite_or_nan(projected)
    for p in range(H.shape[0]):
        h, z = (StepPath(grid.times, values[p], grid.q) for values in (H, Z))
        if finite[p]:
            path = euler_penalized(domain, f, h, z, n, grid)
            assert same_bits(path.states, states[p])
            assert same_bits(path.projections, projections[p])
        else:
            with pytest.raises(NumericalError):
                euler_penalized(domain, f, h, z, n, grid)
        if finite_projected[p]:
            assert same_bits(euler_projected(domain, f, h, z, grid).values, projected[p])
        else:
            with pytest.raises(NumericalError):
                euler_projected(domain, f, h, z, grid)


@st.composite
def step_pairs(draw):
    """Two step paths of dimension 2 or 3, on one breakpoint array or on
    two, with some breakpoints holding the value before them."""
    dim = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    first = draw(grids())
    pair = []
    for grid in (first, first if draw(st.booleans()) else draw(grids())):
        values = rng.normal(size=(grid.times.shape[0], dim))
        for k in np.flatnonzero(rng.random(grid.cells) < 0.3) + 1:
            values[k] = values[k - 1]
        pair.append(StepPath(grid.times, values, grid.q))
    return pair


@PROPERTY
@given(step_pairs(), st.floats(0.01, 2.0), st.integers(2, 64))
def test_pair_blocks_change_no_modulus_bit(pair, delta, small):
    x, y = pair

    def moduli():
        values = [modulus_bar(x, y, delta), modulus_bar(y, x, delta)]
        return np.array([*values, modulus_second(x, delta), modulus_second(y, delta)])

    want = moduli()
    # one row per block, a few, and the default
    for entries in (1, small):
        with entries_per_block(entries):
            assert same_bits(moduli(), want)


@st.composite
def scalable_problems(draw):
    """(domain, rows, driver values, grid, n): a drawn domain in d = 1 to 3,
    1 to 6 rows about the origin or its anchor, and a step driver from the
    anchor on a drawn grid, at a rate n."""
    dim = draw(st.integers(1, 3))
    domain = draw(domains(dim))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        v = np.array(draw(st.lists(coordinates, min_size=dim, max_size=dim)))
        rows.append(draw(st.sampled_from([0.0, 1.0])) * domain.anchor + 4.0 * v)
    grid = draw(grids())
    steps = draw(st.lists(coordinates, min_size=grid.cells * dim, max_size=grid.cells * dim))
    values = domain.anchor + np.cumsum(np.reshape(steps, (grid.cells, dim)) * 2.0, axis=0)
    values = np.vstack([domain.anchor, values])
    n = draw(st.sampled_from([0.5, 2.0, 10.0]))
    return domain, np.array(rows), values, grid, n


def lengths_at(size, problem) -> dict:
    """Every length of a problem with every length times ``size``: its rows'
    projections, distances and boundary distances, the Skorokhod map's x and
    k, a penalized path's sup deviation from the anchor and penalty
    variation, and the interlaced moduli of the first coordinates of x and
    the driver."""
    domain, X, values, grid, n = problem
    domain, X = scaled(domain, size), size * X
    driver = StepPath(grid.times, size * values, grid.q)
    P, dist = domain._distances(X)
    solution = solve_skorokhod(domain, driver)
    penalized = solve_penalized(domain, driver, n)
    x1, y1 = (StepPath(grid.times, p.values[:, :1], grid.q) for p in (solution.x, driver))
    delta = 0.3 * grid.q
    return {
        "projections": P,
        "distances": dist,
        "boundary": np.array([domain.boundary_distance(x) for x in X]),
        "x": solution.x.values,
        "k": solution.k.values,
        "sup_deviation": np.array(penalized.sup_deviation(domain.anchor)),
        "penalty_variation": np.array(penalized.penalty_variation()),
        "moduli": np.array([modulus_bar(x1, y1, delta), modulus_bar(y1, x1, delta)]),
    }


# k in [-1000, 1000], its ends and the scales past 2**+-500 drawn often
exponents = st.sampled_from([-1000, -900, -600, 600, 900, 1000]) | st.integers(-1000, 1000)


# every warning fails, but the deprecations of the modules hypothesis
# imports to explain a failure
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.filterwarnings("error")
@PROPERTY
@given(scalable_problems(), exponents)
def test_every_length_scales_with_the_problem(problem, k):
    # the Skorokhod map and the penalized equation are positively
    # homogeneous: scaling every length by 2**k scales each length they give
    # by 2**k, bit for bit wherever the arithmetic stays normal
    base = lengths_at(1.0, problem)
    domain, X, values = problem[:3]
    given_lengths = [domain.anchor, X, values, *base.values()]
    if isinstance(domain, Ball):
        given_lengths += [domain.center, [domain.radius]]
    elif isinstance(domain, Box):
        given_lengths += [domain.lower, domain.upper]
    else:
        given_lengths += [domain._offsets]
    sizes = np.abs(np.concatenate([np.ravel(v) for v in given_lengths]))
    sizes = sizes[sizes > 0.0]
    # k is bounded so that every length stays normal, the least with 16 bits to spare
    low, high = np.frexp([sizes.min(), sizes.max()])[1]
    k = int(np.clip(k, -1005 - low, 1000 - high))
    size = 2.0**k
    for name, got in lengths_at(size, problem).items():
        assert same_bits(got, size * base[name]), (name, k)
    # the anchor inequality's inner product is quadratic in the lengths
    k = int(np.clip(k, -450 - low, 450 - high))
    far = scaled(domain, 2.0**k)
    gaps = [(anchor_gap(far, 2.0**k * x), 2.0**k * anchor_gap(domain, x)) for x in X]
    assert same_bits(*np.array(gaps).T), k
    # a tolerance-based predicate holds only away from the boundary
    for x, dist in zip(X, base["distances"]):
        if dist == 0.0 or dist * size > 2.0 * BOUNDARY_TOL:
            assert scaled(domain, size).contains(size * x) == (dist == 0.0)
