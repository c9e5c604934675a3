"""Projection laws, anchors, and cone checks for the built-in domains."""

import itertools

import numpy as np
import pytest
from scipy.optimize import nnls

from reflectsde.domain import (
    Ball,
    Box,
    HalfSpace,
    NumericalError,
    Polyhedron,
    _lengths,
    _rows_times,
    _scales,
    anchor_gap,
    cone_residual,
    project,
)
from reflectsde.sde import Grid, Identity, euler_penalized_batch


def make_domains_1d():
    return {
        "halfspace": HalfSpace([1.0], -0.2),
        "box": Box([0.0], [2.0]),
        "ball": Ball([0.5], 1.5),
        "polyhedron": Polyhedron(
            [HalfSpace([1.0], 0.0), HalfSpace([-1.0], -2.0)], anchor=[0.5]
        ),
    }


def make_domains():
    return {
        "halfspace": HalfSpace([0.6, 0.8], -0.2),
        "box": Box([0.0, -1.0], [2.0, 1.0]),
        "ball": Ball([0.5, -0.5], 1.5),
        "polyhedron": Polyhedron(
            [
                HalfSpace([1.0, 0.0], 0.0),
                HalfSpace([0.0, 1.0], 0.0),
                HalfSpace([-np.sqrt(0.5), -np.sqrt(0.5)], -2.0),
            ],
            anchor=[0.5, 0.5],
        ),
    }


def projection_qp(normals, offsets, x):
    """Independent projection onto an intersection of half-spaces by
    exhaustive active-set enumeration: the true nearest point solves the
    equality-constrained problem of its own active set, so it appears
    among the feasible candidates and wins on distance."""
    import itertools

    m = normals.shape[0]
    best = None
    for r in range(m + 1):
        for active in itertools.combinations(range(m), r):
            if not active:
                p = x.copy()
            else:
                A = normals[list(active)]
                c = offsets[list(active)]
                gram = A @ A.T
                try:
                    lam = np.linalg.solve(gram, c - A @ x)
                except np.linalg.LinAlgError:
                    continue
                p = x + A.T @ lam
            if np.min(normals @ p - offsets) < -1e-10:
                continue
            d = np.linalg.norm(p - x)
            if best is None or d < best[0]:
                best = (d, p)
    return best[1]


def two_face_wedge(angle):
    """Wedge of the given opening between the x-axis and the ray at
    ``angle``, apex at the origin."""
    return Polyhedron(
        [
            HalfSpace([0.0, 1.0], 0.0),
            HalfSpace([np.sin(angle), -np.cos(angle)], 0.0),
        ],
        anchor=[2.0 * np.cos(angle / 2), 2.0 * np.sin(angle / 2)],
    )


class TestHalfSpace:
    def test_inside_fixed(self):
        d = HalfSpace([1.0, 0.0], 0.0)
        res = project(d, [0.5, 3.0])
        assert np.array_equal(res.point, [0.5, 3.0])
        assert res.penetration == 0.0
        assert not res.on_boundary

    def test_outside_moves_along_normal(self):
        d = HalfSpace([1.0, 0.0], 0.0)
        res = project(d, [-2.0, 1.0])
        assert np.allclose(res.point, [0.0, 1.0])
        assert res.penetration == pytest.approx(2.0)
        assert res.on_boundary

    def test_offset_plane(self):
        d = HalfSpace([0.0, 1.0], 2.0)
        assert np.allclose(d.project_point([7.0, -1.0]), [7.0, 2.0])

    def test_unit_normal_required(self):
        with pytest.raises(ValueError):
            HalfSpace([1.0, 1.0], 0.0)
        # its length overflows: rejected without an overflow warning
        with pytest.raises(ValueError, match="unit length"):
            HalfSpace([1e308, 0.0], 0.0)

    def test_anchor_clearance_validated(self):
        with pytest.raises(ValueError):
            HalfSpace([1.0], 0.0, anchor=[1.0], anchor_clearance=2.0)
        with pytest.raises(ValueError):
            HalfSpace([1.0], 0.0, anchor=[-0.5])
        d = HalfSpace([1.0], 0.0, anchor=[2.0], anchor_clearance=0.5)
        assert d.anchor_clearance == 0.5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset", [1e16, -1e16, 1e308, -1e308])
    @pytest.mark.parametrize("normal", [[1.0], [0.6, 0.8]])
    def test_default_anchor_of_a_far_face(self, normal, offset):
        # offset + 1 rounds back onto the face past 2**53: the default
        # anchor steps in by |offset| * 2**-20 there
        d = HalfSpace(normal, offset)
        assert d.anchor_clearance == pytest.approx(abs(offset) * 2.0**-20, rel=1e-6)
        assert d.anchor_clearance == d.boundary_distance(d.anchor)

    def test_default_anchor_of_a_near_face(self):
        # below 2**20 the default anchor is the unit step, bit for bit
        for offset in (-3.5, 0.0, 2.0, 2.0**20 - 1.0):
            d = HalfSpace([0.6, 0.8], offset)
            assert d.anchor.tobytes() == ((offset + 1.0) * np.array([0.6, 0.8])).tobytes()

    # edge values for the oracle: signed zeros, the smallest subnormal and
    # a larger one, infinities, NaN and the ends of the float range, where
    # a slack can overflow
    EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.5, -2.0,
             np.inf, -np.inf, np.nan, 1e308, -1e308, 1.7e308, -1.7e308)
    NORMALS = {
        1: ([1.0], [-1.0]),
        2: ([0.6, -0.8], [0.0, 1.0]),
        3: ([2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0], [0.0, 0.0, -1.0]),
    }

    @pytest.mark.parametrize("offset", [0.0, -0.0])
    @pytest.mark.parametrize(
        "normal", [[1.0], [-1.0], [0.0, 1.0], [-0.0, -1.0], [0.6, -0.8], [-0.6, 0.8]]
    )
    def test_rows_of_zero_slack_keep_their_bits(self, normal, offset):
        # a row of slack +0 or -0 subtracts min(s, z) n for the zeros z of
        # n's signs: +0, which keeps every entry's bits, only where
        # np.minimum returns z on a tie of zeros, alone and in a long batch
        domain = HalfSpace(normal, offset, anchor=normal)
        entries = [[0.0, -0.0] + ([2.5, -2.5] if n == 0.0 else []) for n in normal]
        X = np.array(list(itertools.product(*entries)))
        # slacks of both signs, but -0 - (-0) is +0
        s = _rows_times(X, domain.normal[None, :])[:, 0] - offset
        assert np.all(s == 0.0) and not np.signbit(s).all()
        assert np.signbit(s).any() != np.signbit(offset)
        for rows in (X, np.tile(X, (300, 1))):
            assert domain.project_points(rows).tobytes() == rows.tobytes()

    @staticmethod
    def where_oracle(domain, X):
        """The half-space projection as one np.where over both branches, of
        each row whose slack overflows to -inf scaled first by its power of
        two t: P(x) = P_{t offset}(t x) / t."""
        n = domain.normal[None, :]
        s = _rows_times(X, n)[:, 0] - domain.offset
        t = np.where(s == -np.inf, _scales(X), 1.0)[:, None]
        s = _rows_times(t * X, n) - t * domain.offset
        return np.where(s >= 0.0, t * X, t * X - s * n) / t

    @pytest.mark.parametrize("offset", [0.0, -0.0, 5e-324, -1.0, 1e300, -1e300])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_where_oracle(self, d, offset):
        rng = np.random.default_rng(d)
        edges = np.array(self.EDGES)
        grid = np.stack(np.meshgrid(*[edges] * min(d, 2), indexing="ij"), -1)
        X = grid.reshape(-1, min(d, 2))
        if d == 3:
            X = np.column_stack([X, rng.choice(edges, X.shape[0])])
        # points on the face and a subnormal step to either side of it
        for normal in self.NORMALS[d]:
            anchor = (2.0 * abs(offset) + 1.0) * np.array(normal)
            domain = HalfSpace(normal, offset, anchor=anchor)
            face = domain.project_points(rng.normal(size=(8, d)) - 5.0 * domain.normal)
            rows = [X, face, face + 5e-324 * domain.normal, face - 5e-324 * domain.normal]
            rows = np.concatenate(rows)
            # inf - inf and overflow warn alike in both; the bits are compared
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = domain.project_points(rows), self.where_oracle(domain, rows)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.tobytes() == want.tobytes()
            assert got is not rows and not np.shares_memory(got, rows)


class TestBox:
    def test_clamps_coordinatewise(self):
        d = Box([0.0, 0.0], [1.0, 2.0])
        assert np.allclose(d.project_point([-1.0, 5.0]), [0.0, 2.0])
        assert np.allclose(d.project_point([0.3, 0.7]), [0.3, 0.7])

    def test_boundary_distance_inside(self):
        d = Box([0.0, 0.0], [1.0, 2.0])
        assert d.boundary_distance([0.4, 1.0]) == pytest.approx(0.4)
        assert d.boundary_distance([2.0, 1.0]) == pytest.approx(1.0)

    def test_corner_normals(self):
        d = Box([0.0, 0.0], [1.0, 1.0])
        normals = d.inward_normals([0.0, 0.0])
        assert normals.shape == (2, 2)
        assert {tuple(row) for row in normals} == {(1.0, 0.0), (0.0, 1.0)}

    def test_normals_in_face_order(self):
        # x_i >= lo_i, then -x_i >= -hi_i, per coordinate; no entry is -0.0
        d = Box([0.0, 0.0], [1e-12, 1e-12])
        normals = d.inward_normals([0.0, 0.0])
        assert normals.tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        assert not np.signbit(normals[normals == 0.0]).any()

    def test_corner_within_tol_per_coordinate(self):
        # the least slack decides: 0.9 tol outside in each coordinate is
        # 1.27 tol from the corner, and both faces are active
        d = Box([0.0, 0.0], [1.0, 1.0])
        normals = d.inward_normals([-0.9, -0.9], tol=1.0)
        assert normals.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box([0.0, 1.0], [1.0, 1.0])


class TestBall:
    def test_radial_projection(self):
        d = Ball([0.0, 0.0], 1.0)
        assert np.allclose(d.project_point([3.0, 4.0]), [0.6, 0.8])

    def test_interior_identity(self):
        d = Ball([1.0, 1.0], 2.0)
        assert np.array_equal(d.project_point([1.5, 0.5]), [1.5, 0.5])

    def test_centre_of_a_wide_ball(self):
        # radius / |x - centre| overflows at the centre; only outside rows
        # are scaled, so the centre is its own projection without a warning
        d = Ball([0.5, 0.5], 1e308)
        assert np.array_equal(d.project_point([0.5, 0.5]), [0.5, 0.5])
        assert d.contains([0.5, 0.5])

    def test_point_past_the_float_range_is_outside(self):
        # x - centre overflows; the point projects to the centre, and its
        # distance from it, past the float range, reads as outside
        assert not Ball([-1e308, 0.0], 1.0).contains([1e308, 0.0])
        assert Ball([-1e308, 0.0], 1.0).boundary_distance([1e308, 0.0]) == np.inf

    def test_boundary_distance(self):
        d = Ball([0.0, 0.0], 1.0)
        assert d.boundary_distance([0.25, 0.0]) == pytest.approx(0.75)
        assert d.boundary_distance([2.0, 0.0]) == pytest.approx(1.0)


class TestBallPastTheFloatRange:
    @pytest.mark.filterwarnings("error")
    def test_offset_whose_length_overflows(self):
        # |x - centre| overflows for these finite offsets; the row is scaled
        # by a power of two first, so it projects along its own direction
        d = Ball([0.0, 0.0], 1.0)
        X = np.array([[3e154, 4e154], [0.3, 0.4], [-1.7e308, 1.7e308], [3e153, 4e153]])
        P = d.project_points(X)
        want = [[0.6, 0.8], [0.3, 0.4], [-(0.5**0.5), 0.5**0.5], [0.6, 0.8]]
        assert np.allclose(P, want, rtol=1e-15, atol=0.0)
        assert np.array_equal(d.project_point(X[0]), P[0])
        # rows whose length is finite keep their bits
        finite = d.project_points(X[[1, 3]])
        assert P[[1, 3]].tobytes() == finite.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_offset_whose_squares_underflow(self):
        # the halved offset is measured by the near-row rule: the ball of
        # radius 2**-900 projects as the unit ball does, scaled
        d, unit = Ball([0.0, 0.0], 2.0**-900), Ball([0.0, 0.0], 1.0)
        x = np.array([3.0, 4.0])
        assert np.array_equal(d.project_point(2.0**-900 * x), 2.0**-900 * unit.project_point(x))
        P = d.project_point(2.0**-900 * x)
        assert np.allclose(P / 2.0**-900, [0.6, 0.8], rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_far_centre(self):
        # the exact projection, (1e300 - 0.5, -2 + 2.4e-308), rounds to the centre
        d = Ball([1e300, -2.0], 0.5)
        assert np.array_equal(d.project_point([-1.7e308, 6.0]), [1e300, -2.0])


@pytest.mark.filterwarnings("error")
class TestLengths:
    """Row lengths: sqrt(sum(D * D)) wherever that sum is finite and not
    below 2**-1000, and the power-of-two rule where a finite nonzero row's
    sum of squares overflows or underflows."""

    def test_bits_of_sqrt_of_summed_squares(self, rng):
        D = rng.standard_normal((4, 5, 3)) * np.array([1e-3, 1.0, 1e150])
        assert _lengths(D).tobytes() == np.sqrt((D * D).sum(axis=-1)).tobytes()

    def test_rows_whose_squares_overflow(self):
        D = np.array(
            [[3e200, -4e200], [1e308, 0.0], [1.7e308, 1.7e308], [np.inf, 1.0], [np.nan, 1e300]]
        )
        # raising on overflow, as a study runs: the rule ignores what it mends
        with np.errstate(over="raise"):
            got = _lengths(D)
        assert np.allclose(got[:2], [5e200, 1e308], rtol=1e-15, atol=0.0)
        # a length past the float range is inf; a row with NaN is NaN
        assert got[2] == got[3] == np.inf and np.isnan(got[4])

    def test_rows_whose_squares_underflow(self):
        D = np.array([[1e-200, 0.0], [3e-170, 4e-170], [5e-324, 0.0], [0.0, -0.0]])
        assert _lengths(D).tolist() == [1e-200, 5e-170, 5e-324, 0.0]
        # a row within 2**-500 of zero has the bits of its scaled length
        D = np.array([[3.0, -4.0, 12.0], [1e-3, 2.0, 0.5]])
        for k in (-500, -700, -1000):
            assert _lengths(2.0**k * D).tobytes() == (2.0**k * _lengths(D)).tobytes()

    def test_single_row(self):
        # the one-row case, far rows too
        for row in ([3.0, -4.0], [3e200, -4e200], [1e308], [np.inf, 1.0]):
            D = np.array(row)
            assert _lengths(D).tobytes() == _lengths(D[None])[0].tobytes()
        assert _lengths(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)

    def test_leading_axes(self):
        D = np.full((2, 3, 2), 1e300)
        D[0, 1] = 1.0
        want = np.full((2, 3), np.sqrt(2.0) * 1e300)
        want[0, 1] = np.sqrt(2.0)
        assert np.allclose(_lengths(D), want, rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error")
class TestFarRows:
    """A finite row past the float range's square root projects to its
    exact point within round-off, without a warning, on each domain."""

    def test_half_space_whose_inner_product_overflows(self):
        # n.x = -2.1e308; the exact point is about (-2.4e307, 1.8e307)
        P = HalfSpace([0.6, 0.8], 0.0).project_points(np.array([[-1.5e308, -1.5e308]]))
        assert np.allclose(P, [[-2.4e307, 1.8e307]], rtol=1e-14, atol=0.0)

    def test_half_line_of_a_far_offset(self):
        # x - offset = -2e308 overflows; the exact point is the offset
        d = HalfSpace([1.0], 1e308, anchor=[1.7e308])
        P = d.project_points(np.array([[-1e308], [1.5e308]]))
        assert np.array_equal(P, [[1e308], [1.5e308]])

    def test_ball_of_a_far_centre(self):
        # x - centre = 2e308 overflows; the exact point, (-1e308 + 1, 0),
        # rounds to the centre
        d = Ball([-1e308, 0.0], 1.0)
        assert np.array_equal(d.project_point([1e308, 0.0]), [-1e308, 0.0])

    def test_ball_normals_of_a_point_whose_offset_overflows(self):
        # centre - b = -2e308 overflows: the point is off the sphere
        assert Ball([-1e308, 0.0], 1.0).inward_normals([1e308, 0.0]).shape == (0, 2)

    def test_ball_of_a_radius_near_the_float_range(self):
        # radius / |sV| for the scaled offset would overflow: the far rows
        # take their direction times the radius
        d = Ball([1e308, 0.0], 1.7e308)
        P = d.project_points(np.array([[-1e308, 0.0], [-1.7e308, 1.7e308]]))
        u = np.array([-2.7, 1.7]) / np.hypot(2.7, 1.7)
        want = [[-0.7e308, 0.0], [1e308 + 1.7e308 * u[0], 1.7e308 * u[1]]]
        assert np.allclose(P, want, rtol=1e-14, atol=0.0)

    def test_wide_ball_keeps_a_point_whose_offset_length_overflows(self):
        # |x - centre| = 1e300 is inside the radius 2e300, though its
        # square overflows
        d = Ball([0.0, 1e300], 2e300)
        X = np.array([[0.0, 0.0], [0.0, -1.5e300]])
        assert np.allclose(d.project_points(X), [[0.0, 0.0], [0.0, -1e300]], rtol=1e-15, atol=0.0)

    def test_wedge_rows_whose_slacks_overflow(self):
        # a face slack of the first row overflows before it is scaled
        wedge = two_face_wedge(np.radians(30.0))
        X = np.array([[1.7e308, -1.7e308], [-1.7e308, -1.7e308]])
        assert np.array_equal(wedge.project_points(X), [[1.7e308, 0.0], [0.0, 0.0]])

    def test_polyhedron_whose_faces_meet_past_the_float_range(self):
        # the faces meet near x = 2e309, so that vertex has no finite map;
        # a row below both projects onto the second face
        a = 1e-3
        far = HalfSpace([np.sin(a), np.cos(a)], 1e306, anchor=[0.0, 2e306])
        faces = [HalfSpace([0.0, 1.0], -1e306, anchor=[0.0, 0.0]), far]
        d = Polyhedron(faces, anchor=[0.0, 2e306])
        # the stacked maps are those of the two single faces, all finite
        W, w = d._maps
        assert len(w) == 2 and np.isfinite(W).all() and np.isfinite(w).all()
        y = np.array([0.0, -1e307])
        want = y + (1e306 - far.normal @ y) * far.normal
        assert np.allclose(d.project_point(y), want, rtol=1e-14, atol=0.0)

    def test_near_row_beside_a_far_face(self):
        # a row within 2**-500 of zero is scaled up only so far that the
        # face's offset times the scale stays finite
        far = HalfSpace([1.0], 1e300, anchor=[2e300])
        d = Polyhedron([far], anchor=[2e300])
        assert np.array_equal(d.project_points(np.array([[1e-200], [-5e-324]])), [[1e300], [1e300]])

    def test_slab_whose_opposite_slacks_overflow(self):
        # at a face of [-1e308, 1e308] the other face's slack is 2e308, +inf:
        # that candidate is kept, for it is the projection
        o = [0.0]
        slab = Polyhedron([HalfSpace([1.0], -1e308, anchor=o), HalfSpace([-1.0], -1e308, anchor=o)], anchor=o)
        assert len(slab._maps[1]) == 2
        P = slab.project_points(np.array([[0.0], [-1.5e308], [1.5e308]]))
        assert np.array_equal(P, [[0.0], [-1e308], [1e308]])
        # the tolerance scales with the finite constants alone: the lower
        # face's candidate, -1e308, does not certify the row 1, whose
        # projection it is not
        W, w = slab._maps
        assert np.isnan(slab._certified_candidate(np.array([[1.0]]), np.ones(1), W[:1], w[:1])).all()

    def test_least_distance_beside_a_far_slab(self):
        # 82 faces take the NNLS path.  The slab's far offsets hide the
        # near faces below the NNLS's rounding, so its candidate is the row
        # itself; certified face by face, it is refused, not returned
        o = [0.0, 0.0]
        t = np.linspace(-0.5, 0.5, 80)
        near = [HalfSpace(n, -1.0, anchor=o) for n in np.column_stack([np.sin(t), np.cos(t)])]
        for width, want in ((1e3, [0.39408482, -0.91909587]), (1e308, None)):
            slab = [HalfSpace([s, 0.0], -width, anchor=o) for s in (1.0, -1.0)]
            d = Polyhedron(slab + near, anchor=o)
            assert d._maps is None
            if want is None:
                with pytest.raises(NumericalError):
                    d.project_point([3.0, -7.0])
            else:
                assert np.allclose(d.project_point([3.0, -7.0]), want, rtol=0.0, atol=1e-8)

    def test_slab_and_a_third_face(self):
        o = [0.0, 0.0]
        faces = [HalfSpace([1.0, 0.0], -1e308, anchor=o), HalfSpace([-1.0, 0.0], -1e308, anchor=o)]
        d = Polyhedron(faces + [HalfSpace([0.0, 1.0], -1.0, anchor=o)], anchor=o)
        X = np.array([[0.0, 0.0], [-1.5e308, 0.0], [1.5e308, -5.0], [3.0, -7.0]])
        want = [[0.0, 0.0], [-1e308, 0.0], [1e308, -1.0], [3.0, -1.0]]
        assert np.array_equal(d.project_points(X), want)


@pytest.mark.filterwarnings("error")
class TestDistances:
    """A finite point far outside: its distance to the domain, its
    penetration and its anchor gap are finite or +inf, never NaN, and no
    step warns."""

    @pytest.mark.parametrize(
        "domain",
        [
            Box([0.0, 0.0], [1.0, 1.0]),
            Polyhedron([HalfSpace(n, -1.0) for n in ([-1.0, 0.0], [0.0, -1.0])], anchor=[0.0, 0.0]),
        ],
        ids=["box", "polyhedron"],
    )
    def test_point_whose_squares_overflow(self, domain):
        x = [1e200, 1e200]
        want = np.sqrt(2.0) * 1e200
        assert domain.boundary_distance(x) == pytest.approx(want, rel=1e-15)
        res = project(domain, x)
        assert np.array_equal(res.point, [1.0, 1.0]) and res.on_boundary
        assert res.penetration == pytest.approx(want, rel=1e-15)
        assert not domain.contains(x)
        gap = anchor_gap(domain, x)
        assert gap >= 0.0 and not np.isnan(gap)

    def test_boundary_of_a_wide_ball(self):
        d = Ball([0.0, 0.0], 1e200)
        b = [0.6e200, 0.8e200]
        assert d.boundary_distance(b) == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(d.inward_normals(b), [[-0.6, -0.8]], rtol=1e-15, atol=0.0)
        assert d.contains(b)

    def test_distance_is_the_length_of_the_displacement(self, rng):
        # outside a half-space or a ball too, |x - P(x)|, not |clearance|
        for d in make_domains().values():
            X = rng.uniform(-3.0, 3.0, size=(50, 2))
            P, dist = d._distances(X)
            assert P.tobytes() == d.project_points(X).tobytes()
            assert dist.tobytes() == _lengths(X - P).tobytes()
            for x, r in zip(X, dist):
                assert d.boundary_distance(x) == (r if r > 0.0 else d._interior_clearance(x))
                assert project(d, x).penetration == r


class TestPolyhedron:
    def test_matches_qp_oracle(self, rng):
        d = make_domains()["polyhedron"]
        normals = np.array([h.normal for h in d.faces])
        offsets = np.array([h.offset for h in d.faces])
        X = rng.uniform(-3.0, 3.0, size=(200, 2))
        for x in X:
            p = d.project_point(x)
            ref = projection_qp(normals, offsets, x)
            assert np.linalg.norm(p - ref) < 1e-10

    def test_corner_projection_exact(self):
        d = make_domains()["polyhedron"]
        assert np.allclose(d.project_point([-1.0, -1.0]), [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("angle", [0.1, 0.01, 0.001])
    def test_thin_wedge_projects_to_the_apex(self, angle):
        # past the apex of a thin wedge the nearest point is the apex: the
        # vertex candidate, certified by its multipliers and containment
        wedge = two_face_wedge(angle)
        y = np.array([-1.0, 0.3])
        p = wedge.project_point(y)
        assert np.linalg.norm(p) <= 1e-12
        assert cone_residual(wedge.inward_normals(p), p - y) <= 1e-12
        assert wedge.contains(p)

    def test_point_past_the_float_range_is_outside(self):
        # the certified candidate is the apex; its distance overflows and
        # must not remove it, so the point is outside without an error
        wedge = two_face_wedge(np.radians(30.0))
        with np.errstate(over="ignore"):
            assert np.array_equal(wedge.project_point([-1e308, 0.25]), [0.0, 0.0])
        assert not wedge.contains([-1e308, 0.25])

    def test_far_rows_land_on_the_apex_past_the_block_bound(self, monkeypatch):
        # a block too small for one row's candidates routes the wedge to
        # the least-distance NNLS; a point past the float range is scaled
        # by a power of two first, and a far row lands on the vertex
        # exactly, as on the stacked path
        monkeypatch.setattr("reflectsde.domain._ENTRIES_PER_BLOCK", 0)
        wedge = two_face_wedge(np.radians(30.0))
        X = np.array([[-1e308, 0.25], [3.0, -1.0], [-1e200, 0.25]])
        P = wedge.project_points(X)
        assert np.array_equal(P[[0, 2]], np.zeros((2, 2)))
        assert np.allclose(P[1], [3.0, 0.0], atol=1e-12)

    def test_rows_outside_by_rounding_past_the_block_bound(self, monkeypatch):
        # the NNLS sees no violation below its rounding tolerance: such a
        # row is its own candidate, certified within tolerance, and lies
        # within 1e-12 of the stacked path's answer
        X = np.array([[3.0, -1e-300], [3.0, -1e-17], [3.0, -1e-12]])
        want = two_face_wedge(np.radians(30.0)).project_points(X)
        monkeypatch.setattr("reflectsde.domain._ENTRIES_PER_BLOCK", 0)
        got = two_face_wedge(np.radians(30.0)).project_points(X)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("block", [None, 0], ids=["stacked", "nnls"])
    def test_faces_at_an_angle_below_the_gram_resolution(self, block, monkeypatch, rng):
        # two independent faces 6.7e-13 apart in d = 3: their Gram matrix
        # rounds to a singular one, so they form no map, and each row
        # outside projects onto the tighter face, as the QP oracle does
        if block is not None:
            monkeypatch.setattr("reflectsde.domain._ENTRIES_PER_BLOCK", block)
        tilted = np.array([1.0, 0.0, 6.7e-13]) / np.linalg.norm([1.0, 0.0, 6.7e-13])
        faces = [HalfSpace(tilted, 0.0), HalfSpace([1.0, 0.0, 0.0], -0.5)]
        domain = Polyhedron(faces, anchor=[1.0, 0.0, 0.0])
        X = rng.uniform(-3.0, 3.0, size=(50, 3))
        P = domain.project_points(X)
        for x, p in zip(X, P):
            ref = projection_qp(np.array([tilted, [1.0, 0.0, 0.0]]), np.array([0.0, -0.5]), x)
            assert np.linalg.norm(p - ref) < 1e-10

    def test_anchor_required(self):
        with pytest.raises(ValueError):
            Polyhedron([HalfSpace([1.0, 0.0], 0.0)], anchor=None)

    def test_anchor_clearance_exact_formula(self):
        d = make_domains()["polyhedron"]
        normals = np.array([h.normal for h in d.faces])
        offsets = np.array([h.offset for h in d.faces])
        expected = np.min(normals @ d.anchor - offsets)
        assert d.anchor_clearance == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "name, outside",
    [
        ("halfspace", [-50.0, -50.0]),
        ("box", [-5.0, -1.0]),
        ("ball", [-50.0, -50.0]),
        ("polyhedron", [-5.0, 0.0]),
    ],
)
def test_no_inward_normals_off_the_boundary(name, outside):
    # the anchor, and a point outside by more than tol, which on the box
    # and the polyhedron lies on another face
    d = make_domains()[name]
    for x in (d.anchor, outside):
        assert d.inward_normals(x).shape == (0, 2)


class TestProjectionLaws:
    @pytest.mark.parametrize("name", ["halfspace", "box", "ball", "polyhedron"])
    def test_idempotent_nonexpansive_ray(self, name, rng):
        d = make_domains()[name]
        X = rng.uniform(-3.0, 3.0, size=(500, d.dim))
        P = d.project_points(X)
        # idempotence
        PP = d.project_points(P)
        assert np.max(np.linalg.norm(PP - P, axis=1)) <= 1e-10
        # nonexpansiveness on consecutive pairs
        for i in range(len(X) - 1):
            lhs = np.linalg.norm(P[i] - P[i + 1])
            rhs = np.linalg.norm(X[i] - X[i + 1])
            assert lhs <= rhs + 1e-10
        # ray invariance: points between x and its projection share it
        for lam in (0.25, 0.5, 0.75):
            mid = X + lam * (P - X)
            Pm = d.project_points(mid)
            assert np.max(np.linalg.norm(Pm - P, axis=1)) <= 1e-10

    @pytest.mark.parametrize("name", ["halfspace", "box", "ball", "polyhedron"])
    def test_anchor_gap_nonnegative(self, name, rng):
        d = make_domains()[name]
        X = rng.uniform(-3.0, 3.0, size=(500, d.dim))
        for x in X:
            assert anchor_gap(d, x) >= -1e-9

    def test_anchor_gap_fixed_values(self):
        # x = -3 projects to 0: <x - a, x - p> = (-4)(-3) = 12, |x - p| = 3
        d = HalfSpace([1.0], 0.0, anchor=[1.0])
        x = np.array([-3.0])
        assert anchor_gap(d, x) == pytest.approx(9.0)
        # interior point: zero displacement, zero gap
        assert anchor_gap(d, np.array([0.7])) == 0.0

    def test_anchor_gap_ball(self):
        # ball of radius 1, anchor center; x at distance 2: gap = 2*1/1 - 1 = 1
        d = Ball([0.0, 0.0], 1.0)
        assert anchor_gap(d, [2.0, 0.0]) == pytest.approx(1.0)


def random_cone(rng, dim, count):
    """Unit normals, with a duplicated row or (in d > 1) a row in the span
    of two others half of the time, so rank-deficient cones are covered."""
    normals = rng.normal(size=(count, dim))
    if count > 1 and rng.random() < 0.5:
        normals[-1] = normals[0]
    elif dim > 1 and count > 2 and rng.random() < 0.5:
        normals[-1] = 0.3 * normals[0] - 0.7 * normals[1]
    return normals / np.linalg.norm(normals, axis=1)[:, None]


def random_polyhedron(rng, dim, count):
    """Faces from :func:`random_cone` (duplicated and dependent normals
    included) with offsets that keep a random anchor strictly inside; half
    of the time a face is repeated exactly, offset and all."""
    normals = random_cone(rng, dim, count)
    anchor = rng.uniform(-1.0, 1.0, size=dim)
    offsets = normals @ anchor - rng.uniform(0.1, 1.0, size=count)
    if count > 1 and rng.random() < 0.5:
        offsets[-1] = offsets[0]
        normals[-1] = normals[0]
    faces = [HalfSpace(n, c) for n, c in zip(normals, offsets)]
    return Polyhedron(faces, anchor=anchor), normals, offsets


class TestConeResidual:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_matches_nnls(self, dim, count, rng):
        for _ in range(40):
            normals = random_cone(rng, dim, count)
            v = rng.normal(scale=3.0, size=dim)
            want = nnls(normals.T, v)[1]
            assert abs(cone_residual(normals, v) - want) <= 1e-11

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_inside_cone_is_zero(self, dim, count, rng):
        for _ in range(40):
            normals = random_cone(rng, dim, count)
            v = normals.T @ rng.uniform(0.0, 2.0, size=count)
            assert cone_residual(normals, v) <= 1e-12

    def test_no_normals_gives_the_norm(self):
        v = np.array([3.0, -4.0])
        assert cone_residual(np.empty((0, 2)), v) == 5.0

    @pytest.mark.filterwarnings("error")
    def test_scales_with_the_vector(self):
        # the NNLS stops at rounding relative to v: a vector in the cone
        # reads 0 and one outside its own distance, at any scale
        normals = [[-0.6, -0.8]]
        inside, outside = np.array([-2.4, -3.2]), np.array([1.0, -3.0])
        for k in range(-900, 1001, 100):
            assert cone_residual(normals, 2.0**k * inside) == 0.0
            assert cone_residual(normals, 2.0**k * outside) == 2.0**k * 2.6
        # a regulator jump of length 4e-20 along the normal is in the cone
        assert cone_residual(normals, [-2.4e-20, -3.2e-20]) <= 1e-15 * 4e-20

    def test_known_values(self):
        # outward jump on the half-line, and a corner of the unit square
        assert cone_residual([[1.0]], [-0.3]) == pytest.approx(0.3)
        corner = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cone_residual(corner, [0.7, 0.3]) == 0.0
        assert cone_residual(corner, [-2.0, 0.5]) == pytest.approx(2.0)


class TestActiveSetOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_random_polyhedra_match_qp_oracle(self, dim, count, rng):
        for _ in range(6):
            d, normals, offsets = random_polyhedron(rng, dim, count)
            X = d.anchor + rng.normal(scale=2.0, size=(30, dim))
            P = d.project_points(X)
            for x, p in zip(X, P):
                ref = projection_qp(normals, offsets, x)
                assert np.linalg.norm(p - ref) < 1e-10
                # a point gets the same bits alone as in the batch
                assert np.array_equal(p, d.project_point(x))

    @pytest.mark.parametrize(
        "dim, count", [(2, 11), (2, 45), (2, 90), (3, 11), (3, 33), (3, 90)]
    )
    def test_tangent_planes_satisfy_kkt(self, dim, count, rng):
        # tangent planes of the unit sphere; from 63 faces in d = 2 and 29
        # in d = 3 the candidates of a row do not fit one block, so both
        # paths are checked.  projection_qp enumerates 2^m sets, out of
        # reach here, so the oracle is the KKT conditions: feasibility, and
        # a displacement in the cone of the active normals
        normals = rng.normal(size=(count, dim))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        d = Polyhedron([HalfSpace(n, -1.0) for n in normals], anchor=np.zeros(dim))
        assert (d._maps is None) == (count > {2: 62, 3: 28}[dim])
        X = rng.normal(scale=3.0, size=(60, dim))
        P = d.project_points(X)
        assert np.min(normals @ P.T + 1.0) >= -1e-10
        for x, p in zip(X, P):
            if np.any(p != x):
                assert nnls(d.inward_normals(p).T, p - x)[1] <= 1e-10
            # a point gets the same bits alone as in the batch
            assert np.array_equal(p, d.project_point(x))

    @pytest.mark.parametrize("shift", [1e3, 1e6])
    def test_far_triangle_projects_to_its_vertices(self, shift, rng):
        # the make_domains() triangle moved far from the origin; each row
        # lies just inside the normal cone of a vertex, 5e-7 from its edge,
        # so a one-face candidate is nearer than the vertex and infeasible
        # by about 5e-7
        tri = make_domains()["polyhedron"]
        move = np.array([shift, -shift])
        normals = np.array([h.normal for h in tri.faces])
        offsets = np.array([h.offset for h in tri.faces]) + normals @ move
        d = Polyhedron(
            [HalfSpace(n, c) for n, c in zip(normals, offsets)],
            anchor=tri.anchor + move,
        )
        X, corners = [], []
        for i, j in ((0, 1), (1, 2), (2, 0)):
            corner = np.linalg.solve(normals[[i, j]], offsets[[i, j]])
            for a, b in ((i, j), (j, i)):
                scale = rng.uniform(0.5, 2.0)
                X.append(corner - scale * normals[a] - 5e-7 * normals[b])
                corners.append(corner)
        X, corners = np.array(X), np.array(corners)
        P = d.project_points(X)
        assert np.max(np.linalg.norm(P - corners, axis=1)) <= 1e-14 * shift
        assert np.min(d._slacks(P)) >= -1e-14 * shift
        for p in P:
            assert len(d.inward_normals(p)) == 2
        # the projection commutes with the move, as projection laws require
        Q = tri.project_points(X - move) + move
        assert np.max(np.linalg.norm(P - Q, axis=1)) <= 1e-14 * shift


class TestVectorizedAgreement:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", ["halfspace", "box", "ball", "polyhedron"])
    def test_batch_rows_equal_single_point(self, name, dim, rng):
        # one projection per domain: a point projects to the same bits
        # alone as in a batch, in every dimension
        d = make_domains()[name] if dim == 2 else make_domains_1d()[name]
        X = rng.uniform(-3.0, 3.0, size=(200, dim))
        P = d.project_points(X)
        assert np.any(P != X)
        for i, x in enumerate(X):
            assert np.array_equal(P[i], d.project_point(x))


class TestRowFailures:
    def test_capped_row_fails_alone(self, monkeypatch):
        # a 10-degree wedge past the block bound: points past the apex need
        # two NNLS columns and three steps, points outside one face far from
        # the apex one column and two steps
        monkeypatch.setattr("reflectsde.domain._ENTRIES_PER_BLOCK", 0)
        monkeypatch.setattr("reflectsde.domain._NNLS_MAX_ITER", 2)
        angle = np.radians(10.0)
        wedge = Polyhedron(
            [
                HalfSpace([0.0, 1.0], 0.0),
                HalfSpace([np.sin(angle), -np.cos(angle)], 0.0),
            ],
            anchor=[2.0, 0.1],
        )
        easy = np.array([[2.0, 0.1], [3.0, -0.5], [5.0, 2.0], [4.0, 0.3]])
        corner = np.array([-1.0, 0.3])
        assert np.array_equal(wedge.project_points(easy)[1], [3.0, 0.0])
        with pytest.raises(NumericalError) as failure:
            wedge.project_points(np.vstack([easy, corner]))
        # the error carries the batch result, NaN in the capped row only
        assert np.array_equal(failure.value.result[:4], wedge.project_points(easy))
        assert np.isnan(failure.value.result[4]).all()
        with pytest.raises(NumericalError):
            wedge.project_point(corner)

        # the kernel takes failed rows from that result: one projection
        # call per grid point, none repeated
        calls = []
        project = Polyhedron.project_points

        def counted(self, X):
            calls.append(len(X))
            return project(self, X)

        monkeypatch.setattr(Polyhedron, "project_points", counted)
        grid = Grid.regular(1.0, 2)
        H = np.repeat(wedge.anchor[None, None], 5, axis=0).repeat(3, axis=1)
        H[:4, 1:] = easy[:, None]
        H[4, 1:] = corner
        states, projections = euler_penalized_batch(
            wedge, Identity(2), H, np.zeros_like(H), 10.0, grid
        )
        assert len(calls) == grid.cells + 1
        assert np.isnan(states[4]).all() and np.isnan(projections[4]).all()
        assert np.isfinite(states[:4]).all() and np.isfinite(projections[:4]).all()

    @pytest.mark.parametrize("block", [1 << 18, 0], ids=["stacked", "nnls"])
    def test_far_row_projects_to_the_apex(self, block, monkeypatch):
        # a wide wedge whose vertex multipliers overflow for a point near
        # the float range unless the row is scaled first; the other rows
        # keep the bits they have in a batch of their own
        monkeypatch.setattr("reflectsde.domain._ENTRIES_PER_BLOCK", block)
        wedge = Polyhedron(
            [HalfSpace([0.6, 0.8], 0.0), HalfSpace([0.8, 0.6], 0.0)],
            anchor=[1.0, 1.0],
        )
        easy = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, -1.0], [-0.5, 3.0]])
        far = np.array([-1e308, -1e308])
        P = wedge.project_points(np.vstack([easy, far]))
        assert np.array_equal(P[:4], wedge.project_points(easy))
        assert np.array_equal(P[4], [0.0, 0.0])

        # the kernel runs the far row like any other: one projection call
        # per grid point
        calls = []
        project = Polyhedron.project_points

        def counted(self, X):
            calls.append(len(X))
            return project(self, X)

        monkeypatch.setattr(Polyhedron, "project_points", counted)
        grid = Grid.regular(1.0, 2)
        H = np.repeat(wedge.anchor[None, None], 5, axis=0).repeat(3, axis=1)
        H[:4, 1:] = easy[:, None]
        H[4, 1:] = far
        states, projections = euler_penalized_batch(
            wedge, Identity(2), H, np.zeros_like(H), 10.0, grid
        )
        assert len(calls) == grid.cells + 1
        assert np.isfinite(states).all() and np.isfinite(projections).all()
