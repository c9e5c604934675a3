"""Projection laws, anchors, and cone checks for the built-in domains."""

import numpy as np
import pytest
from scipy.optimize import nnls

from reflectsde.domain import (
    Ball,
    Box,
    HalfSpace,
    NumericalError,
    Polyhedron,
    _rows_times,
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

    # edge values for the oracle: signed zeros, the smallest subnormal and
    # a larger one, infinities, NaN and the ends of the float range
    EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.5, -2.0,
             np.inf, -np.inf, np.nan, 1e308, -1e308)
    NORMALS = {
        1: ([1.0], [-1.0]),
        2: ([0.6, -0.8], [0.0, 1.0]),
        3: ([2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0], [0.0, 0.0, -1.0]),
    }

    @staticmethod
    def where_oracle(domain, X):
        """The half-space projection as one np.where over both branches."""
        s = _rows_times(X, domain.normal[None, :])[:, 0] - domain.offset
        return np.where(s[:, None] >= 0.0, X, X - s[:, None] * domain.normal)

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
        # x - centre overflows, and scaling it computes inf * 0; the NaN
        # distance reads as outside, without an invalid-value warning
        assert not Ball([-1e308, 0.0], 1.0).contains([1e308, 0.0])

    def test_boundary_distance(self):
        d = Ball([0.0, 0.0], 1.0)
        assert d.boundary_distance([0.25, 0.0]) == pytest.approx(0.75)
        assert d.boundary_distance([2.0, 0.0]) == pytest.approx(1.0)


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

    def test_anchor_required(self):
        with pytest.raises(ValueError):
            Polyhedron([HalfSpace([1.0, 0.0], 0.0)], anchor=None)

    def test_anchor_clearance_exact_formula(self):
        d = make_domains()["polyhedron"]
        normals = np.array([h.normal for h in d.faces])
        offsets = np.array([h.offset for h in d.faces])
        expected = np.min(normals @ d.anchor - offsets)
        assert d.anchor_clearance == pytest.approx(expected, abs=1e-15)


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
        # tangent planes of the unit sphere; from 79 faces in d = 2 and 34
        # in d = 3 the candidates of a row do not fit one block, so both
        # paths are checked.  projection_qp enumerates 2^m sets, out of
        # reach here, so the oracle is the KKT conditions: feasibility, and
        # a displacement in the cone of the active normals
        normals = rng.normal(size=(count, dim))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        d = Polyhedron([HalfSpace(n, -1.0) for n in normals], anchor=np.zeros(dim))
        assert (d._maps is None) == (count > {2: 78, 3: 33}[dim])
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
