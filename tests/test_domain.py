"""Projection laws, anchors, and cone checks for the built-in domains."""

import numpy as np
import pytest

from reflectsde.domain import (
    Ball,
    Box,
    HalfSpace,
    NumericalError,
    Polyhedron,
    anchor_gap,
    normal_cone_check,
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

    def test_anchor_clearance_validated(self):
        with pytest.raises(ValueError):
            HalfSpace([1.0], 0.0, anchor=[1.0], anchor_clearance=2.0)
        with pytest.raises(ValueError):
            HalfSpace([1.0], 0.0, anchor=[-0.5])
        d = HalfSpace([1.0], 0.0, anchor=[2.0], anchor_clearance=0.5)
        assert d.anchor_clearance == 0.5


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


class TestNormalCone:
    def test_halfspace_normal_accepted(self):
        d = HalfSpace([1.0, 0.0], 0.0)
        samples = [[0.0, 0.0], [1.0, 2.0], [3.0, -4.0]]
        assert normal_cone_check(d, [0.0, 1.0], [1.0, 0.0], samples)

    def test_wrong_direction_rejected(self):
        d = HalfSpace([1.0, 0.0], 0.0)
        samples = [[2.0, 1.0]]
        assert not normal_cone_check(d, [0.0, 1.0], [-1.0, 0.0], samples)

    def test_interior_base_point_raises(self):
        d = HalfSpace([1.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            normal_cone_check(d, [1.0, 0.0], [1.0, 0.0], [[2.0, 0.0]])

    def test_corner_cone_combination(self):
        d = Box([0.0, 0.0], [1.0, 1.0])
        samples = [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]
        assert normal_cone_check(d, [0.0, 0.0], [0.7, 0.3], samples)

    def test_outside_sample_rejected(self):
        d = Box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            normal_cone_check(d, [0.0, 0.5], [1.0, 0.0], [[5.0, 5.0]])


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


class TestBatchedDykstra:
    def test_stuck_row_fails_alone(self, monkeypatch):
        # a 10-degree wedge: points past the apex need many sweeps, points
        # outside one face far from the apex need two
        monkeypatch.setattr("reflectsde.domain.MAX_PROJECTION_SWEEPS", 5)
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
        # the error carries the batch result, NaN in the stuck row only
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
