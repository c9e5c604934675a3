"""Convex domains with Euclidean nearest-point projection.

Four shapes: half-space, axis-aligned box, ball, and a finite intersection
of half-spaces (projected onto its certified active-set candidate).  Each
projects the rows of an (m, d) array (``project_points``);
``project_point`` is the one-row case, so a point gets the same bits
alone or in any batch.  Every domain carries a designated strictly
interior anchor point together with a validated lower bound on its
distance to the boundary; the a-priori bounds in
:mod:`reflectsde.penalty` are stated relative to that anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

UNIT_TOL = 1e-12
BOUNDARY_TOL = 1e-9
PROJECTION_TOL = 1e-12
# Entries of the (rows, candidates, values) temporaries of one block.  A
# polyhedron whose candidate values for one row do not fit in a block is
# projected row by row through one NNLS, so the maps stay within a few.
_ENTRIES_PER_BLOCK = 1 << 18
# NNLS steps before a solve counts as cycling on rounding: each adds one of
# at most d + 1 columns; on up to 90 tangent planes in d <= 3 none took 9.
_NNLS_MAX_ITER = 100

__all__ = [
    "UNIT_TOL",
    "BOUNDARY_TOL",
    "PROJECTION_TOL",
    "NumericalError",
    "DomainViolationError",
    "ProjectionResult",
    "ConvexDomain",
    "HalfSpace",
    "Box",
    "Ball",
    "Polyhedron",
    "project",
    "anchor_gap",
    "cone_residual",
]


class NumericalError(RuntimeError):
    """No certified projection or cone residual; ``result``, when given, is
    the batch's projections with NaN in the rows that failed."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class DomainViolationError(ValueError):
    """A value required to lie in the closed domain does not."""


def _vec(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a point, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite coordinates")
    return v


def _rows_times(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Rows X[i] @ A.T, rounded the same way whatever the number of rows:
    a BLAS product rounds one row differently from a batch of them."""
    out = X[:, :1] * A[:, 0]
    for j in range(1, A.shape[1]):
        out = out + X[:, j : j + 1] * A[:, j]
    return out


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Minimizer of |A x - b| over x >= 0 by Lawson & Hanson's active-set
    method (Solving Least Squares Problems, 1974, ch. 23), or None after
    ``_NNLS_MAX_ITER`` steps; it ends, certified, when no gradient
    A^T (b - A x) is above rounding.  An entering column whose coefficient
    comes out not positive (rounding, dependent columns) is passed over
    for that step, else the loop cycles."""
    n = A.shape[1]
    tol = 10 * np.finfo(float).eps * max(A.shape) * np.abs(A).sum(0).max(initial=0)

    def solve(columns):
        z = np.zeros(n)
        z[columns] = np.linalg.lstsq(A[:, columns], b, rcond=None)[0]
        return z

    x, passive = np.zeros(n), np.zeros(n, dtype=bool)
    for _ in range(_NNLS_MAX_ITER):
        gradient = A.T @ (b - A @ x)
        for j in np.argsort(-gradient):
            if gradient[j] <= tol:
                return x
            if not passive[j]:
                z = solve(passive | (np.arange(n) == j))
                if z[j] > 0.0:
                    break
        else:
            return x
        passive[j] = True
        # step toward z until an entry reaches zero, and drop its column
        while np.any(z[passive] <= 0.0):
            stuck = np.flatnonzero(passive & (z <= 0.0))
            ratio = x[stuck] / (x[stuck] - z[stuck])
            x = x + ratio.min() * (z - x)
            passive[stuck[ratio.argmin()]] = False
            passive &= x > 0.0
            x[~passive] = 0.0
            z = solve(passive)
        x = z
    return None


@dataclass(frozen=True)
class ProjectionResult:
    """Nearest point in the closed domain plus diagnostics.

    ``penetration`` is the Euclidean distance from the input to ``point``
    (zero iff the input already lay in the domain, up to tolerance);
    ``on_boundary`` refers to ``point`` itself.
    """

    point: np.ndarray
    penetration: float
    on_boundary: bool


class ConvexDomain:
    """Closed convex subset of R^d with an interior anchor.

    Subclasses provide ``project_points`` (row-wise nearest points of an
    (m, d) array, exact up to rounding; the single-point ``project_point``
    is its one-row case),
    ``boundary_distance`` (distance to the topological boundary, from
    either side), and the active inward normals at a boundary point.
    ``anchor_clearance`` is validated at construction: it must be positive
    and must not exceed the exact boundary distance of the anchor, so a
    conservative value is allowed and every bound built on it stays valid.
    """

    dim: int
    anchor: np.ndarray
    anchor_clearance: float

    def _init_anchor(self, anchor, clearance) -> None:
        if anchor is None:
            anchor = self._default_anchor()
        anchor = _vec(anchor, self.dim)
        exact = self._interior_clearance(anchor)
        if not exact > 0:
            raise ValueError("anchor must be strictly interior to the domain")
        if clearance is None:
            clearance = exact
        clearance = float(clearance)
        if not clearance > 0:
            raise ValueError("anchor_clearance must be positive")
        if clearance > exact + BOUNDARY_TOL:
            raise ValueError(
                f"anchor_clearance {clearance} exceeds the anchor's actual "
                f"boundary distance {exact}"
            )
        anchor.setflags(write=False)
        self.anchor = anchor
        self.anchor_clearance = min(clearance, exact)

    def _default_anchor(self) -> np.ndarray:
        raise NotImplementedError

    def _interior_clearance(self, point: np.ndarray) -> float:
        """Signed distance to the boundary, positive inside."""
        raise NotImplementedError

    def project_points(self, X: np.ndarray) -> np.ndarray:
        """Row-wise projection of an (m, d) array."""
        raise NotImplementedError

    def project_point(self, x) -> np.ndarray:
        """Nearest point of one point: the one-row ``project_points``."""
        return self.project_points(_vec(x, self.dim)[None])[0]

    def boundary_distance(self, x) -> float:
        x = _vec(x, self.dim)
        inside = self._interior_clearance(x)
        if inside >= 0.0:
            return float(inside)
        return float(np.linalg.norm(x - self.project_point(x)))

    def contains(self, x, tol: float = BOUNDARY_TOL) -> bool:
        x = _vec(x, self.dim)
        # a distance past the float range, or one that inf - inf made NaN,
        # belongs to a point far outside
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.linalg.norm(x - self.project_point(x)) <= tol)

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        """Unit inward normals of the faces active at boundary point ``b``.

        Returns an (m, d) array, empty if ``b`` is not within ``tol`` of the
        boundary.  For smooth pieces there is a single row; at box corners
        and polyhedron edges one row per active face.
        """
        raise NotImplementedError


class HalfSpace(ConvexDomain):
    """Closed half-space ``{x : <normal, x> >= offset}`` with unit normal."""

    def __init__(self, normal, offset: float, anchor=None, anchor_clearance=None):
        n = _vec(normal)
        # a normal near the float range has infinite length: not a unit one
        with np.errstate(over="ignore"):
            length = np.linalg.norm(n)
        if abs(length - 1.0) > UNIT_TOL:
            raise ValueError("half-space normal must have unit length")
        n.setflags(write=False)
        self.normal = n
        self.offset = float(offset)
        self.dim = n.shape[0]
        self._init_anchor(anchor, anchor_clearance)

    def _default_anchor(self) -> np.ndarray:
        return (self.offset + 1.0) * self.normal

    def _interior_clearance(self, point: np.ndarray) -> float:
        return float(self.normal @ point - self.offset)

    def project_points(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        s = _rows_times(X, self.normal[None, :])
        s -= self.offset
        out = np.multiply(s, self.normal)
        np.subtract(X, out, out=out)
        np.copyto(out, X, where=s >= 0.0)
        return out

    def boundary_distance(self, x) -> float:
        return abs(self._interior_clearance(_vec(x, self.dim)))

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        if self.boundary_distance(b) <= tol:
            return self.normal[None, :].copy()
        return np.empty((0, self.dim))


class Box(ConvexDomain):
    """Axis-aligned box ``[lower_i, upper_i]`` in each coordinate."""

    def __init__(self, lower, upper, anchor=None, anchor_clearance=None):
        lo = _vec(lower)
        hi = _vec(upper, lo.shape[0])
        if not np.all(lo < hi):
            raise ValueError("box must satisfy lower < upper coordinatewise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lower = lo
        self.upper = hi
        self.dim = lo.shape[0]
        self._init_anchor(anchor, anchor_clearance)

    def _default_anchor(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def _interior_clearance(self, point: np.ndarray) -> float:
        return float(min(np.min(point - self.lower), np.min(self.upper - point)))

    def project_points(self, X: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(X, dtype=float), self.lower, self.upper)

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        b = _vec(b, self.dim)
        if self.boundary_distance(b) > tol:
            return np.empty((0, self.dim))
        rows = []
        for i in range(self.dim):
            if abs(b[i] - self.lower[i]) <= tol:
                e = np.zeros(self.dim)
                e[i] = 1.0
                rows.append(e)
            if abs(self.upper[i] - b[i]) <= tol:
                e = np.zeros(self.dim)
                e[i] = -1.0
                rows.append(e)
        return np.array(rows) if rows else np.empty((0, self.dim))


class Ball(ConvexDomain):
    """Closed Euclidean ball of given center and radius."""

    def __init__(self, center, radius: float, anchor=None, anchor_clearance=None):
        c = _vec(center)
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        c.setflags(write=False)
        self.center = c
        self.radius = float(radius)
        self.dim = c.shape[0]
        self._init_anchor(anchor, anchor_clearance)

    def _default_anchor(self) -> np.ndarray:
        return self.center.copy()

    def _interior_clearance(self, point: np.ndarray) -> float:
        return self.radius - float(np.linalg.norm(point - self.center))

    def project_points(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        V = X - self.center
        r = np.linalg.norm(V, axis=1)
        outside = r > self.radius
        # only rows outside are scaled: radius / r at the centre overflows
        scale = self.radius / np.where(outside, r, self.radius)
        return np.where(outside[:, None], self.center + V * scale[:, None], X)

    def boundary_distance(self, x) -> float:
        return abs(self._interior_clearance(_vec(x, self.dim)))

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        b = _vec(b, self.dim)
        v = self.center - b
        r = np.linalg.norm(v)
        if abs(self.radius - np.linalg.norm(b - self.center)) > tol or r == 0.0:
            return np.empty((0, self.dim))
        return (v / r)[None, :]


class Polyhedron(ConvexDomain):
    """Finite intersection of half-spaces ``{x : A x >= b}``.

    The nearest point of y is the KKT point of some active set S of at most d
    independent faces, an affine map of y: y + A_S^T mu for
    mu = (A_S A_S^T)^-1 (b_S - A_S y) if |S| < d, else the vertex A_S^-1 b_S
    with mu = A_S^-T (vertex - y).  The constructor stacks the maps of every
    independent S, and a row outside takes the candidate whose worst slack
    or multiplier is largest: only the KKT point has none negative.  When
    one row's candidate values do not fit in one block of
    ``_ENTRIES_PER_BLOCK`` entries (from 79 faces in d = 2 and 34 in d = 3),
    Lawson & Hanson's least-distance NNLS finds S for each row instead.  A
    row whose best score is below ``-PROJECTION_TOL`` times its scale, or
    whose NNLS stalls, gets NaN and makes the batch raise ``NumericalError``
    with the result.  The anchor is required (it certifies the interior is
    nonempty); its clearance is checked against min_i(<n_i, anchor> - c_i).
    """

    def __init__(self, halfspaces, anchor, anchor_clearance=None):
        faces = tuple(halfspaces)
        if not faces:
            raise ValueError("polyhedron needs at least one half-space")
        if not all(isinstance(h, HalfSpace) for h in faces):
            raise ValueError("polyhedron faces must be HalfSpace instances")
        dim = faces[0].dim
        if any(h.dim != dim for h in faces):
            raise ValueError("all faces must share one dimension")
        self.faces = faces
        self.dim = dim
        self._normals = np.array([h.normal for h in faces])
        self._offsets = np.array([h.offset for h in faces])
        if anchor is None:
            raise ValueError("polyhedron requires an explicit interior anchor")
        self._init_anchor(anchor, anchor_clearance)
        self._maps = self._active_set_maps()

    def _interior_clearance(self, point: np.ndarray) -> float:
        return float(np.min(self._normals @ point - self._offsets))

    def _slacks(self, X: np.ndarray) -> np.ndarray:
        """Face margins of the rows of X, positive inside, (m, faces)."""
        return _rows_times(X, self._normals) - self._offsets

    def _active_set_maps(self):
        """(W, w): ``_set_map`` stacked over every independent active set, or
        None if the values of one row would not fit in one block."""
        A = self._normals
        m, d = A.shape
        k_max = min(m, d)
        count = sum(comb(m, k) for k in range(1, k_max + 1))
        if count * (d + m + k_max) > _ENTRIES_PER_BLOCK:
            return None
        sets = [list(S) for k in range(k_max) for S in combinations(range(m), k + 1)]
        maps = [self._set_map(S) for S in sets if np.linalg.matrix_rank(A[S]) == len(S)]
        return tuple(np.array(part) for part in zip(*maps))

    def _set_map(self, S):
        """Affine map y -> W y + w of the independent active set S: the d
        coordinates of its candidate, the m face slacks there and its
        multipliers, padded with zeros to min(m, d)."""
        A, b, d = self._normals, self._offsets, self.dim
        AS, bS = A[S], b[S]
        if len(S) == d:
            inv_t = np.linalg.inv(AS).T
            C, c = np.zeros((d, d)), np.linalg.solve(AS, bS)
            M, mu = -inv_t, inv_t @ c
        else:
            G = np.linalg.inv(AS @ AS.T)
            M, mu = -G @ AS, G @ bS
            C, c = np.eye(d) + AS.T @ M, AS.T @ mu
        # the faces of S hold with equality at their own candidate
        slack_map, slack = A @ C, A @ c - b
        slack_map[S], slack[S] = 0.0, 0.0
        pad = np.zeros((min(A.shape) - len(S), d))
        W = np.vstack([C, slack_map, M, pad])
        return W, np.concatenate([c, slack, mu, pad[:, 0]])

    def project_points(self, X: np.ndarray) -> np.ndarray:
        out = np.array(X, dtype=float)
        rows = np.flatnonzero(self._slacks(out).min(axis=1) < 0.0)
        # a row y past 2^512 takes a power of two s: P(y) = P_{s b}(s y) / s
        Y = out[rows]
        size = np.abs(Y).max(axis=1)
        scales = np.where(size > 2.0**512, np.ldexp(1.0, -np.frexp(size)[1]), 1.0)
        Y *= scales[:, None]
        if self._maps is None:
            P = [self._least_distance(y, s) for y, s in zip(Y, scales[:, None])]
        else:
            P = np.empty_like(Y)
            W, w = self._maps
            step = _ENTRIES_PER_BLOCK // w.size
            for lo in range(0, len(Y), step):
                block = slice(lo, lo + step)
                P[block] = self._certified_candidate(Y[block], scales[block], W, w)
        out[rows] = np.reshape(P, Y.shape) / scales[:, None]
        lost = np.count_nonzero(np.isnan(out[rows]).any(axis=1))
        if lost:
            raise NumericalError(f"no certified projection of {lost} point(s)", out)
        return out

    def _certified_candidate(self, Y, scales, W, w) -> np.ndarray:
        """Certified candidate of each row of Y among the maps W y + w, for
        the offsets times ``scales``, NaN where none is.

        A candidate's score is its worst slack or multiplier.  The faces of
        its own set contribute an exact 0, so no score is positive; the
        KKT point scores 0 up to rounding, and any other candidate scores
        below it by its violation.  The best-scoring candidate is taken, so
        one that is infeasible by less than the tolerance never wins over
        the projection, however near to the row it lies.  Elementwise sums
        over the d columns, as in ``_rows_times``, so a row gets the same
        bits in any batch.
        """
        d = self.dim
        # the constant terms are linear in the offsets
        V = scales[:, None, None] * w + Y[:, 0, None, None] * W[..., 0]
        for j in range(1, d):
            V = V + Y[:, j, None, None] * W[..., j]
        score = V[..., d:].min(axis=2)
        # NaN (inf - inf) scores nothing, nor does a candidate not finite
        score[np.isnan(score) | ~np.isfinite(V[..., :d]).all(axis=2)] = -np.inf
        best = score.argmax(axis=1)
        rows = np.arange(len(Y))
        P = V[rows, best, :d]
        scale = 1.0 + np.abs(w).max()  # the constants whose rounding tol absorbs
        tol = PROJECTION_TOL * (scales * scale + np.abs(Y).max(axis=1))
        P[score[rows, best] < -tol] = np.nan
        return P

    def _least_distance(self, y: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Certified candidate of a row y outside {A x >= scale b}, or NaN.

        Lawson & Hanson's LDP (ch. 23): the shortest z with A z >= h,
        h = scale b - A y, is -r[:d] / r[d] for the residual r of the NNLS
        u of [A^T; h^T] u ~ e_{d+1}, and the faces with u > 0 are active at
        y + z.  Their candidate, certified as on the stacked path, puts a
        far row on its vertex exactly, where y + z would not.  h is scaled
        to a largest entry in [0.5, 1): r[d] = -1 / (1 + |z|^2)."""
        A, d = self._normals, self.dim
        h = scale * self._offsets - A @ y
        E = np.vstack([A.T, np.ldexp(h, -np.frexp(h.max())[1])])
        u = _nnls(E, np.eye(d + 1)[d])
        S = None if u is None else np.flatnonzero(u > 0.0)
        if S is None or len(S) != np.linalg.matrix_rank(A[S]):
            return np.full(d, np.nan)
        W, w = self._set_map(S)
        return self._certified_candidate(y[None], scale, W[None], w[None])[0]

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        b = _vec(b, self.dim)
        slacks = self._slacks(b[None])[0]
        if np.min(slacks) < -tol:
            return np.empty((0, self.dim))
        active = np.abs(slacks) <= tol
        return self._normals[active].copy()


def project(domain: ConvexDomain, x) -> ProjectionResult:
    """Nearest point of ``x`` in the domain, with penetration distance."""
    x = _vec(x, domain.dim)
    p = domain.project_point(x)
    penetration = float(np.linalg.norm(x - p))
    return ProjectionResult(
        point=p,
        penetration=penetration,
        on_boundary=domain.boundary_distance(p) <= BOUNDARY_TOL,
    )


def anchor_gap(domain: ConvexDomain, x) -> float:
    """Slack of the anchor inequality for the displacement to the projection.

    For any point x, ``<x - anchor, x - P(x)> / clearance - |x - P(x)|`` is
    nonnegative: a ball of radius ``clearance`` around the anchor sits
    inside the domain, so the displacement to the nearest point makes an
    acute enough angle with the offset from the anchor.  Returned as a
    signed quantity so tests can assert it never dips below -1e-9.
    """
    x = _vec(x, domain.dim)
    p = domain.project_point(x)
    displacement = x - p
    dist = float(np.linalg.norm(displacement))
    inner = float((x - domain.anchor) @ displacement)
    return inner / domain.anchor_clearance - dist


def cone_residual(normals, v) -> float:
    """Distance from ``v`` to the cone of the rows of ``normals``.

    The minimum of |N^T lam - v| over lam >= 0, for N of shape (k, d), by
    NNLS; with no rows it is |v|.  ``NumericalError`` if the NNLS stalls.
    """
    v = np.asarray(v, dtype=float)
    N = np.asarray(normals, dtype=float).reshape(-1, v.shape[0])
    lam = _nnls(N.T, v)
    if lam is None:
        raise NumericalError("cone residual: the NNLS did not finish")
    return float(np.linalg.norm(N.T @ lam - v))
