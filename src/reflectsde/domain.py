"""Convex domains with Euclidean nearest-point projection.

Four shapes: half-space, axis-aligned box, ball, and a finite intersection
of half-spaces (projected onto its certified active-set candidate).  Each
projects the rows of an (m, d) array (``project_points``);
``project_point`` is the one-row case, so a point gets the same bits
alone or in any batch.  Every domain carries a designated strictly
interior anchor point together with a validated lower bound on its
distance to the boundary; the a-priori bounds in
:mod:`reflectsde.penalty` are stated relative to that anchor.  A far or
near row is scaled by a power of two (``_scales``), in the projections and
in ``_lengths``, the one row length the package takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

UNIT_TOL = 1e-12
BOUNDARY_TOL = 1e-9
PROJECTION_TOL = 1e-12
# The one budget of every blocked loop: entries of a block's largest
# temporary.  2^17, a 1 MB block, sampled the rbm driver (M = 10^4, K = 1024,
# 2-core x86-64 host) fastest; 2^16 to 2^19 were no slower.  A polyhedron
# whose candidate values for one row do not fit in a block is projected row
# by row through one NNLS, so the maps stay within a few.
_ENTRIES_PER_BLOCK = 1 << 17
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


def _rows_per_block(entries_per_row: int) -> int:
    """Rows of ``entries_per_row`` entries that fit in one block; at least one."""
    return max(1, _ENTRIES_PER_BLOCK // entries_per_row)


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


def _scales(X, past=2.0**500):
    """Power of two s <= 2**1023 per row of X that brings its largest magnitude into [0.5, 1)
    where that is above ``past``, or nonzero and below 2**-500; else 1.0 (bits kept), as for
    zero, inf and NaN rows.  Exact short of subnormals (Blue, ACM TOMS 1978)."""
    size = np.abs(X).max(axis=-1)
    scaled = (size > past) | ((size > 0.0) & (size < 2.0**-500))
    return np.ldexp(1.0, np.where(scaled, np.minimum(-np.frexp(size)[1], 1023), 0))


def _lengths(D: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the rows of the last axis, or of one row, as sqrt(sum(D * D));
    a finite nonzero row whose length so computed is inf or below 2**-500 is scaled by
    ``_scales``, where its squares neither overflow nor underflow."""
    if D.ndim == 1:
        return _lengths(D[None])[0]
    with np.errstate(over="ignore"):
        squares = D * D
        out = np.sqrt(squares.sum(axis=-1))
        if not 2.0**-500 <= out.min(initial=1.0) <= out.max(initial=1.0) < np.inf:
            odd = (out < 2.0**-500) | (out == np.inf)
            # a row of length 0 is a zero row unless some nonzero entry's square underflowed
            if np.count_nonzero(squares) == np.count_nonzero(D):
                odd &= out != 0.0
            if odd.any():
                s = _scales(D[odd])
                out[odd] = np.sqrt(np.square(s[:, None] * D[odd]).sum(axis=-1)) / s
    return out


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Minimizer of |A x - b| over x >= 0 by Lawson & Hanson's active-set
    method (Solving Least Squares Problems, 1974, ch. 23), or None after
    ``_NNLS_MAX_ITER`` steps; it ends, certified, when no gradient
    A^T (b - A x) is above rounding, relative to b's largest entry.  An
    entering column whose coefficient comes out not positive (rounding,
    dependent columns) is passed over for that step, else the loop cycles."""
    n = A.shape[1]
    tol = 10 * np.finfo(float).eps * max(A.shape) * np.abs(A).sum(0).max(initial=0)
    tol *= np.abs(b).max(initial=0)

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
    is its one-row case).  A flat-sided domain sets its faces
    ``{x : A x >= b}`` as unit rows ``_normals`` and ``_offsets``, from
    which the slacks, the interior clearance and the active inward normals
    follow; a ball defines its clearance and normals itself.
    ``anchor_clearance`` is validated at construction: it must be positive
    and must not exceed the exact boundary distance of the anchor, so a
    conservative value is allowed and every bound built on it stays valid.
    """

    dim: int
    anchor: np.ndarray
    anchor_clearance: float
    _normals: np.ndarray
    _offsets: np.ndarray

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

    def _slacks(self, X: np.ndarray) -> np.ndarray:
        """Face margins of the rows of X, positive inside, (m, faces)."""
        return _rows_times(X, self._normals) - self._offsets

    def _interior_clearance(self, point: np.ndarray) -> float:
        """Signed distance to the boundary, positive inside: the least slack."""
        return float(np.min(self._slacks(point[None])))

    def project_points(self, X: np.ndarray) -> np.ndarray:
        """Row-wise projection of an (m, d) array."""
        raise NotImplementedError

    def project_point(self, x) -> np.ndarray:
        """Nearest point of one point: the one-row ``project_points``."""
        return self.project_points(_vec(x, self.dim)[None])[0]

    def _distances(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Projections of the rows of X and their distances |x - P(x)|, the
        one place a point's distance to the domain is measured."""
        P = self.project_points(X)
        with np.errstate(over="ignore"):  # far outside: x - P(x) may be inf
            return P, _lengths(X - P)

    def boundary_distance(self, x) -> float:
        """The interior clearance inside, else the distance to the domain."""
        x = _vec(x, self.dim)
        inside = self._interior_clearance(x)
        if inside >= 0.0:
            return float(inside)
        return float(self._distances(x[None])[1][0])

    def contains(self, x, tol: float = BOUNDARY_TOL) -> bool:
        return bool(self._distances(_vec(x, self.dim)[None])[1][0] <= tol)

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        """Unit inward normals of the faces active at boundary point ``b``.

        Returns an (m, d) array, empty if ``b`` is not within ``tol`` of the
        boundary: a face is active where its slack is within ``tol`` of 0,
        and none is where some slack is below ``-tol``.  For smooth pieces
        there is a single row; at box corners and polyhedron edges one row
        per active face.
        """
        slacks = self._slacks(_vec(b, self.dim)[None])[0]
        if np.min(slacks) < -tol:
            return np.empty((0, self.dim))
        return self._normals[np.abs(slacks) <= tol]


class HalfSpace(ConvexDomain):
    """Closed half-space ``{x : <normal, x> >= offset}`` with unit normal."""

    def __init__(self, normal, offset: float, anchor=None, anchor_clearance=None):
        n = _vec(normal)
        if abs(_lengths(n) - 1.0) > UNIT_TOL:
            raise ValueError("half-space normal must have unit length")
        n.setflags(write=False)
        self.normal = n
        self.offset = float(offset)
        self.dim = n.shape[0]
        self._normals, self._offsets = n[None], np.array([self.offset])
        self._init_anchor(anchor, anchor_clearance)

    def _default_anchor(self) -> np.ndarray:
        # a unit step below |offset| = 2**20; past 2**53 that rounds away, as would |n|^2's error
        return (self.offset + max(1.0, abs(self.offset) * 2.0**-20)) * self.normal

    def project_points(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n = self.normal[None, :]
        # an inside row keeps its bits: min(s, z) n is +0 for z = copysign(0, n), ties too
        with np.errstate(over="ignore", invalid="ignore"):
            s = _rows_times(X, n)
            s -= self.offset
            out = np.minimum(s, np.copysign(0.0, self.normal))
            out *= self.normal
            np.subtract(X, out, out=out)
        if not s.min(initial=0.0) > -np.inf:  # a slack overflowed, or is NaN
            far = np.flatnonzero(s == -np.inf)
            Y, t = X[far], _scales(X[far])[:, None]
            out[far] = (t * Y - (_rows_times(t * Y, n) - t * self.offset) * n) / t
        return out


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
        # faces x_i >= lo_i, then -x_i >= -hi_i, per coordinate; + 0.0 clears -0.0
        eye = np.eye(self.dim)
        self._normals = np.stack([eye, -eye], axis=1).reshape(-1, self.dim) + 0.0
        self._offsets = np.stack([lo, -hi], axis=1).ravel()
        self._init_anchor(anchor, anchor_clearance)

    def _default_anchor(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def project_points(self, X: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(X, dtype=float), self.lower, self.upper)


class Ball(ConvexDomain):
    """Closed Euclidean ball of given center and radius."""

    def __init__(self, center, radius: float, anchor=None, anchor_clearance=None):
        c = _vec(center)
        if not np.isfinite(radius):
            raise ValueError(f"ball radius must be finite, got {radius}")
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
        with np.errstate(over="ignore"):  # an offset past the float range: outside
            return self.radius - float(_lengths(point - self.center))

    def project_points(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # W = (x - c) / 2 never overflows; c + W r / |W| is c + V r / |V| bitwise where V is finite
        W = 0.5 * X - 0.5 * self.center
        r = _lengths(W)
        outside = r > 0.5 * self.radius
        # only rows outside are scaled: radius / r at the centre overflows
        scale = self.radius / np.where(outside, r, self.radius)
        return np.where(outside[:, None], self.center + W * scale[:, None], X)

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        with np.errstate(over="ignore"):  # an offset past the float range: off the sphere
            v = self.center - _vec(b, self.dim)
        r = _lengths(v)
        if abs(self.radius - r) > tol or r == 0.0:
            return np.empty((0, self.dim))
        return (v / r)[None, :]


def _independent(AS) -> bool:
    """Whether the k faces AS have a map: rank k, read from the Gram matrix
    AS AS^T that the map inverts when k < d, since two faces at an angle
    below about 1e-8 are independent while their Gram matrix rounds to a
    singular one."""
    k, d = AS.shape
    return np.linalg.matrix_rank(AS if k == d else AS @ AS.T) == k


class Polyhedron(ConvexDomain):
    """Finite intersection of half-spaces ``{x : A x >= b}``.

    The nearest point of y is the KKT point of some active set S of at most d
    independent faces, an affine map of y: y + A_S^T mu for
    mu = (A_S A_S^T)^-1 (b_S - A_S y) if |S| < d, else the vertex A_S^-1 b_S
    with mu = A_S^-T (vertex - y).  The constructor stacks the maps of every
    independent S, and a row outside takes the candidate whose worst slack
    or multiplier is largest: only the KKT point has none negative.  When
    one row's candidate values do not fit in one block of
    ``_ENTRIES_PER_BLOCK`` entries (from 63 faces in d = 2 and 29 in d = 3),
    Lawson & Hanson's least-distance NNLS finds S for each row instead.  A
    row whose candidate ``_certified_candidate`` refuses, or whose NNLS
    stalls, gets NaN and makes the batch raise ``NumericalError`` with the
    result.  The anchor is required (it certifies the interior is nonempty);
    its clearance is checked against min_i(<n_i, anchor> - c_i).
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
        # a near row's s keeps s times every finite offset and map constant below 2**1000
        c = np.abs(np.append(self._offsets, () if self._maps is None else self._maps[1]))
        self._near_cap = np.ldexp(1.0, np.clip(1000 - np.frexp(c[c < np.inf].max())[1], 0, 1023))

    def _active_set_maps(self):
        """(W, w): ``_set_map`` stacked over every independent active set, or
        None if the values of one row would not fit in one block.  A set
        whose faces meet past the float range has no finite candidate and
        is left out.  A slack constant of +inf, at a face far on the other
        side, never scores: that set is kept."""
        A = self._normals
        m, d = A.shape
        k_max = min(m, d)
        count = sum(comb(m, k) for k in range(1, k_max + 1))
        if count * (d + m + k_max) > _ENTRIES_PER_BLOCK:
            return None
        sets = [list(S) for k in range(k_max) for S in combinations(range(m), k + 1)]
        maps = [self._set_map(S) for S in sets if _independent(A[S])]
        maps = [(W, w) for W, w in maps if np.isfinite(w[:d]).all()]
        return tuple(np.array(part) for part in zip(*maps))

    def _set_map(self, S):
        """Affine map y -> W y + w of the independent active set S: the d
        coordinates of its candidate, the m face slacks there and its
        multipliers, padded with zeros to min(m, d).  Faces far apart may
        give constants past the float range, inf or NaN, without a warning."""
        A, b, d = self._normals, self._offsets, self.dim
        AS, bS = A[S], b[S]
        with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore"):  # a far row's slack keeps its sign
            rows = np.flatnonzero(self._slacks(out).min(axis=1) < 0.0)
        # a far or near row y takes a power of two s: P(y) = P_{s b}(s y) / s
        scales = np.minimum(_scales(out[rows]), self._near_cap)
        Y = out[rows] * scales[:, None]
        if self._maps is None:
            P = [self._least_distance(y, s) for y, s in zip(Y, scales[:, None])]
        else:
            P = np.empty_like(Y)
            W, w = self._maps
            step = _rows_per_block(w.size)
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
        the projection, however near to the row it lies.  It is certified if
        each of its slacks and multipliers is at least -PROJECTION_TOL (s (1 +
        |its constant|) + max|y|), so a far face widens only its own entries'
        tolerance; a NaN fails.  Elementwise sums over the d columns, as in
        ``_rows_times``, so a row gets the same bits in any batch.
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
        size = np.abs(Y).max(axis=1)
        # no entry's tolerance is below this floor: a row whose score clears it passes
        low = np.flatnonzero(score[rows, best] < -PROJECTION_TOL * (scales + size))
        b = best[low]
        tol = PROJECTION_TOL * (scales[low, None] * (1.0 + np.abs(w[b, d:])) + size[low, None])
        ok = (V[low, b, d:] >= -tol).all(axis=1) & (score[low, b] > -np.inf)
        P[low[~ok]] = np.nan
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
        E = np.vstack([A.T, h * _scales(h.clip(0.0), 0.0)])
        u = _nnls(E, np.eye(d + 1)[d])
        S = None if u is None else np.flatnonzero(u > 0.0)
        if S is None or not _independent(A[S]):
            return np.full(d, np.nan)
        W, w = self._set_map(S)
        return self._certified_candidate(y[None], scale, W[None], w[None])[0]


def project(domain: ConvexDomain, x) -> ProjectionResult:
    """Nearest point of ``x`` in the domain, with penetration distance."""
    P, dist = domain._distances(_vec(x, domain.dim)[None])
    on_boundary = domain.boundary_distance(P[0]) <= BOUNDARY_TOL
    return ProjectionResult(P[0], float(dist[0]), on_boundary)


def anchor_gap(domain: ConvexDomain, x) -> float:
    """Slack of the anchor inequality for the displacement to the projection.

    For any point x, ``<x - anchor, x - P(x)> / clearance - |x - P(x)|`` is
    nonnegative: a ball of radius ``clearance`` around the anchor sits
    inside the domain, so the displacement to the nearest point makes an
    acute enough angle with the offset from the anchor.  Returned as a
    signed quantity so tests can assert it never dips below -1e-9.
    """
    x = _vec(x, domain.dim)
    P, dist = domain._distances(x[None])
    with np.errstate(over="ignore"):  # far outside the inner product is +inf
        inner = float((x - domain.anchor) @ (x - P[0]))
    return inner / domain.anchor_clearance - float(dist[0])


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
    return float(_lengths(N.T @ lam - v))
