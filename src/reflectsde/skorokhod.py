"""Exact reflection of step drivers into convex domains.

The reflected path stays in the closed domain; the regulator is the
cumulative sum of projection displacements, each pointing along an inward
normal at the post-jump state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    BOUNDARY_TOL,
    ConvexDomain,
    DomainViolationError,
    _lengths,
    cone_residual,
)
from .path import StepPath, _sorted_unique
from .penalty import _check_driver, _solve_row

__all__ = [
    "SkorokhodSolution",
    "solve_skorokhod",
    "oracle_halfline",
    "VerificationReport",
    "verify_solution",
]


@dataclass(frozen=True)
class SkorokhodSolution:
    """Reflected path, regulator, and the driver they decompose."""

    x: StepPath
    k: StepPath
    driver: StepPath


def solve_skorokhod(domain: ConvexDomain, driver: StepPath) -> SkorokhodSolution:
    """Reflect a step driver: each driver jump moves the state, which is
    then projected back; the regulator collects the projection offsets.

    The driver must start inside the closed domain.  A state or projection
    that leaves the float range, or one not certified, raises NumericalError.
    """
    _check_driver(domain, driver)
    moved, xs = _solve_row(domain, None, driver.values, None, np.inf, driver.times)
    ks = np.zeros_like(xs)
    np.cumsum(xs[1:] - moved[1:], axis=0, out=ks[1:])
    return SkorokhodSolution(
        x=StepPath(driver.times, xs, driver.q),
        k=StepPath(driver.times, ks, driver.q),
        driver=driver,
    )


def oracle_halfline(driver: StepPath) -> SkorokhodSolution:
    """Closed-form reflection on [0, inf) in dimension one.

    The regulator is the running maximum of the driver's negative part,
    k_t = max(0, -min_{s<=t} y_s), and x = y + k.
    """
    if driver.dim != 1:
        raise ValueError("half-line formula requires dimension one")
    y = driver.values[:, 0]
    if y[0] < -BOUNDARY_TOL:
        raise DomainViolationError("driver must start inside the domain")
    k = np.maximum(0.0, -np.minimum.accumulate(y))
    x = y + k
    return SkorokhodSolution(
        x=StepPath(driver.times, x, driver.q),
        k=StepPath(driver.times, k, driver.q),
        driver=driver,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Per-property residuals for a claimed reflection solution."""

    decomposition_residual: float
    decomposition_ok: bool
    containment_residual: float
    containment_ok: bool
    support_residual: float
    support_ok: bool
    normal_residual: float
    normal_ok: bool
    jumps_checked: int
    # the threshold of the support and normal checks: max(tol, BOUNDARY_TOL)
    boundary_tol: float

    @property
    def ok(self) -> bool:
        return (
            self.decomposition_ok
            and self.containment_ok
            and self.support_ok
            and self.normal_ok
        )


def verify_solution(
    domain: ConvexDomain,
    solution: SkorokhodSolution,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check the four defining properties of a reflection solution.

    Decomposition x = y + k at every breakpoint; containment of x in the
    closed domain; regulator moves only while x is on the boundary; each
    regulator jump lies in the inward normal cone at the new state, measured
    exactly as its distance to the cone of the active face normals.  With
    containment this implies the variational form: a nonnegative
    combination of inward face normals at x has a nonnegative inner product
    with y - x for every y in the domain.
    """
    x, k, y = solution.x, solution.k, solution.driver
    times = _sorted_unique(np.concatenate((x.times, k.times, y.times)))
    xs = x.eval_many(times)
    ks = k.eval_many(times)
    ys = y.eval_many(times)

    dec = float(np.max(_lengths(xs - ys - ks)))
    contain = float(np.max(domain._distances(xs)[1]))

    support = normal = 0.0
    boundary_tol = max(tol, BOUNDARY_TOL)
    steps = np.diff(ks, axis=0)
    jumps = np.flatnonzero(_lengths(steps) > tol)
    for j in jumps:
        state = xs[j + 1]
        support = max(support, float(domain.boundary_distance(state)))
        # distance of the jump from the cone of the active normals
        normals = domain.inward_normals(state, tol=boundary_tol)
        normal = max(normal, cone_residual(normals, steps[j]))

    return VerificationReport(
        decomposition_residual=dec,
        decomposition_ok=dec <= tol,
        containment_residual=contain,
        containment_ok=contain <= tol,
        support_residual=support,
        support_ok=support <= boundary_tol,
        normal_residual=normal,
        normal_ok=normal <= boundary_tol,
        jumps_checked=len(jumps),
        boundary_tol=boundary_tol,
    )
