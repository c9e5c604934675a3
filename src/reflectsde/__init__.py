"""Reflected paths and SDEs on convex domains via exact penalization.

The library solves the Skorokhod reflection problem for step drivers on
convex domains, solves the penalized approximating equations in closed
form, and simulates reflected SDEs with jumps through a penalized Euler
scheme, together with the diagnostics used to validate all three.
"""

from .domain import (
    Ball,
    Box,
    ConvexDomain,
    DomainViolationError,
    HalfSpace,
    NumericalError,
    Polyhedron,
    ProjectionResult,
    anchor_gap,
    cone_residual,
    project,
)
from .path import (
    StepPath,
    modulus_bar,
    modulus_prime,
    modulus_second,
    upcrossings,
)
from .penalty import (
    PenaltyBounds,
    PenalizedPath,
    penalty_bounds,
    solve_penalized,
)
from .skorokhod import (
    SkorokhodSolution,
    VerificationReport,
    oracle_halfline,
    solve_skorokhod,
    verify_solution,
)
from .sde import (
    Brownian,
    BrownianDrift,
    CompoundPoisson,
    ConstantMatrix,
    ConstantStart,
    DiagAffine,
    Drift,
    DriverSpec,
    Grid,
    Identity,
    JumpSizes,
    PowerDiagonal,
    TablePath,
    euler_penalized,
    euler_penalized_batch,
    euler_projected,
    euler_projected_batch,
    sample_driver,
    sample_driver_batch,
    stochastic_integral,
)
from .stats import (
    ExperimentReport,
    MarginalCell,
    energy_distance,
    ks_statistic,
    marginal_convergence,
    oscillation_diagnostic,
    reference_cdf,
    s_tightness_witness,
)

__version__ = "0.1.0"
