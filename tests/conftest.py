"""Shared fixtures and the acceptance summary hook."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis.internal.conjecture import providers

from reflectsde import domain
from reflectsde.domain import HalfSpace
from reflectsde.path import StepPath
from reflectsde.penalty import _Keep, _relax_and_step

ACCEPTANCE_LINES = []


def record_acceptance(name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append((name, passed, detail))


def constant_path(value, q) -> StepPath:
    """The step path holding ``value`` on [0, q]."""
    return StepPath([0.0], [np.atleast_1d(np.asarray(value, dtype=float))], q)


def entries_per_block(entries):
    """A context in which every blocked loop of the package (driver rows,
    polyhedron candidates, interlaced reach, energy pairs) takes
    ``entries`` as its one budget, ``domain._ENTRIES_PER_BLOCK``."""
    return patch.object(domain, "_ENTRIES_PER_BLOCK", entries)


def kernel_history(domain, f, H, Z, n, times, at=None):
    """(states, projections, failed) of ``_relax_and_step`` on (M, K+1, d)
    values, the states and projections at ``at`` (None for all) kept by
    its ``_Keep`` visitor as (M, len(at), d) views; a failed row keeps
    its raw values."""
    M, K1, d = H.shape
    keep = _Keep(at, K1, M, d)
    failed = _relax_and_step(domain, f, H, Z, n, times, keep)
    return keep.states, keep.projections, failed


class OverflowingHalfSpace(HalfSpace):
    """A half-space whose projection of a row with an entry of magnitude
    1e308 or more is infinite, with the signs of the row.

    Every built-in domain projects a finite row to a finite one, so a test
    that feeds the kernel a finite state whose projection is not finite,
    the case its after-loop check is for, projects onto this domain.
    """

    def project_points(self, X):
        out = super().project_points(X)
        far = np.abs(X).max(axis=1) >= 1e308
        out[far] = np.copysign(np.inf, X[far])
        return out


class NoConstantsProvider(providers.HypothesisProvider):
    """Hypothesis's own provider without its pool of constants.

    With a small chance per choice, hypothesis draws one of the literals of
    the local modules loaded so far (``providers._get_local_constants``),
    so what a derandomized test draws would change with the modules
    collected beside it or with a literal edited anywhere in the package.
    Property tests select this backend (``settings(backend=...)``) so that
    their draws depend on their own strategies alone.
    """

    def _maybe_draw_constant(self, choice_type, constraints, *, p=0.05):
        return None


NO_CONSTANTS = "reflectsde-no-constants"
providers.AVAILABLE_PROVIDERS[NO_CONSTANTS] = NoConstantsProvider


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_LINES:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {name}: {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
