"""Shared fixtures and the acceptance summary hook."""

import numpy as np
import pytest

from reflectsde.penalty import _Keep, _relax_and_step

ACCEPTANCE_LINES = []


def record_acceptance(name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append((name, passed, detail))


def kernel_history(domain, f, H, Z, n, times, at=None):
    """(states, projections, failed) of ``_relax_and_step`` on (M, K+1, d)
    values, the states and projections at ``at`` (None for all) kept by
    its ``_Keep`` visitor as (M, len(at), d) views; a failed row keeps
    its raw values."""
    M, K1, d = H.shape
    keep = _Keep(at, K1, M, d)
    failed = _relax_and_step(domain, f, H, Z, n, times, keep)
    return keep.states, keep.projections, failed


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
