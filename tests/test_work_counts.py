"""Counts of the work a solve does, pinned.

Wall times are noisy, counts are not: a change that doubles the Cholesky
factorizations of a solve, or evaluates a point twice, shows here even when
no timing moves beyond noise. A change that moves a count on purpose
updates the pin below and says why.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import nepsolve.linalg as linalg_mod
import nepsolve.suite as suite_mod
from nepsolve import SolveStatus, SolverConfig, get_problem, solve, solve_newton_kkt

SOLVERS = {"descent-newton": solve, "newton-kkt": solve_newton_kkt}

#: the facility study's tolerance and escape radius, as in `nepsolve facility-bench`
STUDY_CONFIG = SolverConfig(grad_tol=1e-6, divergence_radius=100.0)

#: the first starts of the seed-0 facility study
STUDY_STARTS = 20

#: per-solve counts over the study's first starts: LAPACK's potrf and
#: getrf, np.linalg.eigvalsh, point oracle evaluations and halves built
FACILITY_COUNTS = {
    "descent-newton": {"potrf": 17.45, "getrf": 11.4, "eigvalsh": 4.15, "points": 42.95, "halves": 24.8},
    "newton-kkt": {"getrf": 8.95, "points": 8.95, "halves": 17.9},
}

#: counts of one solve of quadratic:7:150x150 from the origin: one Newton
#: iteration; descent-newton factors each surrogate once (the PSD test's
#: potrf also builds it) and both solvers test the two blocks at the end,
#: for the classification
DENSE_COUNTS = {
    "descent-newton": {"potrf": 4, "getrf": 1},
    "newton-kkt": {"potrf": 2, "getrf": 1},
}


@pytest.fixture
def counts(monkeypatch):
    """Calls of the counted kernels, by name, while the test runs."""
    calls = Counter()

    def count(obj, name, key):
        fn = getattr(obj, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(obj, name, counted)

    count(linalg_mod.lapack, "dpotrf", "potrf")
    count(linalg_mod.lapack, "dgetrf", "getrf")
    count(np.linalg, "eigvalsh", "eigvalsh")
    count(suite_mod, "_Half", "halves")
    return calls


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_facility_study_counts_per_solve(counts, solver):
    problem = get_problem("facility2d")
    oracle = problem.point

    def point(x1, x2):
        counts["points"] += 1
        return oracle(x1, x2)

    problem = dataclasses.replace(problem, point=point)
    starts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(STUDY_STARTS, 4))
    for row in starts:
        SOLVERS[solver](problem, row[:2], row[2:], STUDY_CONFIG)
    per_solve = {key: n / STUDY_STARTS for key, n in counts.items()}
    assert per_solve == FACILITY_COUNTS[solver]


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_dense_quadratic_counts(counts, solver):
    problem = get_problem("quadratic:7:150x150")
    counts.clear()  # the generator's own Cholesky certificate
    report = SOLVERS[solver](problem, np.zeros(150), np.zeros(150))
    assert report.status is SolveStatus.CONVERGED and report.iterations == 1
    assert dict(counts) == DENSE_COUNTS[solver]
