"""Comparison solvers: Newton with unit step on the stacked first-order
system, and the exact Jacobi iteration that re-solves each player's own
stationarity equation against the opponent's current decision."""

import numpy as np

from .core import InnerSolveFailure, NonFiniteEvaluation, evaluate_residual
from .core import classify_point  # noqa: F401  (looked up here by the benchmark's tracer)
from .linalg import SingularMatrixError, assemble_block_system, lu_solve
from .solver import _drive

#: gradient-norm tolerance of the per-player stationarity solves of exact-jacobi
INNER_TOL = 1e-10


def newton_kkt_step(problem, x1, x2, res=None):
    """Unit Newton step for the stacked first-order system.

    Uses the true (possibly indefinite) per-player Hessian blocks; raises
    SingularMatrixError when the full matrix fails the pivot test. The
    residual at (x1, x2) may be passed in to avoid evaluating it again.
    """
    if res is None:
        res = evaluate_residual(problem, x1, x2)
    K = assemble_block_system(
        problem.hessian11(x1, x2),
        problem.hessian22(x1, x2),
        problem.mixed12_f1(x1, x2),
        problem.mixed21_f2(x1, x2),
        1.0,
    )
    if not np.all(np.isfinite(K)):
        raise NonFiniteEvaluation("Hessian oracle returned a non-finite value")
    d = lu_solve(K, -np.concatenate([res.g1, res.g2]))
    return d[: problem.n1], d[problem.n1 :]


def _inner_newton_root(grad, hess, z0, tol, max_iter=100):
    """Damped Newton root find for one player's stationarity equation.

    Backtracks on the squared gradient norm. A stalled line search whose
    Newton step is below sqrt(eps) relative to z returns z: the gradient is
    then at its round-off level, which at large |z| exceeds tol. Raises
    InnerSolveFailure when the per-player Hessian block is singular (the
    iteration is undefined) or progress stalls.
    """
    z = np.asarray(z0, dtype=float).copy()
    for _ in range(max_iter):
        g = grad(z)
        if not np.all(np.isfinite(g)):
            raise NonFiniteEvaluation("non-finite gradient in inner solve")
        if np.linalg.norm(g) <= tol:
            return z
        try:
            p = lu_solve(hess(z), -g)
        except SingularMatrixError as err:
            raise InnerSolveFailure(
                "per-player Hessian block is singular; the step is undefined"
            ) from err
        phi = float(g @ g)
        s = 1.0
        while s >= 1e-12:
            g_trial = grad(z + s * p)
            if np.all(np.isfinite(g_trial)) and float(g_trial @ g_trial) <= phi * (1.0 - 1e-4 * s):
                break
            s *= 0.5
        else:
            if np.linalg.norm(p) <= np.sqrt(np.finfo(float).eps) * max(1.0, np.linalg.norm(z)):
                # the Newton step no longer moves z at float precision
                return z
            raise InnerSolveFailure("inner line search stalled")
        z = z + s * p
    g = grad(z)
    if np.linalg.norm(g) <= tol:
        return z
    raise InnerSolveFailure("inner Newton did not converge")


def exact_jacobi_step(problem, x1, x2):
    """One simultaneous best-response-style update.

    x1_new solves grad of f1(., x2) = 0 and x2_new solves grad of
    f2(x1, .) = 0, both from the current coordinates against the opponent's
    *current* decision; the pair is then adopted jointly. Each solve stops
    at gradient norm INNER_TOL.
    """
    x1_new = _inner_newton_root(
        lambda z: problem.gradient1(z, x2),
        lambda z: problem.hessian11(z, x2),
        x1,
        INNER_TOL,
    )
    x2_new = _inner_newton_root(
        lambda z: problem.gradient2(x1, z),
        lambda z: problem.hessian22(x1, z),
        x2,
        INNER_TOL,
    )
    return x1_new, x2_new


def _unit_step(x1, x2, x1_next, x2_next):
    """A unit step to (x1_next, x2_next), in the form `_drive` takes."""
    return x1_next, x2_next, 1.0, x1_next - x1, x2_next - x2, None


def solve_newton_kkt(problem, x0_1, x0_2, config=None):
    """Iterate unit Newton steps on the stacked system until termination.

    A singular full matrix leaves the method undefined at the iterate; the
    report then has status UNDEFINED_STEP.
    """

    def step(x1, x2, res):
        d1, d2 = newton_kkt_step(problem, x1, x2, res)
        return _unit_step(x1, x2, x1 + d1, x2 + d2)

    return _drive(problem, x0_1, x0_2, config, step, "newton-kkt")


def solve_exact_jacobi(problem, x0_1, x0_2, config=None):
    """Iterate simultaneous per-player stationarity solves until termination.

    An undefined or failed per-player solve (e.g. a null per-player Hessian)
    ends the run with status UNDEFINED_STEP.
    """

    def step(x1, x2, res):
        return _unit_step(x1, x2, *exact_jacobi_step(problem, x1, x2))

    return _drive(problem, x0_1, x0_2, config, step, "exact-jacobi")
