"""Comparison solvers: Newton with unit step on the stacked first-order
system, and the exact Jacobi iteration that re-solves each player's own
stationarity equation against the opponent's current decision."""

from operator import attrgetter

import numpy as np

from .core import InnerSolveFailure, _dot, _norm
# nothing here calls these two names: bench/tracing.py's _LAYER_PATCHES
# reads and replaces them in this module by name, so they stay while its
# rows name them
from .core import classify_point, evaluate_residual  # noqa: F401
from .linalg import SingularMatrixError, assemble_block_system, lu_solve
from .solver import _drive

#: gradient-norm tolerance of the per-player stationarity solves of exact-jacobi
INNER_TOL = 1e-10

#: Newton iterations a per-player stationarity solve may take
INNER_MAX_ITER = 100


def newton_kkt_step(problem, res):
    """Unit Newton step for the stacked first-order system at the iterate
    whose residual is res.

    Uses the true (possibly indefinite) per-player Hessian blocks, read from
    the residual's point; raises SingularMatrixError when the full matrix
    fails the pivot test, and NonFiniteEvaluation when it is not finite.
    """
    point = res.point
    K = assemble_block_system(point.hess11, point.hess22, point.mixed12, point.mixed21, 1.0)
    # K is this call's own, so getrf factors it where it lies
    d = lu_solve(K, -np.concatenate([res.g1, res.g2]), overwrite_a=True)
    return d[: problem.n1], d[problem.n1 :]


def _inner_newton_root(at, grad, hess, z0, point, g):
    """Damped Newton root find for one player's stationarity equation.

    at(z) evaluates the problem with the player's decision at z; point is
    that evaluation at z0 and g the player's gradient there, finite as the
    residual checks it. grad and hess read the player's gradient and own
    Hessian block off a point, so each iterate is evaluated once (an
    accepted trial point, whose gradient is finite, is the next iterate;
    an oracle must be a function of its input). Backtracks on the squared
    gradient norm, rejecting a trial whose gradient is not finite or whose
    oracle raises ArithmeticError. A stalled line search whose Newton step
    is below sqrt(eps) relative to z returns z: the gradient is then at its
    round-off level, which at large |z| exceeds INNER_TOL. Stops at
    gradient norm INNER_TOL, within INNER_MAX_ITER Newton steps. Raises
    InnerSolveFailure when the per-player Hessian block is singular (the
    iteration is undefined) or progress stalls, and NonFiniteEvaluation,
    through lu_solve, when the block is not finite.
    """
    z = np.asarray(z0, dtype=float).copy()
    for _ in range(INNER_MAX_ITER):
        gn = _norm(g)
        if gn <= INNER_TOL:
            return z
        try:
            p = lu_solve(hess(point), -g)
        except SingularMatrixError as err:
            raise InnerSolveFailure(
                "per-player Hessian block is singular; the step is undefined"
            ) from err
        phi = _dot(g, g)
        s = 1.0
        # once z + s p rounds to z bitwise, it does at every smaller s: the
        # trial is z, whose gradient is no strict decrease
        while s >= 1e-12 and (z_trial := z + s * p).tobytes() != z.tobytes():
            try:
                trial = at(z_trial)
                g_trial = grad(trial)
            except ArithmeticError:
                pass
            else:
                if phi < np.inf:
                    decrease = _dot(g_trial, g_trial) <= phi * (1.0 - 1e-4 * s)
                else:  # g.g overflows: compare the norms scaled by ||g|| instead
                    r = _norm(g_trial) / gn
                    decrease = r * r <= 1.0 - 1e-4 * s
                if decrease:
                    break
            s *= 0.5
        else:
            if _norm(p) <= np.sqrt(np.finfo(float).eps) * max(1.0, _norm(z)):
                # the Newton step no longer moves z at float precision
                return z
            raise InnerSolveFailure("inner line search stalled")
        z, point, g = z_trial, trial, g_trial
    if _norm(g) <= INNER_TOL:
        return z
    raise InnerSolveFailure("inner Newton did not converge")


def exact_jacobi_step(problem, x1, x2, res):
    """One simultaneous best-response-style update from (x1, x2), whose
    residual is res.

    x1_new solves grad of f1(., x2) = 0 and x2_new solves grad of
    f2(x1, .) = 0, both from the current coordinates against the opponent's
    *current* decision; the pair is then adopted jointly. Each solve stops
    at gradient norm INNER_TOL. Both start from res and its point.
    """
    point = res.point
    grad1, hess11 = attrgetter("grad1"), attrgetter("hess11")
    grad2, hess22 = attrgetter("grad2"), attrgetter("hess22")
    x1_new = _inner_newton_root(lambda z: problem._at(z, x2), grad1, hess11, x1, point, res.g1)
    x2_new = _inner_newton_root(lambda z: problem._at(x1, z), grad2, hess22, x2, point, res.g2)
    return x1_new, x2_new


def _unit_step(x1, x2, x1_next, x2_next):
    """A unit step to (x1_next, x2_next), in the form `_drive` takes: no
    certificate and no verdicts for the classification."""
    return x1_next, x2_next, 1.0, x1_next - x1, x2_next - x2, None, None


def _kkt_run_step(problem, config, x1, x2, res):
    d1, d2 = newton_kkt_step(problem, res)
    return _unit_step(x1, x2, x1 + d1, x2 + d2)


def _jacobi_run_step(problem, config, x1, x2, res):
    return _unit_step(x1, x2, *exact_jacobi_step(problem, x1, x2, res))


def solve_newton_kkt(problem, x0_1, x0_2, config=None):
    """Iterate unit Newton steps on the stacked system until termination.

    A singular full matrix leaves the method undefined at the iterate; the
    report then has status UNDEFINED_STEP.
    """
    return _drive(problem, x0_1, x0_2, config, _kkt_run_step, "newton-kkt")


def solve_exact_jacobi(problem, x0_1, x0_2, config=None):
    """Iterate simultaneous per-player stationarity solves until termination.

    An undefined or failed per-player solve (e.g. a null per-player Hessian)
    ends the run with status UNDEFINED_STEP.
    """
    return _drive(problem, x0_1, x0_2, config, _jacobi_run_step, "exact-jacobi")
