"""Jacobi-type descent Newton iteration with prediction-based line search.

Each iteration solves the block system

    [ H1   t*M1 ] [d1]     [g1]
    [ t*M2  H2  ] [d2] = - [g2]

where H_i is a positive definite surrogate of player i's own Hessian block
and M_i is that player's mixed block, zeroed out as a safeguard once the
player is stationary and the step is small. A single step length t is then
backtracked simultaneously for both players: every trial t changes the
system, so the direction is re-solved before the six acceptance
inequalities are checked. The inequalities compare each player's progress
against the objective parameterized by the *predicted* decision of the
opponent (x_other + t*d_other), not the current one.

The outer loop (divergence radius, residual, convergence test, iteration
cap, trajectory and report) is `_drive`, the run loop shared with the two
baselines: each solver only supplies its step function, and every failure
inside the loop becomes a SolveStatus on the report.
"""

from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Optional

import numpy as np

from .core import InnerSolveFailure, NonFiniteEvaluation, classify_point, evaluate_residual
from .linalg import (
    CHOL_PIVOT_SAFETY,
    ShiftOverflow,
    SingularMatrixError,
    SpdSurrogate,
    _chol_succeeds,
    _is_symmetric,
    _symmetric_part,
    assemble_block_system,
    lu_solve,
    modified_cholesky,
)


#: backtracking gives up once the step length t falls below T_MIN
T_MIN = 1e-18

#: a player whose gradient norm is at most EPS_STATIONARY counts as stationary
EPS_STATIONARY = 1e-12

#: positive definite floor of the Hessian surrogates (see modified_cholesky)
CHOL_FLOOR = 1e-8

#: a block of order n that passes the Cholesky test skips eigvalsh while
#: CHOL_ROUNDING * n * trace stays within CHOL_FLOOR (see _exact_surrogate)
CHOL_ROUNDING = 16 * np.finfo(float).eps


class HessianStrategy(Enum):
    MODIFIED_EXACT = "modified-exact"
    USER_SUPPLIED = "user-supplied"


class SolveStatus(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "max-iterations"
    LINE_SEARCH_FAILURE = "line-search-failure"
    UNDEFINED_STEP = "undefined"


@dataclass(frozen=True)
class SolverConfig:
    """Scalar parameters of the iteration.

    alpha is the Armijo constant, theta the angle constant, gamma the
    gradient/direction ratio constant, and tau the safeguard threshold: a
    stationary player's mixed block is zeroed only once t <= tau. The
    safeguards no caller tunes are constants: T_MIN, EPS_STATIONARY and
    CHOL_FLOOR here, core.EPS_PSD for the final classification.
    """

    alpha: float = 1e-6
    theta: float = 0.01
    gamma: float = 1e-6
    tau: float = 0.99
    grad_tol: float = 1e-4
    max_iter: int = 1000
    divergence_radius: float = 1e8
    hessian_strategy: HessianStrategy = HessianStrategy.MODIFIED_EXACT
    user_h1: Optional[np.ndarray] = None
    user_h2: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        # the comparisons are negated so that NaN fails them too
        for name in ("theta", "gamma", "grad_tol", "divergence_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.hessian_strategy is HessianStrategy.USER_SUPPLIED and (
            self.user_h1 is None or self.user_h2 is None
        ):
            raise ValueError("user-supplied strategy needs user_h1 and user_h2")
        for name in ("user_h1", "user_h2"):
            h = getattr(self, name)
            if h is None:
                continue
            h = np.asarray(h, dtype=float)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise ValueError(f"{name} must be a square 2-D array, got shape {h.shape}")
            if not np.all(np.isfinite(h)):
                raise ValueError(f"{name} has non-finite entries")
            if not _is_symmetric(h):
                raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True)
class Direction:
    d1: np.ndarray
    d2: np.ndarray


@dataclass(frozen=True)
class LineSearchCertificate:
    """Outcome of the six acceptance inequalities at the accepted step."""

    t: float
    checks: tuple  # six booleans, players 1 then 2: armijo, angle, ratio
    backtracks: int
    singular_halvings: int

    @property
    def accepted(self):
        return all(self.checks)


@dataclass(frozen=True)
class IterateRecord:
    k: int
    x1: np.ndarray
    x2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    t: float
    d1: np.ndarray
    d2: np.ndarray
    certificate: Optional[LineSearchCertificate]


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    final_x1: np.ndarray
    final_x2: np.ndarray
    final_residual: float
    iterations: int
    trajectory: tuple
    classification: object = None
    problem: object = None
    config: object = None
    solver: str = "descent-newton"


def safeguard_mixed_blocks(g1_norm, g2_norm, t, config, mixed1, mixed2):
    """Zero a player's mixed block once that player is stationary and t <= tau."""
    if t <= 0:
        raise ValueError("t must be positive")
    M1 = mixed1 if (g1_norm > EPS_STATIONARY or t > config.tau) else np.zeros_like(mixed1)
    M2 = mixed2 if (g2_norm > EPS_STATIONARY or t > config.tau) else np.zeros_like(mixed2)
    return M1, M2


def _exact_surrogate(block):
    # Nearly positive semidefinite blocks get the minimal diagonal shift, so
    # Newton curvature survives untouched (a null Hessian becomes CHOL_FLOOR*I).
    # Blocks with genuine negative curvature fall back to the identity: a
    # barely-shifted indefinite block is nearly singular and produces huge
    # directions that the line search then has to shrink away. One Cholesky
    # settles a positive definite block, which modified_cholesky returns
    # unshifted; eigvalsh runs only for a block that fails it or whose size
    # could let rounding reach CHOL_FLOOR. A successful potrf factors the
    # block up to a backward error of order n * eps * trace, and eigvalsh,
    # backward stable, errs by order n * eps * ||block|| <= n * eps * trace,
    # so below that bound eigvalsh would not have found an eigenvalue under
    # -CHOL_FLOOR either, and the decision is the eigvalsh rule's.
    block = _symmetric_part(block)
    n = block.shape[0]
    settled = (
        _chol_succeeds(block, CHOL_FLOOR * CHOL_PIVOT_SAFETY)
        and CHOL_ROUNDING * n * block.trace() <= CHOL_FLOOR
    )
    if not settled and np.linalg.eigvalsh(block)[0] < -CHOL_FLOOR:
        return SpdSurrogate(np.eye(n), 0.0)
    return modified_cholesky(block, CHOL_FLOOR)


def build_surrogates(problem, x1, x2, config, point=None):
    """Positive definite per-player Hessian surrogates for one iteration.

    point is the problem's evaluation at (x1, x2), when the caller has it.
    """
    if config.hessian_strategy is HessianStrategy.USER_SUPPLIED:
        return (
            modified_cholesky(config.user_h1, CHOL_FLOOR),
            modified_cholesky(config.user_h2, CHOL_FLOOR),
        )
    if point is None:
        point = problem.at(x1, x2)
    h11 = point.hess11
    h22 = point.hess22
    if not (np.all(np.isfinite(h11)) and np.all(np.isfinite(h22))):
        raise NonFiniteEvaluation("Hessian oracle returned a non-finite value")
    return _exact_surrogate(h11), _exact_surrogate(h22)


def _gradient_norms(g1, g2):
    return float(np.linalg.norm(g1)), float(np.linalg.norm(g2))


def compute_direction(
    problem, x1, x2, g1, g2, H1, H2, t, config,
    mixed1=None, mixed2=None, g_norms=None, rhs=None,
):
    """Solve the safeguarded block system for the tentative step length t.

    Raises SingularMatrixError when the assembled matrix fails the pivot
    test; the iteration then halves t and retries. What depends on the
    iterate only, not on t, may be passed in to avoid recomputing it on
    retries: the mixed blocks, the gradient norms (||g1||, ||g2||) and the
    right-hand side -[g1; g2].
    """
    if mixed1 is None:
        mixed1 = problem.mixed12_f1(x1, x2)
    if mixed2 is None:
        mixed2 = problem.mixed21_f2(x1, x2)
    g1n, g2n = g_norms or _gradient_norms(g1, g2)
    M1, M2 = safeguard_mixed_blocks(g1n, g2n, t, config, mixed1, mixed2)
    system = assemble_block_system(H1, H2, M1, M2, t)
    if rhs is None:
        rhs = -np.concatenate([g1, g2])
    d = lu_solve(system, rhs)
    return Direction(d1=d[: problem.n1], d2=d[problem.n1 :])


def check_inequalities(problem, x1, x2, g1, g2, direction, t, config, g_norms=None):
    """Evaluate the six acceptance inequalities for a trial step.

    Player 1 is judged against f1 parameterized at the predicted opponent
    decision x2 + t*d2, player 2 against f2 at x1 + t*d1: an Armijo
    decrease, an angle condition keeping the direction away from orthogonal
    to the predicted gradient, and a lower bound on the direction size
    relative to that gradient (vacuous for a stationary player).

    The problem is evaluated at three points, (x1, y2), (y1, x2) and the
    trial point (y1, y2), with y = x + t*d. g_norms, the pair (||g1||,
    ||g2||), may be passed in when the caller has it.

    Raises NonFiniteEvaluation if any evaluation is non-finite; the caller
    treats that as a rejected trial and notes possible divergence.
    """
    d1, d2 = direction.d1, direction.d2
    y1 = x1 + t * d1
    y2 = x2 + t * d2
    pred1 = problem._at(x1, y2)  # player 1 against the predicted x2
    pred2 = problem._at(y1, x2)
    trial = problem._at(y1, y2)

    p1 = pred1.grad1
    p2 = pred2.grad2
    f1_trial = trial.value1
    f1_pred = pred1.value1
    f2_trial = trial.value2
    f2_pred = pred2.value2
    values = np.concatenate([p1, p2, [f1_trial, f1_pred, f2_trial, f2_pred]])
    if not np.all(np.isfinite(values)):
        raise NonFiniteEvaluation("non-finite evaluation at a trial point")

    d1n = float(np.linalg.norm(d1))
    d2n = float(np.linalg.norm(d2))
    p1n = float(np.linalg.norm(p1))
    p2n = float(np.linalg.norm(p2))
    g1n, g2n = g_norms or _gradient_norms(g1, g2)
    slope1 = float(p1 @ d1)
    slope2 = float(p2 @ d2)

    checks = (
        f1_trial <= f1_pred + config.alpha * t * slope1,
        slope1 <= -config.theta * p1n * d1n,
        config.gamma * p1n * g1n <= d1n * g1n,
        f2_trial <= f2_pred + config.alpha * t * slope2,
        slope2 <= -config.theta * p2n * d2n,
        config.gamma * p2n * g2n <= d2n * g2n,
    )
    return LineSearchCertificate(t=t, checks=checks, backtracks=0, singular_halvings=0)


def _descent_step(problem, config, x1, x2, res):
    """One descent Newton iteration from (x1, x2), whose residual is res.

    Builds the Hessian surrogates, the mixed blocks, the gradient norms and
    the right-hand side once, from the point the residual was read from;
    then, with t reset to 1, repeatedly safeguards the mixed blocks, solves
    the block system (halving t when it is singular) and tests the six
    inequalities, halving t on rejection, until a step is accepted or t
    falls below T_MIN.
    Returns the accepted step in the form `_drive` takes, or DIVERGED /
    LINE_SEARCH_FAILURE when no trial was accepted.
    """
    H1, H2 = build_surrogates(problem, x1, x2, config, res.point)
    mixed1 = res.point.mixed12
    mixed2 = res.point.mixed21
    if not (np.all(np.isfinite(mixed1)) and np.all(np.isfinite(mixed2))):
        raise NonFiniteEvaluation("mixed Hessian block is non-finite")
    g_norms = _gradient_norms(res.g1, res.g2)
    rhs = -np.concatenate([res.g1, res.g2])

    t = 1.0
    backtracks = 0
    singular_halvings = 0
    nonfinite_seen = False
    while True:
        try:
            direction = compute_direction(
                problem, x1, x2, res.g1, res.g2, H1, H2, t, config,
                mixed1=mixed1, mixed2=mixed2, g_norms=g_norms, rhs=rhs,
            )
        except SingularMatrixError:
            singular_halvings += 1
        else:
            try:
                cert = check_inequalities(
                    problem, x1, x2, res.g1, res.g2, direction, t, config, g_norms=g_norms
                )
                if cert.accepted:
                    cert = replace(cert, backtracks=backtracks, singular_halvings=singular_halvings)
                    d1, d2 = direction.d1, direction.d2
                    return x1 + t * d1, x2 + t * d2, t, d1, d2, cert
            except NonFiniteEvaluation:
                nonfinite_seen = True
            backtracks += 1
        t *= 0.5
        if t < T_MIN:
            return SolveStatus.DIVERGED if nonfinite_seen else SolveStatus.LINE_SEARCH_FAILURE


def _drive(problem, x0_1, x0_2, config, step, solver):
    """The outer loop of every solver, from (x0_1, x0_2) to a terminal status.

    Per iteration: stop as diverged beyond the divergence radius, evaluate
    the problem at the iterate and read the residual from it, stop on
    convergence (classifying the point from the same evaluation) or the
    iteration cap, then call step(x1, x2, res); res.point serves the step
    too. A step returns either the terminal status it ran into or
    (x1_next, x2_next, t, d1, d2, certificate); the loop then records the
    iterate and moves to the next point.

    Malformed inputs raise ValueError on entry, the only place the loop
    validates a point; every failure inside the loop is a status: a
    non-finite evaluation is DIVERGED, a singular system, failed inner
    solve or overflowing Hessian shift UNDEFINED_STEP.
    """
    config = config or SolverConfig()
    x1 = np.atleast_1d(np.asarray(x0_1, dtype=float)).copy()
    x2 = np.atleast_1d(np.asarray(x0_2, dtype=float)).copy()
    if x1.shape != (problem.n1,) or x2.shape != (problem.n2,):
        raise ValueError("start point does not match problem dimensions")
    for name, n in (("user_h1", problem.n1), ("user_h2", problem.n2)):
        h = getattr(config, name)
        if h is not None and np.shape(h) != (n, n):
            raise ValueError(f"{name} has shape {np.shape(h)}, the problem needs ({n}, {n})")

    trajectory = []
    classification = None
    try:
        while True:
            if max(np.max(np.abs(x1)), np.max(np.abs(x2))) > config.divergence_radius:
                status = SolveStatus.DIVERGED
                break
            res = evaluate_residual(problem, x1, x2, problem._at(x1, x2))
            if res.norm <= config.grad_tol:
                status = SolveStatus.CONVERGED
                classification = classify_point(problem, x1, x2, config.grad_tol, res=res)
                break
            if len(trajectory) >= config.max_iter:
                status = SolveStatus.MAX_ITERATIONS
                break
            outcome = step(x1, x2, res)
            if isinstance(outcome, SolveStatus):
                status = outcome
                break
            x1_next, x2_next, t, d1, d2, certificate = outcome
            trajectory.append(
                IterateRecord(
                    k=len(trajectory), x1=x1, x2=x2, g1=res.g1, g2=res.g2,
                    t=t, d1=d1, d2=d2, certificate=certificate,
                )
            )
            x1, x2 = x1_next, x2_next
    except NonFiniteEvaluation:
        status = SolveStatus.DIVERGED
    except (SingularMatrixError, InnerSolveFailure, ShiftOverflow):
        status = SolveStatus.UNDEFINED_STEP

    return SolveReport(
        status=status,
        final_x1=x1,
        final_x2=x2,
        final_residual=float("inf") if status is SolveStatus.DIVERGED else res.norm,
        iterations=len(trajectory),
        trajectory=tuple(trajectory),
        classification=classification,
        problem=problem,
        config=config,
        solver=solver,
    )


def solve(problem, x0_1, x0_2, config=None):
    """Run the descent Newton iteration from (x0_1, x0_2) to a terminal status.

    Each iteration is one _descent_step inside the shared run loop. All
    failure modes are statuses on the report, never exceptions; only a
    malformed start point or user Hessian raises ValueError.
    """
    config = config or SolverConfig()
    step = partial(_descent_step, problem, config)
    return _drive(problem, x0_1, x0_2, config, step, "descent-newton")
