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
baselines: each solver only supplies step(problem, config, x1, x2, res),
which returns its step or raises; `_drive` alone makes failures statuses.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    InnerSolveFailure,
    NonFiniteEvaluation,
    _as_int,
    _dot,
    _norm,
    classify_point,
    evaluate_residual,
)
from .linalg import (
    ShiftOverflow,
    SingularMatrixError,
    SpdSurrogate,
    _is_symmetric,
    _psd_verdict,
    _same_bits,
    _symmetric_part,
    assemble_block_system,
    lu_solve,
    modified_cholesky,
)


#: backtracking gives up once the step length t falls below T_MIN
T_MIN = 1e-18

#: a player whose gradient norm is at most EPS_STATIONARY counts as stationary
EPS_STATIONARY = 1e-12


class _LineSearchExhausted(Exception):
    """No trial step length both passed the six inequalities and moved x."""


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
    safeguards no caller tunes are constants: T_MIN and EPS_STATIONARY
    here, and linalg.PSD_FLOOR, the one floor of the Hessian surrogates and
    of the final classification.

    user_h1 and user_h2, given together, made positive definite by
    modified_cholesky, are every iteration's Hessian surrogates; without
    them the surrogates are built from the exact Hessian blocks at each
    iterate. A run stops as diverged beyond divergence_radius, or beyond
    the problem's escape_radius if that is smaller; the report's config
    holds the radius in force.
    """

    alpha: float = 1e-6
    theta: float = 0.01
    gamma: float = 1e-6
    tau: float = 0.99
    grad_tol: float = 1e-4
    max_iter: int = 1000
    divergence_radius: float = 1e8
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
        # the loop never meets a NaN or inf cap
        object.__setattr__(self, "max_iter", _as_int(self.max_iter, "max_iter"))
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if (self.user_h1 is None) != (self.user_h2 is None):
            raise ValueError("user_h1 and user_h2 must be given together")
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


def _exact_surrogate(block, verdicts=None):
    # Blocks that pass psd_test get the minimal diagonal shift, so Newton
    # curvature survives untouched (a null Hessian becomes PSD_FLOOR*I).
    # Blocks with genuine negative curvature fall back to the identity: a
    # barely-shifted indefinite block is nearly singular and produces huge
    # directions that the line search then has to shrink away.
    # The PSD test's potrf is the shift search's first attempt, so the block
    # is symmetrized, checked and factored once.
    S = _symmetric_part(block)
    psd, min_eig, factored = _psd_verdict(S)
    if psd:
        surrogate = modified_cholesky(S, factored=factored)
    else:
        surrogate = SpdSurrogate(np.eye(S.shape[0]), 0.0)
    if verdicts is not None:
        # the verdict keeps the block's bits apart from the oracle's buffer,
        # into which an oracle may write its next point's block: in the
        # surrogate's own matrix when that has them (an unshifted surrogate
        # of a bitwise symmetric block without -0.0 entries), else in a copy
        held = surrogate.matrix
        if not _same_bits(held, block):
            held = block.copy()
        verdicts.append((held, (psd, min_eig)))
    return surrogate


def build_surrogates(point, config, verdicts=None):
    """Positive definite per-player Hessian surrogates for one iteration,
    from the config's user_h1/user_h2 when given and otherwise from the
    Hessian blocks of point, the problem's evaluation at the iterate.

    When verdicts is a list, each surrogate built from a Hessian block
    appends (the block's bits, in memory no oracle holds, and its psd_test
    verdict (psd, min_eig)) to it, player 1 first: the form
    `classify_point` reuses as known.
    """
    if config.user_h1 is not None:
        return modified_cholesky(config.user_h1), modified_cholesky(config.user_h2)
    h11 = point.hess11
    h22 = point.hess22
    if not (np.isfinite(h11).all() and np.isfinite(h22).all()):
        raise NonFiniteEvaluation("Hessian oracle returned a non-finite value")
    return _exact_surrogate(h11, verdicts), _exact_surrogate(h22, verdicts)


def compute_direction(H1, H2, mixed1, mixed2, g_norms, rhs, t, config):
    """Solve the safeguarded block system for the tentative step length t.

    mixed1/mixed2 are the iterate's mixed blocks, g_norms the gradient
    norms (||g1||, ||g2||) and rhs the right-hand side -[g1; g2]: what
    depends on the iterate only, computed once for all trials. Returns the
    direction (d1, d2). Raises SingularMatrixError when the assembled
    matrix fails the pivot test; the iteration then halves t and retries.
    """
    M1, M2 = safeguard_mixed_blocks(*g_norms, t, config, mixed1, mixed2)
    system = assemble_block_system(H1, H2, M1, M2, t)
    # the system is this call's own, so getrf factors it where it lies
    d = lu_solve(system, rhs, overwrite_a=True)
    n1 = H1.matrix.shape[0]
    return d[:n1], d[n1:]


def check_inequalities(problem, x1, x2, g_norms, d1, d2, t, config):
    """The six acceptance inequalities for the trial step t along (d1, d2),
    as booleans, players 1 then 2: armijo, angle, ratio.

    Player 1 is judged against f1 parameterized at the predicted opponent
    decision x2 + t*d2, player 2 against f2 at x1 + t*d1: an Armijo
    decrease, an angle condition keeping the direction away from orthogonal
    to the predicted gradient, and a lower bound on the direction size
    relative to that gradient (vacuous for a stationary player). g_norms is
    the pair (||g1||, ||g2||) at the iterate.

    The problem is evaluated at three points, (x1, y2), the trial point
    (y1, y2) and (y1, x2), with y = x + t*d, in this order: each player
    then meets the iterate's decision and the trial's in turn, so a point
    oracle that keeps each player's last two decisions (the facility
    game's) computes only what y1 and y2 change.

    Raises NonFiniteEvaluation if any evaluation is non-finite, and lets an
    oracle's ArithmeticError (math.exp's OverflowError, say) pass; the
    caller treats either as a rejected trial and notes possible divergence.
    """
    y1 = x1 + t * d1
    y2 = x2 + t * d2
    pred1 = problem._at(x1, y2)  # player 1 against the predicted x2
    trial = problem._at(y1, y2)
    pred2 = problem._at(y1, x2)

    p1, p2 = pred1.grad1, pred2.grad2
    values = (trial.value1, pred1.value1, trial.value2, pred2.value2)
    if not (np.isfinite(p1).all() and np.isfinite(p2).all() and all(map(math.isfinite, values))):
        raise NonFiniteEvaluation("non-finite evaluation at a trial point")
    f1_trial, f1_pred, f2_trial, f2_pred = values

    d1n = _norm(d1)
    d2n = _norm(d2)
    p1n = _norm(p1)
    p2n = _norm(p2)
    g1n, g2n = g_norms
    # _dot has the bits of @ and is silent where the product overflows
    slope1 = float(_dot(p1, d1))
    slope2 = float(_dot(p2, d2))

    return (
        f1_trial <= f1_pred + config.alpha * t * slope1,
        slope1 <= -config.theta * p1n * d1n,
        g1n == 0.0 or config.gamma * p1n <= d1n,
        f2_trial <= f2_pred + config.alpha * t * slope2,
        slope2 <= -config.theta * p2n * d2n,
        g2n == 0.0 or config.gamma * p2n <= d2n,
    )


def _descent_step(problem, config, x1, x2, res):
    """One descent Newton iteration from (x1, x2), whose residual is res.

    Builds the Hessian surrogates, the mixed blocks, the gradient norms and
    the right-hand side once, from the point the residual was read from;
    then, with t reset to 1, repeatedly safeguards the mixed blocks, solves
    the block system (halving t when it is singular) and tests the six
    inequalities, halving t on rejection, until a step is accepted or t
    falls below T_MIN or an accepted trial leaves x + t*d == x (every
    smaller t rounds to the same point). Returns the step `_drive` takes,
    with the surrogate build's psd_test verdicts for the final
    classification; otherwise raises the last non-finite trial's
    NonFiniteEvaluation or ArithmeticError, if any, or
    _LineSearchExhausted.
    """
    verdicts = []
    H1, H2 = build_surrogates(res.point, config, verdicts)
    mixed1 = res.point.mixed12
    mixed2 = res.point.mixed21
    if not (np.isfinite(mixed1).all() and np.isfinite(mixed2).all()):
        raise NonFiniteEvaluation("mixed Hessian block is non-finite")
    g_norms = (_norm(res.g1), _norm(res.g2))
    rhs = -np.concatenate([res.g1, res.g2])

    t = 1.0
    backtracks = 0
    singular_halvings = 0
    nonfinite = None
    while t >= T_MIN:
        try:
            d1, d2 = compute_direction(H1, H2, mixed1, mixed2, g_norms, rhs, t, config)
        except SingularMatrixError:
            singular_halvings += 1
        else:
            try:
                checks = check_inequalities(problem, x1, x2, g_norms, d1, d2, t, config)
            except (NonFiniteEvaluation, ArithmeticError) as err:
                nonfinite = err
            else:
                if all(checks):
                    y1, y2 = x1 + t * d1, x2 + t * d2
                    if np.array_equal(y1, x1) and np.array_equal(y2, x2):
                        break
                    cert = LineSearchCertificate(t, checks, backtracks, singular_halvings)
                    return y1, y2, t, d1, d2, cert, tuple(verdicts) or None
            backtracks += 1
        t *= 0.5
    raise nonfinite or _LineSearchExhausted()


def _drive(problem, x0_1, x0_2, config, step, solver):
    """The outer loop of every solver, from (x0_1, x0_2) to a terminal status.

    Per iteration: stop as diverged beyond the divergence radius (the
    smaller of the config's and the problem's escape radius), evaluate
    the problem at the iterate and read the residual from it, stop on
    convergence (classifying the point from the same evaluation) or the
    iteration cap, then call step(problem, config, x1, x2, res) with the
    config in force; res.point serves the step too. A step returns
    (x1_next, x2_next, t, d1, d2, certificate, known), which the loop
    records, or raises. known is None or the psd_test verdicts the step has
    for its iterate's Hessian blocks, in the form `classify_point` takes:
    when the run converges at the next point, its classification reuses
    them for any block that has not changed. Only this loop turns a
    failure into a status: a non-finite
    evaluation, or an oracle's ArithmeticError, is DIVERGED, an exhausted
    line search LINE_SEARCH_FAILURE, a singular system, failed inner solve
    or overflowing Hessian shift UNDEFINED_STEP. Malformed inputs (a start
    point of the wrong shape or not finite, a user Hessian of the wrong
    shape) raise ValueError on entry, the only place the loop validates a
    point.
    """
    config = config or SolverConfig()
    if problem.escape_radius < config.divergence_radius:
        config = replace(config, divergence_radius=problem.escape_radius)
    x1 = np.atleast_1d(np.asarray(x0_1, dtype=float)).copy()
    x2 = np.atleast_1d(np.asarray(x0_2, dtype=float)).copy()
    if x1.shape != (problem.n1,) or x2.shape != (problem.n2,):
        raise ValueError("start point does not match problem dimensions")
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise ValueError("start point has non-finite coordinates")
    for name, n in (("user_h1", problem.n1), ("user_h2", problem.n2)):
        h = getattr(config, name)
        if h is not None and np.shape(h) != (n, n):
            raise ValueError(f"{name} has shape {np.shape(h)}, the problem needs ({n}, {n})")

    trajectory = []
    classification = None
    known = None
    try:
        while True:
            if max(np.abs(x1).max(), np.abs(x2).max()) > config.divergence_radius:
                status = SolveStatus.DIVERGED
                break
            res = evaluate_residual(problem, problem._at(x1, x2))
            if res.norm <= config.grad_tol:
                status = SolveStatus.CONVERGED
                classification = classify_point(res, config.grad_tol, known=known)
                break
            if len(trajectory) >= config.max_iter:
                status = SolveStatus.MAX_ITERATIONS
                break
            x1_next, x2_next, t, d1, d2, certificate, known = step(problem, config, x1, x2, res)
            trajectory.append(
                IterateRecord(
                    k=len(trajectory), x1=x1, x2=x2, g1=res.g1, g2=res.g2,
                    t=t, d1=d1, d2=d2, certificate=certificate,
                )
            )
            x1, x2 = x1_next, x2_next
    except (NonFiniteEvaluation, ArithmeticError):
        status = SolveStatus.DIVERGED
    except _LineSearchExhausted:
        status = SolveStatus.LINE_SEARCH_FAILURE
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
    return _drive(problem, x0_1, x0_2, config, _descent_step, "descent-newton")
