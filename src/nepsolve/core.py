"""Two-player Nash equilibrium problems and their derivative oracles.

A problem is a pair of smooth objectives f1(x1, x2), f2(x1, x2), each player
minimizing over their own block. Analytic derivative oracles are optional;
central finite differences fill any gap and double as the cross-check used
by the derivative validation diagnostics.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np


class NonFiniteEvaluation(RuntimeError):
    """An oracle produced NaN/Inf, or the objective is undefined at the point."""


class InnerSolveFailure(RuntimeError):
    """A per-player stationarity solve is undefined or did not converge."""


def _as_vector(x, n, label):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (n,):
        raise ValueError(f"{label} has shape {v.shape}, expected ({n},)")
    return v


def _require_finite(value, context):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEvaluation(f"non-finite value from {context}")
    return arr


def finite_diff_gradient(f, x, h=None):
    """Central-difference gradient of a scalar function at x.

    The step defaults to 1e-6 * max(1, ||x||_inf) so it stays meaningful on
    large (divergent) iterates.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if h is None:
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    grad = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = _require_finite(f(xp), "objective oracle")
        fm = _require_finite(f(xm), "objective oracle")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def finite_diff_jacobian(g, x, h=None, out_dim=None):
    """Central-difference Jacobian of a vector function at x (out_dim x len(x)).

    Column i is (g(x + h e_i) - g(x - h e_i)) / 2h; g is never evaluated at x
    itself. The step defaults as in finite_diff_gradient.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if h is None:
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    jac = None if out_dim is None else np.empty((out_dim, x.size))
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        gp = _require_finite(g(xp), "gradient oracle")
        gm = _require_finite(g(xm), "gradient oracle")
        if jac is None:
            jac = np.empty((gp.size, x.size))
        jac[:, i] = (gp - gm) / (2.0 * h)
    if jac is None:
        # empty x: only the output size is needed
        jac = np.empty((_require_finite(g(x), "gradient oracle").size, 0))
    return jac


def finite_diff_hessian_block(g, x_block, h=None, symmetrize=False):
    """One block of a Hessian as the central-difference Jacobian of a gradient.

    With symmetrize=True the result is replaced by (M + M^T)/2, appropriate
    for the per-player diagonal blocks.
    """
    jac = finite_diff_jacobian(g, x_block, h=h)
    if symmetrize:
        if jac.shape[0] != jac.shape[1]:
            raise ValueError("only square blocks can be symmetrized")
        jac = 0.5 * (jac + jac.T)
    return jac


@dataclass(frozen=True)
class NepProblem:
    """Dimensions plus evaluation oracles for a two-player NEP.

    f1, f2 map (x1, x2) to a scalar. Optional oracles: grad1/grad2 for the
    partial gradients of each player's own objective with respect to their
    own block; hess11/hess22 for the per-player second-derivative blocks;
    hess12_f1 for the n1 x n2 block of f1 mixing both variables; hess21_f2
    for the n2 x n1 mixed block of f2 (the one multiplying d1 in the second
    row of the full Newton system). Missing oracles fall back to central
    finite differences: of f1/f2 for a gradient, of the gradient oracle for
    a Hessian block.
    """

    n1: int
    n2: int
    f1: Callable
    f2: Callable
    grad1: Optional[Callable] = None
    grad2: Optional[Callable] = None
    hess11: Optional[Callable] = None
    hess22: Optional[Callable] = None
    hess12_f1: Optional[Callable] = None
    hess21_f2: Optional[Callable] = None
    name: str = field(default="")

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("player dimensions must be >= 1")

    # -- objective evaluation -------------------------------------------------

    def value1(self, x1, x2):
        x1 = _as_vector(x1, self.n1, "x1")
        x2 = _as_vector(x2, self.n2, "x2")
        return float(self.f1(x1, x2))

    def value2(self, x1, x2):
        x1 = _as_vector(x1, self.n1, "x1")
        x2 = _as_vector(x2, self.n2, "x2")
        return float(self.f2(x1, x2))

    # -- first derivatives ----------------------------------------------------

    def gradient1(self, x1, x2):
        x1 = _as_vector(x1, self.n1, "x1")
        x2 = _as_vector(x2, self.n2, "x2")
        if self.grad1 is not None:
            return np.atleast_1d(np.asarray(self.grad1(x1, x2), dtype=float))
        return finite_diff_gradient(lambda z: self.f1(z, x2), x1)

    def gradient2(self, x1, x2):
        x1 = _as_vector(x1, self.n1, "x1")
        x2 = _as_vector(x2, self.n2, "x2")
        if self.grad2 is not None:
            return np.atleast_1d(np.asarray(self.grad2(x1, x2), dtype=float))
        return finite_diff_gradient(lambda z: self.f2(x1, z), x2)

    # -- second derivative blocks ----------------------------------------------

    def hessian11(self, x1, x2):
        x1 = _as_vector(x1, self.n1, "x1")
        x2 = _as_vector(x2, self.n2, "x2")
        if self.hess11 is not None:
            return np.atleast_2d(np.asarray(self.hess11(x1, x2), dtype=float))
        return finite_diff_hessian_block(
            lambda z: self.gradient1(z, x2), x1, symmetrize=True
        )

    def hessian22(self, x1, x2):
        x1 = _as_vector(x1, self.n1, "x1")
        x2 = _as_vector(x2, self.n2, "x2")
        if self.hess22 is not None:
            return np.atleast_2d(np.asarray(self.hess22(x1, x2), dtype=float))
        return finite_diff_hessian_block(
            lambda z: self.gradient2(x1, z), x2, symmetrize=True
        )

    def mixed12_f1(self, x1, x2):
        """n1 x n2 mixed block of f1 (derivative of grad1 w.r.t. x2)."""
        x1 = _as_vector(x1, self.n1, "x1")
        x2 = _as_vector(x2, self.n2, "x2")
        if self.hess12_f1 is not None:
            return np.atleast_2d(np.asarray(self.hess12_f1(x1, x2), dtype=float))
        return finite_diff_jacobian(
            lambda z: self.gradient1(x1, z), x2, out_dim=self.n1
        )

    def mixed21_f2(self, x1, x2):
        """n2 x n1 mixed block of f2 (derivative of grad2 w.r.t. x1)."""
        x1 = _as_vector(x1, self.n1, "x1")
        x2 = _as_vector(x2, self.n2, "x2")
        if self.hess21_f2 is not None:
            return np.atleast_2d(np.asarray(self.hess21_f2(x1, x2), dtype=float))
        return finite_diff_jacobian(
            lambda z: self.gradient2(z, x2), x1, out_dim=self.n2
        )


@dataclass(frozen=True)
class Residual:
    """Stacked first-order residual (g1, g2) and its Euclidean norm."""

    g1: np.ndarray
    g2: np.ndarray
    norm: float


def evaluate_residual(problem, x1, x2):
    """First-order optimality residual at (x1, x2).

    Raises NonFiniteEvaluation when either gradient oracle returns NaN/Inf,
    which callers interpret as divergence.
    """
    g1 = problem.gradient1(x1, x2)
    g2 = problem.gradient2(x1, x2)
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise NonFiniteEvaluation(
            f"gradient oracle returned a non-finite value for {problem.name!r}"
        )
    norm = float(np.linalg.norm(np.concatenate([g1, g2])))
    return Residual(g1=g1, g2=g2, norm=norm)


class PointKind(Enum):
    EQUILIBRIUM_CANDIDATE = "equilibrium-candidate"
    NON_EQUILIBRIUM_STATIONARY = "non-equilibrium-stationary"
    NON_STATIONARY = "non-stationary"


@dataclass(frozen=True)
class PointClass:
    """Classification of a point plus the per-player Hessian spectra edges."""

    kind: PointKind
    min_eig_1: float
    min_eig_2: float


def classify_point(problem, x1, x2, tol, eps_psd=1e-8, res=None):
    """Classify (x1, x2) as equilibrium candidate / stationary / neither.

    A point is an equilibrium candidate when the residual norm is within tol
    and both per-player Hessian blocks are positive semidefinite up to
    eps_psd (second-order necessary conditions). The residual at (x1, x2)
    may be passed in to avoid evaluating it again.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if res is None:
        res = evaluate_residual(problem, x1, x2)
    h11 = problem.hessian11(x1, x2)
    h22 = problem.hessian22(x1, x2)
    if not (np.all(np.isfinite(h11)) and np.all(np.isfinite(h22))):
        raise NonFiniteEvaluation("Hessian oracle returned a non-finite value")
    min1 = float(np.min(np.linalg.eigvalsh(0.5 * (h11 + h11.T))))
    min2 = float(np.min(np.linalg.eigvalsh(0.5 * (h22 + h22.T))))
    if res.norm > tol:
        kind = PointKind.NON_STATIONARY
    elif min1 >= -eps_psd and min2 >= -eps_psd:
        kind = PointKind.EQUILIBRIUM_CANDIDATE
    else:
        kind = PointKind.NON_EQUILIBRIUM_STATIONARY
    return PointClass(kind=kind, min_eig_1=min1, min_eig_2=min2)
