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

from .linalg import spectral_bounds_sym

#: PSD tolerance of the final classification: a Hessian block counts as
#: positive semidefinite when its smallest eigenvalue is at least -EPS_PSD
EPS_PSD = 1e-8


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


def finite_diff_jacobian(g, x):
    """Central-difference Jacobian of g at x, one row per output of g.

    Column i is (g(x + h e_i) - g(x - h e_i)) / 2h, where the step
    h = 1e-6 * max(1, ||x||_inf) stays meaningful on large (divergent)
    iterates; g is never evaluated at x itself. A scalar g gives one row,
    its gradient.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    jac = None
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        gp = _require_finite(g(xp), "oracle")
        gm = _require_finite(g(xm), "oracle")
        if jac is None:
            jac = np.empty((gp.size, x.size))
        jac[:, i] = (gp - gm) / (2.0 * h)
    return jac


@dataclass(frozen=True)
class NepProblem:
    """Dimensions plus evaluation oracles for a two-player NEP.

    f1, f2 map (x1, x2) to a scalar. Optional oracles: grad1/grad2 for the
    partial gradients of each player's own objective with respect to their
    own block; hess11/hess22 for the per-player second-derivative blocks;
    hess12_f1 for the n1 x n2 block of f1 mixing both variables; hess21_f2
    for the n2 x n1 mixed block of f2 (the one multiplying d1 in the second
    row of the full Newton system). A missing oracle falls back to its
    central difference, `finite_difference`: of f1/f2 for a gradient, of
    the gradient accessor for a Hessian block (symmetrized for hess11/hess22).
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

    def _point(self, x1, x2):
        return _as_vector(x1, self.n1, "x1"), _as_vector(x2, self.n2, "x2")

    def finite_difference(self, oracle, x1, x2):
        """Central difference that stands in for the named optional oracle.

        grad1/grad2 difference f1/f2; the Hessian blocks difference the
        gradient accessors. The result is not symmetrized.
        """
        x1, x2 = self._point(x1, x2)
        # oracle -> (function differenced, block it is differenced in)
        g, x = {
            "grad1": (lambda z: self.f1(z, x2), x1),
            "grad2": (lambda z: self.f2(x1, z), x2),
            "hess11": (lambda z: self.gradient1(z, x2), x1),
            "hess22": (lambda z: self.gradient2(x1, z), x2),
            "hess12_f1": (lambda z: self.gradient1(x1, z), x2),
            "hess21_f2": (lambda z: self.gradient2(z, x2), x1),
        }[oracle]
        jac = finite_diff_jacobian(g, x)
        return jac[0] if oracle in ("grad1", "grad2") else jac

    def _derivative(self, oracle, x1, x2, shape):
        fn = getattr(self, oracle)
        if fn is None:
            return self.finite_difference(oracle, x1, x2)
        x1, x2 = self._point(x1, x2)
        return shape(np.asarray(fn(x1, x2), dtype=float))

    # -- objective evaluation -------------------------------------------------

    def value1(self, x1, x2):
        return float(self.f1(*self._point(x1, x2)))

    def value2(self, x1, x2):
        return float(self.f2(*self._point(x1, x2)))

    # -- derivatives: the oracle, else its central difference ------------------

    def gradient1(self, x1, x2):
        return self._derivative("grad1", x1, x2, np.atleast_1d)

    def gradient2(self, x1, x2):
        return self._derivative("grad2", x1, x2, np.atleast_1d)

    def hessian11(self, x1, x2):
        h = self._derivative("hess11", x1, x2, np.atleast_2d)
        return h if self.hess11 is not None else 0.5 * (h + h.T)

    def hessian22(self, x1, x2):
        h = self._derivative("hess22", x1, x2, np.atleast_2d)
        return h if self.hess22 is not None else 0.5 * (h + h.T)

    def mixed12_f1(self, x1, x2):
        """n1 x n2 mixed block of f1 (derivative of grad1 w.r.t. x2)."""
        return self._derivative("hess12_f1", x1, x2, np.atleast_2d)

    def mixed21_f2(self, x1, x2):
        """n2 x n1 mixed block of f2 (derivative of grad2 w.r.t. x1)."""
        return self._derivative("hess21_f2", x1, x2, np.atleast_2d)


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


def classify_point(problem, x1, x2, tol, res=None):
    """Classify (x1, x2) as equilibrium candidate / stationary / neither.

    A point is an equilibrium candidate when the residual norm is within tol
    and both per-player Hessian blocks are positive semidefinite up to
    EPS_PSD (second-order necessary conditions). The residual at (x1, x2)
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
    min1 = spectral_bounds_sym(h11)[0]
    min2 = spectral_bounds_sym(h22)[0]
    if res.norm > tol:
        kind = PointKind.NON_STATIONARY
    elif min1 >= -EPS_PSD and min2 >= -EPS_PSD:
        kind = PointKind.EQUILIBRIUM_CANDIDATE
    else:
        kind = PointKind.NON_EQUILIBRIUM_STATIONARY
    return PointClass(kind=kind, min_eig_1=min1, min_eig_2=min2)
