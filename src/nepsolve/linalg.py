"""Dense factorizations behind the block Newton system.

Matrices are plain 2-D float64 numpy arrays; scipy provides the LU and
Cholesky kernels. What this module adds are the solver-facing policies: a
scale-invariant pivot rule for declaring the block system singular, and a
doubling diagonal shift that turns an indefinite Hessian into a positive
definite surrogate.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularMatrixError(RuntimeError):
    """The system matrix failed the relative pivot test."""


class DimensionMismatch(ValueError):
    """Block or right-hand-side shapes do not conform."""


class ShiftOverflow(RuntimeError):
    """The diagonal shift search exceeded its cap (pathological input)."""


#: relative pivot floor: a pivot below PIVOT_RTOL * ||A||_inf flags A singular
PIVOT_RTOL = 1e-12

#: modified-Cholesky pivots must stay above floor * CHOL_PIVOT_SAFETY
CHOL_PIVOT_SAFETY = 1e-2

#: cap on the diagonal shift before giving up
MAX_SHIFT = 1e12


def lu_solve(A, b):
    """Solve A x = b by LU with partial pivoting.

    Raises SingularMatrixError when any pivot magnitude falls below
    PIVOT_RTOL * ||A||_inf; this is the non-singularity check the iteration
    applies to the block system before using a direction.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {A.shape}")
    if b.shape != (A.shape[0],):
        raise DimensionMismatch(f"rhs shape {b.shape} does not match matrix {A.shape}")
    if not np.all(np.isfinite(A)):
        raise SingularMatrixError("matrix contains non-finite entries")
    with warnings.catch_warnings():
        # exact zero pivots are handled by the pivot test below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    norm_inf = float(np.max(np.sum(np.abs(A), axis=1))) if A.size else 0.0
    pivots = np.abs(np.diag(lu))
    if not np.all(pivots > PIVOT_RTOL * norm_inf):
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:.0e} * ||A||_inf"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


@dataclass(frozen=True)
class SpdSurrogate:
    """A positive definite surrogate H + shift*I of a symmetric matrix H."""

    matrix: np.ndarray
    shift: float


def _is_symmetric(H):
    """Whether the square H equals its transpose up to 1e-8 of its largest entry."""
    scale = float(np.max(np.abs(H))) if H.size else 1.0
    return not np.max(np.abs(H - H.T)) > 1e-8 * max(1.0, scale)


def modified_cholesky(H, floor):
    """Positive definite surrogate of a symmetric H by diagonal shifting.

    Returns H + delta*I with the smallest delta in {0, floor, 2*floor,
    4*floor, ...} whose Cholesky factorization succeeds with pivots at least
    floor * CHOL_PIVOT_SAFETY. An already sufficiently positive definite H
    is returned unchanged (shift 0).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {H.shape}")
    if floor <= 0:
        raise ValueError("eigenvalue floor must be positive")
    if not _is_symmetric(H):
        raise ValueError("modified_cholesky requires a symmetric matrix")
    H = 0.5 * (H + H.T)

    n = H.shape[0]
    eye = np.eye(n)
    pivot_floor = floor * CHOL_PIVOT_SAFETY
    delta = 0.0
    while True:
        if _chol_succeeds(H + delta * eye, pivot_floor):
            return SpdSurrogate(matrix=H + delta * eye, shift=delta)
        delta = floor if delta == 0.0 else 2.0 * delta
        if delta > MAX_SHIFT:
            raise ShiftOverflow(f"diagonal shift exceeded {MAX_SHIFT:.0e}")


def _chol_succeeds(M, pivot_floor):
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    # pivots in the LDL^T sense are the squared Cholesky diagonal
    return bool(np.min(np.diag(L)) ** 2 >= pivot_floor)


def _block(h):
    return np.atleast_2d(np.asarray(getattr(h, "matrix", h), dtype=float))


def assemble_block_system(H1, H2, M1, M2, t):
    """Block matrix [[H1, t*M1], [t*M2, H2]] of the direction system.

    H1, H2 may be SpdSurrogate instances or plain arrays; the off-diagonal
    blocks are scaled by the tentative step length t.
    """
    H1 = _block(H1)
    H2 = _block(H2)
    M1 = np.atleast_2d(np.asarray(M1, dtype=float))
    M2 = np.atleast_2d(np.asarray(M2, dtype=float))
    n1 = H1.shape[0]
    n2 = H2.shape[0]
    if H1.shape != (n1, n1) or H2.shape != (n2, n2):
        raise DimensionMismatch("diagonal blocks must be square")
    if M1.shape != (n1, n2) or M2.shape != (n2, n1):
        raise DimensionMismatch(
            f"mixed blocks {M1.shape}, {M2.shape} do not conform to ({n1},{n2})"
        )
    out = np.empty((n1 + n2, n1 + n2))
    out[:n1, :n1] = H1
    out[:n1, n1:] = t * M1
    out[n1:, :n1] = t * M2
    out[n1:, n1:] = H2
    return out


def spectral_bounds_sym(H):
    """Extreme eigenvalues (min, max) of a symmetric matrix."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {H.shape}")
    eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
    return float(eigs[0]), float(eigs[-1])
