"""Dense factorizations behind the block Newton system.

Matrices are plain 2-D float64 numpy arrays. LU is LAPACK's getrf/getrs,
called directly through scipy's compiled LAPACK wrappers, the extension
module scipy.linalg._flapack. That extension is loaded by itself, from
scipy's package directory: `import scipy.linalg` would pull in scipy's
array-API layer and with it numpy.f2py, numpy.ma, numpy.testing and
numpy.random, which cost more than everything else `import nepsolve`
does, for three functions. What this module adds are the
solver-facing policies: a scale-invariant pivot rule for declaring the
block system singular, a one-Cholesky test (LAPACK's potrf) of whether a
symmetric block is positive definite, so that the solver needs eigvalsh
only for a block that fails it, and a doubling diagonal shift, decided by
the same test, that turns an indefinite Hessian into a positive definite
surrogate. No routine here writes to its arguments, and none copies an
n x n matrix that it does not need.
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np


def _load_flapack():
    """scipy.linalg._flapack, the module scipy.linalg.lapack re-exports.

    An already imported one is reused; otherwise the extension is executed
    from <scipy>/linalg without running scipy's or scipy.linalg's
    __init__, and registered under its own name so that a later
    `import scipy.linalg` shares this module object.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("nepsolve needs scipy for its LAPACK wrappers")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


#: scipy's compiled LAPACK wrappers (dgetrf, dgetrs and dpotrf are used)
lapack = _load_flapack()


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
    if A.size == 0:
        return np.empty(0)  # LAPACK rejects the empty system
    # getrf and getrs work on copies (overwrite_a/overwrite_b default to
    # off); an exactly zero pivot comes back through info and fails the
    # pivot test below
    lu, piv, _ = lapack.dgetrf(A)
    norm_inf = float(np.max(np.sum(np.abs(A), axis=1)))
    pivots = np.abs(np.diag(lu))
    if not np.all(pivots > PIVOT_RTOL * norm_inf):
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:.0e} * ||A||_inf"
        )
    x, _ = lapack.dgetrs(lu, piv, b)
    return x


@dataclass(frozen=True)
class SpdSurrogate:
    """A positive definite surrogate H + shift*I of a symmetric matrix H."""

    matrix: np.ndarray
    shift: float


def _is_symmetric(H):
    """Whether the square H equals its transpose up to 1e-8 of its largest entry."""
    scale = float(np.max(np.abs(H))) if H.size else 1.0
    return not np.max(np.abs(H - H.T)) > 1e-8 * max(1.0, scale)


def _symmetric_part(H):
    """0.5 * (H + H.T) of a float64 H, bit for bit.

    A bitwise symmetric H is its own symmetric part, so it is returned as
    it is, without the two n x n temporaries (entries beyond half the
    largest float, whose sum would overflow, are the one exception).
    """
    bits = H.view(np.uint64)
    if (bits == bits.T).all():
        return H
    return 0.5 * (H + H.T)


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
    S = _symmetric_part(H)
    # a bitwise symmetric H passes the tolerance test by construction
    if S is not H and not _is_symmetric(H):
        raise ValueError("modified_cholesky requires a symmetric matrix")
    H = S

    pivot_floor = floor * CHOL_PIVOT_SAFETY
    if _chol_succeeds(H, pivot_floor):
        # + 0.0 gives the result its own memory and turns any -0.0 entry
        # into 0.0, as the shifted attempts' H + delta*I does
        return SpdSurrogate(matrix=H + 0.0, shift=0.0)
    eye = np.eye(H.shape[0])
    delta = floor
    while delta <= MAX_SHIFT:
        shifted = H + delta * eye
        if _chol_succeeds(shifted, pivot_floor):
            return SpdSurrogate(matrix=shifted, shift=delta)
        delta *= 2.0
    raise ShiftOverflow(f"diagonal shift exceeded {MAX_SHIFT:.0e}")


def _chol_succeeds(M, pivot_floor):
    """Whether LAPACK's potrf factors M with pivots at least pivot_floor.

    potrf reports a failed factorization through info instead of raising
    (on a 2 x 2 block a raised exception costs several times the
    factorization), and factors a copy of M.
    """
    L, info = lapack.dpotrf(M, lower=1, clean=0)
    # pivots in the LDL^T sense are the squared Cholesky diagonal
    return info == 0 and bool(L.diagonal().min() ** 2 >= pivot_floor)


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
    np.multiply(t, M1, out=out[:n1, n1:])
    np.multiply(t, M2, out=out[n1:, :n1])
    out[n1:, n1:] = H2
    return out


def spectral_bounds_sym(H):
    """Extreme eigenvalues (min, max) of a symmetric matrix."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {H.shape}")
    eigs = np.linalg.eigvalsh(_symmetric_part(H))
    return float(eigs[0]), float(eigs[-1])
