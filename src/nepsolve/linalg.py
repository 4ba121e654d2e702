"""Dense factorizations behind the block Newton system.

Matrices are plain 2-D float64 numpy arrays. LU is LAPACK's getrf/getrs,
called directly through scipy's compiled LAPACK wrappers, the extension
module scipy.linalg._flapack. That extension is loaded by itself, from
scipy's package directory: `import scipy.linalg` would pull in scipy's
array-API layer and with it numpy.f2py, numpy.ma, numpy.testing and
numpy.random, which cost more than everything else `import nepsolve`
does, for four functions.

What this module adds are the solver-facing policies: a scale-invariant
pivot rule for declaring the block system singular; one positive
semidefinite floor, PSD_FLOOR, and one test against it, `psd_test`, which
the surrogate build and the final classification share (one Cholesky,
LAPACK's potrf, settles most blocks, and eigvalsh decides the rest); and a
doubling diagonal shift that turns a Hessian block into a positive definite
surrogate. The surrogate build factors each block once: the potrf of the
PSD test both decides the surrogate and, when it succeeds, builds it with
shift 0, so `modified_cholesky` neither checks nor factors the block again.
A non-finite matrix is rejected with NonFiniteEvaluation, the one verdict
that every solver reports as divergence; `lu_solve` reads it off the
norm its pivot test needs. The block system is assembled by copying the
blocks into Fortran order, the layout LAPACK factors, so getrf can factor
it where it lies: `lu_solve` with `overwrite_a=True` is the one routine
here that may write to an argument, and only to a matrix its caller owns.
No other routine writes to its arguments, and none copies an n x n matrix
that it does not need.

The public kernels validate their arguments at the boundary, and each check
is cheap on what the solvers pass, 2-D float64 arrays: such an array is
taken as it is, without a conversion round trip, and the checks use array
methods and, for blocks of order at most 2, scalar reads. On 2 x 2 Hessian
blocks numpy's per-call overhead, not the arithmetic, is what a check costs.
"""

import importlib.machinery
import importlib.util
import math
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


#: scipy's compiled LAPACK wrappers (dgetrf, dgetrs, dlange and dpotrf are used)
lapack = _load_flapack()


class NonFiniteEvaluation(RuntimeError):
    """An oracle produced NaN/Inf, or the objective is undefined at the point."""


class SingularMatrixError(RuntimeError):
    """The system matrix failed the relative pivot test."""


class DimensionMismatch(ValueError):
    """Block or right-hand-side shapes do not conform."""


class ShiftOverflow(RuntimeError):
    """The diagonal shift search exceeded its cap (pathological input)."""


#: relative pivot floor: a pivot below PIVOT_RTOL * ||A||_inf flags A singular
PIVOT_RTOL = 1e-12

#: positive semidefinite floor of a Hessian block: psd_test accepts a block
#: whose smallest eigenvalue is at least -PSD_FLOOR, and modified_cholesky
#: shifts in multiples of it
PSD_FLOOR = 1e-8

#: Cholesky pivots must stay above PSD_FLOOR * CHOL_PIVOT_SAFETY
CHOL_PIVOT_SAFETY = 1e-2

#: cap on the diagonal shift before giving up
MAX_SHIFT = 1e12

#: a block of order n that passes the Cholesky test settles psd_test only
#: while CHOL_ROUNDING * n * trace <= PSD_FLOOR; the quadratic generator's
#: certificate shifts its Gram matrix down by CHOL_ROUNDING * N * trace
CHOL_ROUNDING = 16 * np.finfo(float).eps

_FLOAT = np.dtype(float)


def _as_matrix(A):
    """A as a float64 array of at least two dimensions; a 2-D float64
    ndarray is returned as it is, as the conversion would return it."""
    if type(A) is np.ndarray and A.ndim == 2 and A.dtype == _FLOAT:
        return A
    return np.atleast_2d(np.asarray(A, dtype=float))


def _same_bits(A, B):
    """Whether the float64 arrays A and B have one shape and the same bits.

    -0.0 differs from 0.0, and a NaN matches only a NaN with the same
    payload, so a matrix with the bits of a finite one is finite. Arrays of
    up to 16 entries compare their bytes, which on a 2 x 2 block is ten
    times quicker than the views; larger ones compare uint64 views, which
    copy nothing.
    """
    if A.shape != B.shape:
        return False
    if A.size <= 16:
        return A.tobytes() == B.tobytes()
    return bool((A.view(np.uint64) == B.view(np.uint64)).all())


def lu_solve(A, b, overwrite_a=False):
    """Solve A x = b by LU with partial pivoting.

    Raises SingularMatrixError when any pivot magnitude falls below
    PIVOT_RTOL * ||A||_inf; this is the non-singularity check the iteration
    applies to the block system before using a direction. Raises
    NonFiniteEvaluation for a non-finite A.

    overwrite_a has scipy's meaning: when true, getrf may factor A in place,
    which it does for a Fortran-ordered float64 A, and A's contents are then
    undefined. By default no argument is written.

    ||A||_inf is LAPACK's dlange, taken before getrf and read from A where
    it lies (the infinity norm of a Fortran-ordered A, the 1-norm of the
    transpose of a C-ordered one), without an n x n abs(A). dlange sums
    each row sequentially, so for n < 8 the norm has the bits of numpy's
    np.abs(A).sum(axis=1).max(); for larger n numpy sums pairwise, and the
    two can differ by about 2n eps relative. The threshold PIVOT_RTOL *
    ||A||_inf then moves by at most about 2n eps * PIVOT_RTOL * ||A||_inf,
    twelve orders of magnitude below the n eps ||A||_inf to which getrf
    computes a pivot: only a pivot within that distance of the threshold
    can be decided differently.

    The same norm is the finiteness check: dlange reads every entry and
    returns NaN or inf for a non-finite A, so only a norm that is not
    finite costs the explicit isfinite pass. A finite A whose row sums
    overflow passes it and fails the pivot test against an infinite norm.
    """
    A = _as_matrix(A)
    if not (type(b) is np.ndarray and b.ndim == 1 and b.dtype == _FLOAT):
        b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {A.shape}")
    if b.shape != (A.shape[0],):
        raise DimensionMismatch(f"rhs shape {b.shape} does not match matrix {A.shape}")
    if A.size == 0:
        return np.empty(0)  # LAPACK rejects the empty system
    # taken before getrf, which may overwrite A
    if A.flags.f_contiguous:
        norm_inf = lapack.dlange("I", A)
    else:
        norm_inf = lapack.dlange("1", A.T)
    if not math.isfinite(norm_inf) and not np.isfinite(A).all():
        raise NonFiniteEvaluation("matrix contains non-finite entries")
    # getrs works on a copy of b; an exactly zero pivot comes back through
    # info and fails the pivot test below
    lu, piv, _ = lapack.dgetrf(A, overwrite_a=overwrite_a)
    pivots = np.abs(lu.diagonal())
    if not (pivots > PIVOT_RTOL * norm_inf).all():
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
    """0.5 * (H + H.T) of a square float64 H, bit for bit.

    A bitwise symmetric H is its own symmetric part, so it is returned as
    it is, without the two n x n temporaries (entries beyond half the
    largest float, whose sum would overflow, are the one exception). A
    block of order 2 compares its one off-diagonal pair as scalars.
    """
    n = H.shape[0]
    if n < 2:
        return H
    bits = H.view(np.uint64)
    symmetric = bits[0, 1] == bits[1, 0] if n == 2 else (bits == bits.T).all()
    return H if symmetric else 0.5 * (H + H.T)


def modified_cholesky(H, *, factored=None):
    """Positive definite surrogate of a symmetric H by diagonal shifting.

    Returns H + delta*I with the smallest delta in {0, PSD_FLOOR,
    2*PSD_FLOOR, 4*PSD_FLOOR, ...} whose Cholesky factorization succeeds
    with pivots at least PSD_FLOOR * CHOL_PIVOT_SAFETY. An already
    sufficiently positive definite H is returned unchanged (shift 0).
    Raises NonFiniteEvaluation for a non-finite H, which no shift makes
    positive definite, and ValueError for an asymmetric one.

    factored is the verdict of a potrf already run on H: the third item of
    `_psd_verdict(H)` for a finite, bitwise symmetric 2-D float64 H, as the
    surrogate build has it. Given, H is taken as it is, without the
    boundary checks: True returns H with shift 0 and False starts the
    search at PSD_FLOOR, so that delta = 0 is not factored a second time.
    """
    if factored is None:
        H = _as_matrix(H)
        if H.shape[0] != H.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got {H.shape}")
        if not np.isfinite(H).all():
            raise NonFiniteEvaluation("modified_cholesky requires finite entries")
        S = _symmetric_part(H)
        # a bitwise symmetric H passes the tolerance test by construction
        if S is not H and not _is_symmetric(H):
            raise ValueError("modified_cholesky requires a symmetric matrix")
        H = S
        factored = _chol_succeeds(H)

    if factored:
        # + 0.0 gives the result its own memory and turns any -0.0 entry
        # into 0.0, as the shifted attempts' H + delta*I does
        return SpdSurrogate(matrix=H + 0.0, shift=0.0)
    eye = np.eye(H.shape[0])
    delta = PSD_FLOOR
    while delta <= MAX_SHIFT:
        shifted = H + delta * eye
        if _chol_succeeds(shifted):
            return SpdSurrogate(matrix=shifted, shift=delta)
        delta *= 2.0
    raise ShiftOverflow(f"diagonal shift exceeded {MAX_SHIFT:.0e}")


def _chol_succeeds(M):
    """Whether LAPACK's potrf factors M with pivots at least PSD_FLOOR *
    CHOL_PIVOT_SAFETY.

    potrf reports a failed factorization through info instead of raising
    (on a 2 x 2 block a raised exception costs several times the
    factorization), and factors a copy of M.
    """
    L, info = lapack.dpotrf(M, lower=1, clean=0)
    if info != 0:
        return False
    # pivots in the LDL^T sense are the squared Cholesky diagonal (positive
    # once potrf succeeds); a block of order at most 2 reads its entries
    return bool(_diagonal_min(L) ** 2 >= PSD_FLOOR * CHOL_PIVOT_SAFETY)


def _diagonal_min(M):
    n = M.shape[0]
    if n == 1 or n == 2:
        return min(M[0, 0], M[n - 1, n - 1])
    return M.diagonal().min()


def _trace(M):
    # summed from the entries on blocks of order 1 and 2; the order of the
    # sum can change only the sign of a zero trace
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    if n == 2:
        return M[0, 0] + M[1, 1]
    return M.trace()


def _psd_verdict(S):
    """(psd, min_eig, factored): psd_test's verdict on S, and whether its
    potrf factored S with pivots at least PSD_FLOOR * CHOL_PIVOT_SAFETY,
    which is `modified_cholesky`'s test for shift 0."""
    factored = _chol_succeeds(S)
    if factored and CHOL_ROUNDING * S.shape[0] * _trace(S) <= PSD_FLOOR:
        return True, None, True
    min_eig = float(np.linalg.eigvalsh(S)[0])
    return min_eig >= -PSD_FLOOR, min_eig, factored


def psd_test(S):
    """(psd, min_eig): whether S is positive semidefinite up to PSD_FLOOR.

    S is finite and symmetric, as `_symmetric_part` returns it. psd is the
    eigvalsh rule: min_eig, the smallest eigenvalue eigvalsh gives S (the
    bits of spectral_bounds_sym(S)[0]), is at least -PSD_FLOOR. One
    Cholesky settles most blocks without eigvalsh, and min_eig is then
    None: potrf with pivots at least PSD_FLOOR * CHOL_PIVOT_SAFETY, trusted
    only while CHOL_ROUNDING * n * trace(S) <= PSD_FLOOR. A successful potrf
    factors S up to a backward error of order n * eps * trace, and
    eigvalsh, backward stable, errs by order n * eps * ||S|| <= n * eps *
    trace, so below that bound eigvalsh cannot put an eigenvalue of S under
    -PSD_FLOOR; the factor 16 in CHOL_ROUNDING is margin.

    The same potrf is the shift search's first attempt: the surrogate build
    reads it from `_psd_verdict` and hands it to `modified_cholesky`.
    """
    psd, min_eig, _ = _psd_verdict(S)
    return psd, min_eig


def _block(h):
    return _as_matrix(getattr(h, "matrix", h))


def assemble_block_system(H1, H2, M1, M2, t):
    """Block matrix [[H1, t*M1], [t*M2, H2]] of the direction system.

    H1, H2 may be SpdSurrogate instances or plain arrays; the off-diagonal
    blocks are scaled by the tentative step length t. The result is a new
    Fortran-ordered array, which the caller owns: `lu_solve(...,
    overwrite_a=True)` factors it without a copy. Each block is copied into
    it, and the mixed blocks are then scaled where they lie, only when
    t != 1: a multiply that writes into the strided Fortran-ordered blocks
    costs about twice the copy.
    """
    H1 = _block(H1)
    H2 = _block(H2)
    M1 = _as_matrix(M1)
    M2 = _as_matrix(M2)
    n1 = H1.shape[0]
    n2 = H2.shape[0]
    if H1.shape != (n1, n1) or H2.shape != (n2, n2):
        raise DimensionMismatch("diagonal blocks must be square")
    if M1.shape != (n1, n2) or M2.shape != (n2, n1):
        raise DimensionMismatch(
            f"mixed blocks {M1.shape}, {M2.shape} do not conform to ({n1},{n2})"
        )
    out = np.empty((n1 + n2, n1 + n2), order="F")
    out[:n1, :n1] = H1
    out[:n1, n1:] = M1
    out[n1:, :n1] = M2
    out[n1:, n1:] = H2
    if t != 1:
        # M*t in place, which has the bits of t*M
        out[:n1, n1:] *= t
        out[n1:, :n1] *= t
    return out


def spectral_bounds_sym(H):
    """Extreme eigenvalues (min, max) of a symmetric matrix."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {H.shape}")
    eigs = np.linalg.eigvalsh(_symmetric_part(H))
    return float(eigs[0]), float(eigs[-1])
