import itertools
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import nepsolve.core as core_mod
import nepsolve.linalg as linalg_mod
from nepsolve import (
    DimensionMismatch,
    NonFiniteEvaluation,
    ShiftOverflow,
    SingularMatrixError,
    SpdSurrogate,
    assemble_block_system,
    lu_solve,
    modified_cholesky,
    spectral_bounds_sym,
)


def _draws(count, *ranges):
    """count fixed (seed, *sizes) cases: seed 0, then seeds from a seeded
    generator, with the sizes stepping through every combination of the
    inclusive ranges in turn, so that each size occurs."""
    seeds = [0, *np.random.default_rng(20240).integers(1, 10**6, size=count - 1).tolist()]
    sizes = list(itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)))
    return [(seed, *sizes[i % len(sizes)]) for i, seed in enumerate(seeds)]


def test_lu_identity():
    x = lu_solve(np.eye(2), np.array([3.0, -2.0]))
    assert np.array_equal(x, [3.0, -2.0])


def test_lu_counterexample_system():
    # [[1, 2], [0, 1]] d = (-1, -2) has the unique solution (3, -2)
    x = lu_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([-1.0, -2.0]))
    assert x == pytest.approx([3.0, -2.0], abs=1e-14)


def test_lu_rank_deficient_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


def test_lu_zero_matrix_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((2, 2)), np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", [2, 4, 8, 40, 300])
def test_lu_matches_scipy_lu_factor_and_lu_solve(monkeypatch, n):
    # lu_solve calls getrf/getrs itself; factors and solution must be the
    # bits scipy.linalg.lu_factor/lu_solve give, in either layout of A and
    # whether or not getrf may factor A in place
    factors = []
    real = linalg_mod.lapack

    def dgetrf(a, **kwargs):
        out = real.dgetrf(a, **kwargs)
        factors.append(out)
        return out

    monkeypatch.setattr(
        linalg_mod, "lapack",
        types.SimpleNamespace(
            dgetrf=dgetrf, dgetrs=real.dgetrs, dlange=real.dlange, dpotrf=real.dpotrf,
        ),
    )
    rng = np.random.default_rng(n)
    for order, overwrite_a in (("C", False), ("F", False), ("C", True), ("F", True)):
        for _ in range(5):
            A = np.asarray(rng.standard_normal((n, n)), order=order)
            b = rng.standard_normal(n)
            lu, piv = scipy.linalg.lu_factor(A)
            x = lu_solve(A, b, overwrite_a=overwrite_a)
            assert np.array_equal(factors[-1][0].view(np.uint64), lu.view(np.uint64))
            assert np.array_equal(factors[-1][1], piv)
            expected = scipy.linalg.lu_solve((lu, piv), b)
            assert np.array_equal(x.view(np.uint64), expected.view(np.uint64))
            # getrf factors in place only a Fortran-ordered A it may overwrite
            assert np.shares_memory(factors[-1][0], A) == (overwrite_a and order == "F")


def _fresh_python(code):
    """Run code in a new interpreter that imports this nepsolve; its stdout."""
    src = str(Path(linalg_mod.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_linalg_unimported():
    # this process cannot tell: pytest's filterwarnings setting names
    # scipy.linalg.LinAlgWarning and so imports scipy.linalg itself
    loaded = _fresh_python(
        "import nepsolve, nepsolve.cli; print('scipy.linalg' in sys.modules)"
    )
    assert loaded == "False"


@pytest.mark.parametrize("order", [
    "import nepsolve.linalg as n; import scipy.linalg as s",
    "import scipy.linalg as s; import nepsolve.linalg as n",
], ids=["nepsolve-first", "scipy-first"])
def test_lapack_routines_are_scipys(order):
    # either import order ends with one _flapack module, whose wrappers
    # scipy.linalg.lapack re-exports
    same = _fresh_python(
        f"{order}; print(n.lapack is sys.modules['scipy.linalg._flapack'] and all("
        "getattr(n.lapack, f) is getattr(s.lapack, f) for f in ('dgetrf', 'dgetrs', 'dlange', 'dpotrf')))"
    )
    assert same == "True"


def _laid_out(M, layout):
    """A new array equal to M: C-ordered, Fortran-ordered or every other
    column of a wider C-ordered array."""
    if layout == "strided":
        return np.repeat(M, 2, axis=1)[:, ::2]
    return np.array(M, order=layout)


@pytest.mark.parametrize("order", ["C", "F", "strided"])
def test_lu_leaves_arguments_unmodified(order):
    rng = np.random.default_rng(5)
    M = rng.standard_normal((40, 40))
    A = _laid_out(M, order)
    b = rng.standard_normal(40)
    memory = A if A.base is None else A.base
    A0, b0 = memory.tobytes(), b.tobytes()
    x = lu_solve(A, b)
    assert memory.tobytes() == A0 and b.tobytes() == b0
    if order != "strided":
        assert A.flags[f"{order}_CONTIGUOUS"]
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(A) * np.linalg.norm(x)
    # factoring a copy in place gives the same bits
    assert lu_solve(_laid_out(M, order), b, overwrite_a=True).tobytes() == x.tobytes()
    assert b.tobytes() == b0


@pytest.mark.parametrize("n", [2, 4, 40, 300])
@pytest.mark.parametrize("order", ["C", "F"])
def test_pivot_decision_matches_the_row_sum_norm(order, n):
    # getrf keeps the pivots of an upper triangular matrix in place, so its
    # smallest pivot is the last diagonal entry; set just above or just below
    # PIVOT_RTOL * ||A||_inf, lu_solve must decide as the row sums of abs(A)
    # do, whichever way dlange rounds the norm
    rng = np.random.default_rng(n)
    U = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) + np.diag(rng.uniform(1.0, 2.0, n))
    U[-1, -1] = 0.0  # the last row holds the small pivot alone, away from the norm
    b = rng.standard_normal(n)
    for rel in (1 + 1e-9, 1 - 1e-9):
        A = U.copy()
        A[-1, -1] = linalg_mod.PIVOT_RTOL * np.abs(U).sum(axis=1).max() * rel
        A = np.array(A, order=order)
        norm = np.abs(A).sum(axis=1).max()
        accepted = (np.abs(np.diag(A)) > linalg_mod.PIVOT_RTOL * norm).all()
        assert accepted == (rel > 1)
        for overwrite_a in (False, True):
            if accepted:
                lu_solve(A.copy(order="A"), b, overwrite_a=overwrite_a)
            else:
                with pytest.raises(SingularMatrixError):
                    lu_solve(A.copy(order="A"), b, overwrite_a=overwrite_a)


@pytest.mark.parametrize("order", ["C", "F"])
def test_pivot_norm_is_read_before_getrf_overwrites_a(order):
    # ||A||_inf is 3 and ||LU||_inf 2: a last pivot of 2.5 * PIVOT_RTOL
    # fails the test against A's norm, which must be read before getrf
    # writes its factors over A
    pivot = 2.5 * linalg_mod.PIVOT_RTOL
    A = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, pivot]], order=order)
    lu, _, _ = linalg_mod.lapack.dgetrf(A)
    assert np.abs(lu).sum(axis=1).max() == 2.0 and np.diag(lu)[-1] == pivot
    for overwrite_a in (False, True):
        with pytest.raises(SingularMatrixError):
            lu_solve(A.copy(order="A"), np.ones(3), overwrite_a=overwrite_a)


@pytest.mark.parametrize("n", range(1, 8))
def test_dlange_norm_has_numpys_bits_below_order_8(n):
    # both sum each row sequentially while numpy's pairwise sum has fewer
    # than 8 terms
    rng = np.random.default_rng(n)
    for _ in range(50):
        A = rng.standard_normal((n, n)) * rng.uniform(0.1, 1e3, (n, n))
        expected = np.float64(np.abs(A).sum(axis=1).max()).tobytes()
        lapack = linalg_mod.lapack
        assert np.float64(lapack.dlange("1", A.T)).tobytes() == expected
        assert np.float64(lapack.dlange("I", np.asfortranarray(A))).tobytes() == expected


def test_lu_exactly_singular_raises_without_warning():
    # a zero pivot comes back through getrf's info; nothing is warned
    rng = np.random.default_rng(6)
    dup = rng.standard_normal((300, 300))
    dup[:, 7] = dup[:, 3]
    for A in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3)), dup):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                lu_solve(A, np.ones(A.shape[0]))


@pytest.mark.parametrize("n", [1, 3, 40])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_lu_rejects_a_non_finite_entry_anywhere(value, order, n):
    # the finiteness check reads dlange's norm, which a NaN or inf entry
    # makes non-finite wherever it sits: corners, then an interior entry
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n)) + n * np.eye(n)
    for i, j in {(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, (n - 1) // 2)}:
        A = M.copy()
        A[i, j] = value
        with pytest.raises(NonFiniteEvaluation):
            lu_solve(np.array(A, order=order), np.ones(n))


@pytest.mark.parametrize("order", ["C", "F"])
def test_lu_finite_entries_whose_row_sums_overflow_are_singular(order):
    # ||A||_inf overflows to inf although every entry is finite: the matrix
    # is checked entry by entry, passes, and fails the pivot test against
    # the infinite norm
    for A in (np.full((3, 3), 1e308), np.diag([1e308, 1e308]) + np.array([[0.0, 1e308], [0.0, 0.0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                lu_solve(np.array(A, order=order), np.ones(A.shape[0]))


def test_same_bits_tells_signed_zeros_apart():
    for n in (2, 5):  # the byte compare, then the view compare
        A = np.eye(n)
        B = A.copy()
        assert linalg_mod._same_bits(A, B) and linalg_mod._same_bits(A, np.asfortranarray(B))
        B[0, n - 1] = -0.0
        assert np.array_equal(A, B) and not linalg_mod._same_bits(A, B)
        assert not linalg_mod._same_bits(A, np.eye(n + 1))


def test_lu_empty_system():
    assert lu_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


def test_lu_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lu_solve(np.eye(2), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        lu_solve(np.ones((2, 3)), np.array([1.0, 2.0]))


@pytest.mark.parametrize("seed, n", _draws(50, (1, 8)))
def test_lu_recovers_planted_solution(seed, n):
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    svals = np.geomspace(1.0, rng.uniform(1.0, 1e6), n)
    A = (q1 * svals) @ q2.T
    planted = rng.standard_normal(n)
    x = lu_solve(A, A @ planted)
    assert np.linalg.norm(x - planted) <= 1e-8 * max(1.0, np.linalg.norm(planted))


@pytest.mark.parametrize("seed, n", _draws(50, (1, 6)))
def test_lu_residual_bound(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    try:
        x = lu_solve(A, b)
    except SingularMatrixError:
        return
    bound = 1e-10 * max(1.0, np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
    assert np.linalg.norm(A @ x - b) <= bound


def test_modified_cholesky_identity_untouched():
    out = modified_cholesky(np.eye(3))
    assert out.shift == 0.0
    assert np.array_equal(out.matrix, np.eye(3))


def test_modified_cholesky_zero_matrix():
    # doubling search from the floor: the first candidate shift succeeds
    out = modified_cholesky(np.array([[0.0]]))
    assert out.shift == 1e-8
    assert out.matrix == pytest.approx(np.array([[1e-8]]), abs=0)


def test_modified_cholesky_positive_scalar():
    out = modified_cholesky(np.array([[2.0]]))
    assert out.shift == 0.0
    assert out.matrix == pytest.approx(np.array([[2.0]]), abs=0)


def test_modified_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError):
        modified_cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_modified_cholesky_shift_overflow():
    with pytest.raises(ShiftOverflow):
        modified_cholesky(np.array([[-1e13]]))


@pytest.mark.parametrize("H", [
    [[np.inf, 0.0], [0.0, 1.0]],  # potrf factors it: once an "SPD" surrogate with shift 0
    [[np.nan]],  # once some 67 failed potrf calls and then ShiftOverflow
    [[1.0, np.inf], [np.inf, 1.0]],
    [[1.0, np.nan], [0.0, 1.0]],  # NaN also hid the asymmetry
], ids=["inf-diagonal", "nan", "inf-off-diagonal", "nan-asymmetric"])
def test_modified_cholesky_rejects_non_finite(monkeypatch, H):
    potrf_calls = []
    real = linalg_mod.lapack
    monkeypatch.setattr(linalg_mod, "lapack", types.SimpleNamespace(
        dgetrf=real.dgetrf, dgetrs=real.dgetrs,
        dpotrf=lambda *args, **kwargs: potrf_calls.append(1) or real.dpotrf(*args, **kwargs),
    ))
    with pytest.raises(NonFiniteEvaluation, match="finite"):
        modified_cholesky(np.array(H))
    assert potrf_calls == []


@pytest.mark.parametrize("diagonal", [
    [2.0, 3.0], [-0.0, 1.0], [0.0, 1.0], [1e-12, 1.0], [-5e-9, 1.0],
], ids=str)
def test_modified_cholesky_reuses_the_psd_verdict(monkeypatch, diagonal):
    # the verdict's potrf is the search's first attempt: the same surrogate,
    # one factorization fewer
    S = np.diag(diagonal)
    potrf_calls = []
    real = linalg_mod.lapack.dpotrf
    monkeypatch.setattr(
        linalg_mod.lapack, "dpotrf", lambda *a, **kw: potrf_calls.append(1) or real(*a, **kw)
    )
    ref = modified_cholesky(S)
    checked = len(potrf_calls)
    psd, _, factored = linalg_mod._psd_verdict(S)
    potrf_calls.clear()
    out = modified_cholesky(S, factored=factored)
    assert psd
    assert len(potrf_calls) == checked - 1
    assert np.array_equal(out.matrix.view(np.uint64), ref.matrix.view(np.uint64))
    assert out.shift == ref.shift
    assert out.matrix is not S


@pytest.mark.parametrize("diagonal", [
    [2.0], [1e7], [1.0, 2.0], [1.0, 1e7], [1e7, 1.0], [1.0, 1e-12], [1e-12, 1.0],
    [1.0, 2.0, 3.0], [1.0, 1.0, 1e7], [1.0, 1.0, 1e-12],
], ids=str)
def test_cholesky_settles_reads_every_diagonal_entry(diagonal):
    # blocks of order 1 and 2 read the factor's diagonal and the trace entry
    # by entry: the smallest pivot and the rounding guard's whole trace count
    # toward whether one Cholesky settles psd_test, which then reports no
    # eigenvalue
    S = np.diag(diagonal)
    floor = linalg_mod.PSD_FLOOR
    L = np.linalg.cholesky(S)
    settled = (
        np.diag(L).min() ** 2 >= floor * linalg_mod.CHOL_PIVOT_SAFETY
        and linalg_mod.CHOL_ROUNDING * len(diagonal) * S.trace() <= floor
    )
    psd, min_eig = linalg_mod.psd_test(S)
    assert psd
    assert min_eig == (None if settled else min(diagonal))


def test_one_non_finite_verdict():
    assert NonFiniteEvaluation is linalg_mod.NonFiniteEvaluation is core_mod.NonFiniteEvaluation


# ---------------------------------------------------------------------------
# the boundary contract: what the kernels accept and what they reject
# ---------------------------------------------------------------------------

_A = np.array([[2.0, 1.0], [1.0, 3.0]])
_B = np.array([1.0, 2.0])
_M = np.array([[0.5, -1.0], [0.25, 0.0]])

#: kernel, arguments in a form the kernel converts, and the same arguments
#: as float64 arrays of the dimension the kernel works in
ACCEPTED = {
    "lu_solve-lists": (lu_solve, ([[2, 1], [1, 3]], [1, 2]), (_A, _B)),
    "lu_solve-int-arrays": (lu_solve, (np.array([[2, 1], [1, 3]]), np.array([1, 2])), (_A, _B)),
    "lu_solve-float32": (lu_solve, (_A.astype(np.float32), _B.astype(np.float32)), (_A, _B)),
    "lu_solve-0d": (lu_solve, (np.float64(4.0), 2), (np.array([[4.0]]), np.array([2.0]))),
    "lu_solve-1d": (lu_solve, (np.array([4.0]), np.array([2.0])), (np.array([[4.0]]), np.array([2.0]))),
    "lu_solve-fortran-order": (lu_solve, (np.asfortranarray(_A), _B), (_A, _B)),
    "lu_solve-strided": (lu_solve, (np.repeat(_A, 2, axis=1)[:, ::2], _B[None, :][0]), (_A, _B)),
    "lu_solve-non-finite-rhs": (lu_solve, (_A.tolist(), [np.nan, 1.0]), (_A, np.array([np.nan, 1.0]))),
    "assemble-surrogates": (
        assemble_block_system,
        (SpdSurrogate(_A, 0.0), SpdSurrogate(2.0 * _A, 0.0), _M, _M.T, 0.5),
        (_A, 2.0 * _A, _M, _M.T, 0.5),
    ),
    "assemble-lists": (
        assemble_block_system,
        (_A.tolist(), [[1, 0], [0, 1]], _M.tolist(), _M.T.tolist(), 1.0),
        (_A, np.eye(2), _M, _M.T, 1.0),
    ),
    "assemble-0d": (
        assemble_block_system,
        (2, np.float64(3.0), 1, 0.0, 0.5),
        tuple(np.array([[v]]) for v in (2.0, 3.0, 1.0, 0.0)) + (0.5,),
    ),
    "assemble-1d": (
        assemble_block_system,
        (np.array([2.0]), np.array([3.0]), np.array([1.0]), np.array([0.0]), 0.5),
        tuple(np.array([[v]]) for v in (2.0, 3.0, 1.0, 0.0)) + (0.5,),
    ),
    "assemble-non-finite": (
        assemble_block_system,
        (_A.tolist(), _A, [[np.nan, 0.0], [np.inf, 1.0]], _M, 0.5),
        (_A, _A, np.array([[np.nan, 0.0], [np.inf, 1.0]]), _M, 0.5),
    ),
    "modified_cholesky-lists": (modified_cholesky, ([[2, 1], [1, 3]],), (_A,)),
    "modified_cholesky-int-array": (modified_cholesky, (np.array([[0, 0], [0, 0]]),), (np.zeros((2, 2)),)),
    "modified_cholesky-0d": (modified_cholesky, (-2,), (np.array([[-2.0]]),)),
    "modified_cholesky-1d": (modified_cholesky, (np.array([5.0]),), (np.array([[5.0]]),)),
    "modified_cholesky-fortran-order": (modified_cholesky, (np.asfortranarray(_A),), (_A,)),
}


def _same_result(a, b):
    if isinstance(a, SpdSurrogate):
        return _same_result(a.matrix, b.matrix) and a.shift == b.shift
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_kernels_accept_what_they_convert(case):
    kernel, args, float_args = ACCEPTED[case]
    originals = [np.array(a, copy=True) if isinstance(a, np.ndarray) else a for a in args]
    got = kernel(*args)
    assert _same_result(got, kernel(*float_args))
    for a, original in zip(args, originals):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, original, equal_nan=True)


def test_kernel_results_on_converted_arguments():
    # the values behind some of the accepted cases
    assert np.array_equal(lu_solve(np.float64(4.0), 2), [0.5])
    assert np.array_equal(
        assemble_block_system(2, np.float64(3.0), 1, 0.0, 0.5), [[2.0, 0.5], [0.0, 3.0]]
    )
    out = modified_cholesky(-2)
    assert out.matrix.shape == (1, 1) and out.shift > 2.0
    x = lu_solve(_A.tolist(), [np.nan, 1.0])
    assert np.isnan(x).all()


#: kernel, arguments, the exception they raise
REJECTED = {
    "lu_solve-non-square": (lu_solve, (np.ones((2, 3)), np.ones(2)), DimensionMismatch),
    "lu_solve-1d-row": (lu_solve, (np.ones(2), np.ones(2)), DimensionMismatch),
    "lu_solve-3d": (lu_solve, (np.ones((2, 2, 2)), np.ones(2)), DimensionMismatch),
    "lu_solve-rhs-length": (lu_solve, (_A, np.ones(3)), DimensionMismatch),
    "lu_solve-rhs-column": (lu_solve, (_A, np.ones((2, 1))), DimensionMismatch),
    "lu_solve-nan": (lu_solve, ([[1.0, np.nan], [0.0, 1.0]], _B), NonFiniteEvaluation),
    "lu_solve-inf": (lu_solve, (np.diag([np.inf, 1.0]), _B), NonFiniteEvaluation),
    "lu_solve-singular": (lu_solve, (np.ones((2, 2), dtype=int), _B), SingularMatrixError),
    "assemble-non-square": (
        assemble_block_system, (np.ones((2, 3)), _A, _M, _M, 1.0), DimensionMismatch,
    ),
    "assemble-3d": (
        assemble_block_system, (np.ones((2, 2, 2)), _A, _M, _M, 1.0), DimensionMismatch,
    ),
    "assemble-non-conforming": (
        assemble_block_system, (_A, np.eye(3), _M, _M, 1.0), DimensionMismatch,
    ),
    "assemble-non-conforming-surrogate": (
        assemble_block_system, (SpdSurrogate(np.eye(3), 0.0), _A, _M, _M, 1.0), DimensionMismatch,
    ),
    "modified_cholesky-non-square": (modified_cholesky, (np.ones((2, 3)),), DimensionMismatch),
    "modified_cholesky-1d-row": (modified_cholesky, (np.ones(2),), DimensionMismatch),
    "modified_cholesky-asymmetric": (modified_cholesky, ([[1, 2], [0, 1]],), ValueError),
    "modified_cholesky-nan": (modified_cholesky, ([[np.nan]],), NonFiniteEvaluation),
    "modified_cholesky-inf": (modified_cholesky, (np.diag([np.inf, 1.0]),), NonFiniteEvaluation),
    # the one-argument call keeps its checks at the dense workload's block size
    "modified_cholesky-asymmetric-150": (
        modified_cholesky, (np.eye(150) + np.eye(150, k=149),), ValueError,
    ),
    "modified_cholesky-nan-150": (
        modified_cholesky, (np.diag([1.0] * 149 + [np.nan]),), NonFiniteEvaluation,
    ),
    "spectral_bounds_sym-non-square": (spectral_bounds_sym, (np.ones((2, 3)),), DimensionMismatch),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_kernels_reject_at_the_boundary(case):
    kernel, args, error = REJECTED[case]
    with pytest.raises(error):
        kernel(*args)


@pytest.mark.parametrize("seed, n", _draws(60, (1, 8)))
def test_modified_cholesky_diagonal_shift_only(seed, n):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-3.0, 3.0, size=(n, n))
    H = 0.5 * (raw + raw.T)
    out = modified_cholesky(H)
    lo, _ = spectral_bounds_sym(out.matrix)
    assert lo >= -1e-10
    diff = out.matrix - H
    assert np.linalg.norm(diff, 2) == pytest.approx(out.shift, rel=1e-12, abs=1e-15)
    off_diag = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off_diag)) == 0.0


def test_assemble_returns_a_new_fortran_ordered_np_block():
    H1, H2, M1, M2, _ = _random_blocks(7, 3, 5)
    for t in (1.0, 0.5):
        out = assemble_block_system(H1, H2, M1, M2, t)
        assert out.flags.f_contiguous
        assert out.tobytes() == np.block([[H1, t * M1], [t * M2, H2]]).tobytes()
        assert not any(np.shares_memory(out, block) for block in (H1, H2, M1, M2))


@pytest.mark.parametrize("t", [1.0, 0.5, 2.0**-40, 100.0])
def test_assemble_has_the_bits_of_np_block(t):
    # the blocks are copied and the mixed ones scaled in place when t != 1;
    # M*t has the bits of t*M, signed zeros, subnormal and overflowing
    # products included
    H1, H2, M1, M2, _ = _random_blocks(11, 4, 6)
    M1[0, 0], M1[1, 2], M2[3, 1] = -0.0, 1e-300, 1e307
    M2[0, 0] = -M2[0, 0]
    with np.errstate(over="ignore"):
        expected = np.block([[H1, t * M1], [t * M2, H2]])
        out = assemble_block_system(H1, H2, M1, M2, t)
    assert out.shape == expected.shape and out.flags.f_contiguous
    assert (out.view(np.uint64) == expected.view(np.uint64)).all()


def test_assemble_counterexample_display():
    out = assemble_block_system(
        np.array([[1.0]]), np.array([[1.0]]), np.array([[2.0]]), np.array([[0.0]]), t=1.0
    )
    assert np.array_equal(out, np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_assemble_halving_scales_off_diagonals():
    rng = np.random.default_rng(3)
    H1 = np.eye(2)
    H2 = np.eye(3)
    M1 = rng.standard_normal((2, 3))
    M2 = rng.standard_normal((3, 2))
    full = assemble_block_system(H1, H2, M1, M2, t=1.0)
    half = assemble_block_system(H1, H2, M1, M2, t=0.5)
    assert np.array_equal(half[:2, 2:], 0.5 * full[:2, 2:])
    assert np.array_equal(half[2:, :2], 0.5 * full[2:, :2])
    assert np.array_equal(half[:2, :2], H1)
    assert np.array_equal(half[2:, 2:], H2)


def test_assemble_zero_mixed_blocks_is_block_diagonal():
    H1 = np.diag([2.0, 3.0])
    H2 = np.array([[4.0]])
    out = assemble_block_system(H1, H2, np.zeros((2, 1)), np.zeros((1, 2)), t=0.37)
    expected = np.zeros((3, 3))
    expected[:2, :2] = H1
    expected[2:, 2:] = H2
    assert np.array_equal(out, expected)


def test_assemble_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        assemble_block_system(np.eye(2), np.eye(2), np.zeros((2, 1)), np.zeros((2, 2)), 1.0)


def test_spectral_bounds_simple_cases():
    assert spectral_bounds_sym(np.eye(3)) == (1.0, 1.0)
    assert spectral_bounds_sym(np.diag([2.0, 3.0])) == (2.0, 3.0)
    lo, hi = spectral_bounds_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lo == pytest.approx(-1.0, rel=1e-12)
    assert hi == pytest.approx(1.0, rel=1e-12)


def _random_blocks(seed, n1, n2):
    rng = np.random.default_rng(seed)

    def spd(n):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.5, 5.0, size=n)
        m = (q * lam) @ q.T
        return 0.5 * (m + m.T)

    H1 = spd(n1)
    H2 = spd(n2)
    M1 = rng.uniform(-2.0, 2.0, size=(n1, n2))
    M2 = rng.uniform(-2.0, 2.0, size=(n2, n1))
    return H1, H2, M1, M2, rng


@pytest.mark.parametrize("seed, n1, n2", _draws(40, (1, 4), (1, 4)))
def test_block_matrix_norm_bounds(seed, n1, n2):
    # certified norm bounds of the assembled system: ||H_t|| stays below
    # sqrt(lmax^2 + 4 lmax C_H + C_H^2) for any t in (0,1], and for
    # t <= lmin^2/(8 lmax C_H) the matrix is nonsingular with
    # ||H_t^{-1}|| <= sqrt(2)/lmin
    H1, H2, M1, M2, rng = _random_blocks(seed, n1, n2)
    lam_lo = min(spectral_bounds_sym(H1)[0], spectral_bounds_sym(H2)[0])
    lam_hi = max(spectral_bounds_sym(H1)[1], spectral_bounds_sym(H2)[1])
    c_h = max(np.linalg.norm(M1, 2), np.linalg.norm(M2, 2))
    mu_max = np.sqrt(lam_hi**2 + 4 * lam_hi * c_h + c_h**2)

    for t in (1.0, 0.5, rng.uniform(0.01, 1.0)):
        full = assemble_block_system(H1, H2, M1, M2, t)
        assert np.linalg.norm(full, 2) <= mu_max * (1 + 1e-12)

    t_small = lam_lo**2 / (8.0 * lam_hi * c_h)
    t = min(t_small, 1.0)
    full = assemble_block_system(H1, H2, M1, M2, t)
    sigma_min = np.linalg.svd(full, compute_uv=False)[-1]
    assert sigma_min >= lam_lo / np.sqrt(2.0) * (1 - 1e-12)

    g1 = rng.standard_normal(n1)
    g2 = rng.standard_normal(n2)
    d = lu_solve(full, -np.concatenate([g1, g2]))
    c_k = np.sqrt(2.0) / lam_lo * (np.linalg.norm(g1) + np.linalg.norm(g2))
    assert np.linalg.norm(d) <= c_k * (1 + 1e-12)
