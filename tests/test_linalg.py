import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nepsolve.linalg as linalg_mod
from nepsolve import (
    DimensionMismatch,
    ShiftOverflow,
    SingularMatrixError,
    assemble_block_system,
    lu_solve,
    modified_cholesky,
    spectral_bounds_sym,
)


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
    # bits scipy.linalg.lu_factor/lu_solve give
    factors = []
    real = linalg_mod.lapack

    def dgetrf(a):
        out = real.dgetrf(a)
        factors.append(out)
        return out

    monkeypatch.setattr(
        linalg_mod, "lapack",
        types.SimpleNamespace(dgetrf=dgetrf, dgetrs=real.dgetrs, dpotrf=real.dpotrf),
    )
    rng = np.random.default_rng(n)
    for _ in range(5):
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        x = lu_solve(A, b)
        lu, piv = scipy.linalg.lu_factor(A)
        assert np.array_equal(factors[-1][0].view(np.uint64), lu.view(np.uint64))
        assert np.array_equal(factors[-1][1], piv)
        expected = scipy.linalg.lu_solve((lu, piv), b)
        assert np.array_equal(x.view(np.uint64), expected.view(np.uint64))


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
        "getattr(n.lapack, f) is getattr(s.lapack, f) for f in ('dgetrf', 'dgetrs', 'dpotrf')))"
    )
    assert same == "True"


@pytest.mark.parametrize("order", ["C", "F"])
def test_lu_leaves_arguments_unmodified(order):
    rng = np.random.default_rng(5)
    A = np.asarray(rng.standard_normal((40, 40)), order=order)
    b = rng.standard_normal(40)
    A0, b0 = A.copy(order="A"), b.copy()
    x = lu_solve(A, b)
    assert np.array_equal(A, A0) and A.flags[f"{order}_CONTIGUOUS"]
    assert np.array_equal(b, b0)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(A) * np.linalg.norm(x)


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


def test_lu_empty_system():
    assert lu_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


def test_lu_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lu_solve(np.eye(2), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        lu_solve(np.ones((2, 3)), np.array([1.0, 2.0]))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_lu_recovers_planted_solution(seed, n):
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    svals = np.geomspace(1.0, rng.uniform(1.0, 1e6), n)
    A = (q1 * svals) @ q2.T
    planted = rng.standard_normal(n)
    x = lu_solve(A, A @ planted)
    assert np.linalg.norm(x - planted) <= 1e-8 * max(1.0, np.linalg.norm(planted))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6), st.integers(1, 6))
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
    out = modified_cholesky(np.eye(3), floor=1e-8)
    assert out.shift == 0.0
    assert np.array_equal(out.matrix, np.eye(3))


def test_modified_cholesky_zero_matrix():
    # doubling search from the floor: the first candidate shift succeeds
    out = modified_cholesky(np.array([[0.0]]), floor=1e-8)
    assert out.shift == 1e-8
    assert out.matrix == pytest.approx(np.array([[1e-8]]), abs=0)


def test_modified_cholesky_positive_scalar():
    out = modified_cholesky(np.array([[2.0]]), floor=1e-8)
    assert out.shift == 0.0
    assert out.matrix == pytest.approx(np.array([[2.0]]), abs=0)


def test_modified_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError):
        modified_cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]), floor=1e-8)


def test_modified_cholesky_shift_overflow():
    with pytest.raises(ShiftOverflow):
        modified_cholesky(np.array([[-1e13]]), floor=1e-8)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_modified_cholesky_diagonal_shift_only(seed, n):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-3.0, 3.0, size=(n, n))
    H = 0.5 * (raw + raw.T)
    out = modified_cholesky(H, floor=1e-8)
    lo, _ = spectral_bounds_sym(out.matrix)
    assert lo >= -1e-10
    diff = out.matrix - H
    assert np.linalg.norm(diff, 2) == pytest.approx(out.shift, rel=1e-12, abs=1e-15)
    off_diag = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off_diag)) == 0.0


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


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4))
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
