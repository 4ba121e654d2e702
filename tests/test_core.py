import ast
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import nepsolve.baselines as baselines_mod
import nepsolve.core as core_mod
import nepsolve.solver as solver_mod
from nepsolve import (
    NepProblem,
    NonFiniteEvaluation,
    PointClass,
    PointKind,
    SolveStatus,
    classify_point,
    evaluate_residual,
    finite_diff_jacobian,
    get_problem,
    solve,
    solve_newton_kkt,
    spectral_bounds_sym,
)
from nepsolve.core import _Uniform


def residual_at(problem, x1, x2):
    return evaluate_residual(problem, problem.at(x1, x2))


def test_residual_example1_start():
    # hand differentiation: g1 = 2x1 + x2 - 5 = -14, g2 = 3x2 - x1 - 1 = 7
    res = residual_at(get_problem("examp1"), [-5.0], [1.0])
    assert res.g1 == pytest.approx([-14.0], abs=0)
    assert res.g2 == pytest.approx([7.0], abs=0)
    assert res.norm == pytest.approx(np.sqrt(245.0), rel=1e-15)


def test_residual_example1_solution():
    res = residual_at(get_problem("examp1"), [2.0], [1.0])
    assert res.norm == 0.0


def test_residual_example5_stationary_point():
    res = residual_at(get_problem("examp5"), [-1.0], [-1.0])
    assert res.g1 == pytest.approx([0.0], abs=0)
    assert res.g2 == pytest.approx([0.0], abs=0)


def test_residual_norm_matches_stacked_vector():
    problem = get_problem("examp2")
    rng = np.random.default_rng(7)
    for _ in range(20):
        x1, x2 = rng.uniform(-5, 5, size=(2, 1))
        res = residual_at(problem, x1, x2)
        assert res.norm == np.linalg.norm(np.concatenate([res.g1, res.g2]))


def _linalg_norm_calls_without_ord_2(source):
    """Lines of np.linalg.norm calls (any name ending in linalg.norm) whose
    ord, second argument or keyword, is not the literal 2, and of imports
    of norm from numpy.linalg."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            lines += [node.lineno for alias in node.names if alias.name == "norm"]
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "norm"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg"
        ):
            continue
        ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
        if not (len(ords) == 1 and isinstance(ords[0], ast.Constant) and ords[0].value == 2):
            lines.append(node.lineno)
    return sorted(lines)


def test_every_vector_norm_in_the_library_is_core_norm():
    # np.linalg.norm stays only as the matrix 2-norm norm(M, 2): a vector
    # norm spelled any other way would warn, or read inf, where core._norm
    # gives the finite norm of a vector whose squares overflow
    assert _linalg_norm_calls_without_ord_2("np.linalg.norm(M, 2)\nnumpy.linalg.norm(M, ord=2)") == []
    assert _linalg_norm_calls_without_ord_2(
        "np.linalg.norm(v)\nnp.linalg.norm(M, 'fro')\nnp.linalg.norm(v, ord=None)\n"
        "from numpy.linalg import norm"
    ) == [1, 2, 3, 4]
    found = {
        path.name: lines
        for path in sorted(pathlib.Path(core_mod.__file__).parent.glob("*.py"))
        if (lines := _linalg_norm_calls_without_ord_2(path.read_text()))
    }
    assert found == {}


def test_residual_is_pure():
    problem = get_problem("examp5")
    a = residual_at(problem, [0.3], [-0.7])
    b = residual_at(problem, [0.3], [-0.7])
    assert np.array_equal(a.g1, b.g1) and np.array_equal(a.g2, b.g2)
    assert a.norm == b.norm


def test_residual_rejects_bad_shapes():
    with pytest.raises(ValueError):
        residual_at(get_problem("examp1"), [1.0, 2.0], [1.0])


def test_residual_flags_non_finite_oracle():
    bad = NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: float("nan"),
        f2=lambda x1, x2: 0.0,
        grad1=lambda x1, x2: np.array([float("nan")]),
        grad2=lambda x1, x2: np.array([0.0]),
    )
    with pytest.raises(NonFiniteEvaluation):
        residual_at(bad, [0.0], [0.0])


def test_problem_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        NepProblem(n1=0, n2=1, f1=lambda a, b: 0.0, f2=lambda a, b: 0.0)
    # 2.0 used to solve and then fail in estimate_assumptions, 1.5 to fail
    # at the start point, and True to be taken as 1
    for bad in (2.0, 1.5, True, "2", None):
        with pytest.raises(ValueError, match="integer"):
            NepProblem(n1=bad, n2=1, f1=lambda a, b: 0.0, f2=lambda a, b: 0.0)
        with pytest.raises(ValueError, match="integer"):
            NepProblem(n1=1, n2=bad, f1=lambda a, b: 0.0, f2=lambda a, b: 0.0)
    problem = NepProblem(n1=np.int64(2), n2=np.int32(1), f1=lambda a, b: 0.0, f2=lambda a, b: 0.0)
    assert (type(problem.n1), type(problem.n2)) == (int, int)


#: seeds of one to four 32-bit words, the last of 100 bits
SAMPLER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**99 + 12345]

#: the draws of two estimate_assumptions samples on a game of n1 = 2,
#: n2 = 3, in its order, then facility-bench's starts for 7 and 0 runs
SAMPLER_CALLS = [
    {"size": 5}, {"size": 2}, {"size": 3}, {"low": 0.25, "high": 1.0},
    {"low": -1.0, "high": 1.0, "size": 2}, {"low": -1.0, "high": 1.0, "size": 3},
] * 2 + [{"low": -2.0, "high": 2.0, "size": (7, 4)}, {"low": -2.0, "high": 2.0, "size": (0, 4)}]


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
def test_uniform_draws_are_numpys_bit_for_bit(seed):
    ours, numpys = _Uniform(seed), np.random.default_rng(seed)
    for kwargs in SAMPLER_CALLS:
        a, b = ours.uniform(**kwargs), numpys.uniform(**kwargs)
        assert type(a) is type(b)
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_uniform_rejects_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        _Uniform(-1)


def test_fd_gradient_quadratic():
    # a scalar function gives one row, its gradient
    grad = finite_diff_jacobian(lambda x: x[0] ** 2, np.array([3.0]))
    assert grad.shape == (1, 1)
    assert grad[0, 0] == pytest.approx(6.0, abs=1e-6)


def test_fd_gradient_constant():
    grad = finite_diff_jacobian(lambda x: 4.2, np.array([1.0, -2.0, 0.5]))
    assert grad.shape == (1, 3)
    assert np.all(grad == 0.0)


def test_fd_gradient_facility_1d_matches_analytic():
    problem = get_problem("facility1d")
    x2 = np.array([0.915])
    fd = finite_diff_jacobian(lambda z: problem.f1(z, x2), np.array([2.0]))[0]
    analytic = problem.at(np.array([2.0]), x2).grad1
    assert fd == pytest.approx(analytic, rel=1e-5)


def test_fd_hessian_example1_own_block():
    problem = get_problem("examp1")
    x2 = np.array([1.0])
    block = finite_diff_jacobian(lambda z: problem.at(z, x2).grad1, np.array([-5.0]))
    assert block == pytest.approx(np.array([[2.0]]), abs=1e-6)


def test_fd_hessian_example4_null_blocks():
    problem = get_problem("examp4")
    x2 = np.array([1.0])
    block = finite_diff_jacobian(lambda z: problem.at(z, x2).grad1, np.array([-5.0]))
    assert block == pytest.approx(np.array([[0.0]]), abs=1e-9)


def test_fd_hessian_example1_mixed_blocks():
    problem = get_problem("examp1")
    x1 = np.array([-5.0])
    x2 = np.array([1.0])
    m1 = finite_diff_jacobian(lambda z: problem.at(x1, z).grad1, x2)
    m2 = finite_diff_jacobian(lambda z: problem.at(z, x2).grad2, x1)
    assert m1 == pytest.approx(np.array([[1.0]]), abs=1e-6)
    assert m2 == pytest.approx(np.array([[-1.0]]), abs=1e-6)


def test_fallback_oracles_cover_missing_derivatives():
    problem = NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: x1[0] ** 2 + x1[0] * x2[0] - 5 * x1[0],
        f2=lambda x1, x2: 1.5 * x2[0] ** 2 - x1[0] * x2[0] - x2[0],
    )
    point = problem.at(np.array([-5.0]), np.array([1.0]))
    assert point.grad1 == pytest.approx([-14.0], rel=1e-7)
    # differencing a differenced gradient stacks the rounding noise, so the
    # double-fallback blocks are only good to ~1e-3
    assert point.hess11 == pytest.approx(np.array([[2.0]]), rel=5e-3)
    assert point.mixed12 == pytest.approx(np.array([[1.0]]), rel=5e-3)
    assert point.mixed21 == pytest.approx(np.array([[-1.0]]), rel=5e-3)
    # each quantity of a point is the problem's own central difference, bit
    # for bit; only the own blocks are symmetrized
    x1, x2 = np.array([0.3, -1.2]), np.array([0.7])
    problem = NepProblem(
        n1=2,
        n2=1,
        f1=lambda x1, x2: x1[0] ** 3 * x1[1] + x1[1] ** 2 * x2[0] + np.sin(x1[0] * x2[0]),
        f2=lambda x1, x2: x2[0] ** 4 + x1[0] * x1[1] * x2[0],
    )
    point = problem.at(x1, x2)
    assert np.array_equal(point.grad1, problem.finite_difference("grad1", x1, x2))
    assert np.array_equal(point.grad2, problem.finite_difference("grad2", x1, x2))
    fd11 = problem.finite_difference("hess11", x1, x2)
    assert not np.array_equal(fd11, fd11.T)
    assert np.array_equal(point.hess11, 0.5 * (fd11 + fd11.T))
    fd22 = problem.finite_difference("hess22", x1, x2)
    assert np.array_equal(point.hess22, 0.5 * (fd22 + fd22.T))
    assert np.array_equal(point.mixed12, problem.finite_difference("hess12_f1", x1, x2))
    assert np.array_equal(point.mixed21, problem.finite_difference("hess21_f2", x1, x2))


def test_classify_example5_origin_is_equilibrium():
    cls = classify_point(residual_at(get_problem("examp5"), [0.0], [0.0]), tol=1e-4)
    assert cls.kind is PointKind.EQUILIBRIUM_CANDIDATE


def test_classify_example5_other_stationary_point():
    # both own-blocks have second derivative -1 at (-1, -1)
    cls = classify_point(residual_at(get_problem("examp5"), [-1.0], [-1.0]), tol=1e-4)
    assert cls.kind is PointKind.NON_EQUILIBRIUM_STATIONARY
    assert cls.min_eig_2 == pytest.approx(-1.0, abs=1e-12)


def test_classify_example3_stationary_point():
    cls = classify_point(residual_at(get_problem("examp3"), [3.2], [-1.4]), tol=1e-4)
    assert cls.kind is PointKind.NON_EQUILIBRIUM_STATIONARY
    assert cls.min_eig_2 == pytest.approx(-3.0, abs=1e-12)


def test_classify_far_point_is_non_stationary():
    cls = classify_point(residual_at(get_problem("examp1"), [-5.0], [1.0]), tol=1e-4)
    assert cls.kind is PointKind.NON_STATIONARY


def test_classify_strict_minimizer_any_tolerance():
    problem = get_problem("examp1")
    for tol in (1e-12, 1e-6, 1.0):
        cls = classify_point(residual_at(problem, [2.0], [1.0]), tol=tol)
        assert cls.kind is PointKind.EQUILIBRIUM_CANDIDATE


def test_classify_requires_positive_tolerance():
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            classify_point(residual_at(get_problem("examp1"), [2.0], [1.0]), tol=tol)


@pytest.mark.parametrize("block", ["hess11", "hess22"])
def test_classify_rejects_a_non_finite_hessian_block(block):
    problem = replace(get_problem("examp1"), **{block: lambda x1, x2: np.array([[np.inf]])})
    with pytest.raises(NonFiniteEvaluation, match="Hessian"):
        classify_point(residual_at(problem, [2.0], [1.0]), tol=1e-6)


def test_point_class_from_values():
    cls = PointClass(PointKind.EQUILIBRIUM_CANDIDATE, 0.25, -1.5)
    assert (cls.kind, cls.min_eig_1, cls.min_eig_2) == (PointKind.EQUILIBRIUM_CANDIDATE, 0.25, -1.5)
    assert repr(cls) == (
        f"PointClass(kind={PointKind.EQUILIBRIUM_CANDIDATE}, min_eig_1=0.25, min_eig_2=-1.5)"
    )


def test_classify_point_is_the_name_the_solver_loops_call():
    # the benchmark's tracer times the classification through these globals
    assert solver_mod.classify_point is classify_point
    assert baselines_mod.classify_point is classify_point


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    return calls


@pytest.mark.parametrize("point", [(0.0, 0.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (-0.5, -1.0)])
def test_min_eigs_are_spectral_bounds_read_once(eigvalsh_calls, point):
    # example 5's own blocks at these points: (1, 1), (-1, -1), (3, -1),
    # (-1, 3) and (0, 0.5); the Cholesky test settles the positive ones, and
    # eigvalsh decides -1 and 0
    problem = get_problem("examp5")
    res = residual_at(problem, [point[0]], [point[1]])
    cls = classify_point(res, tol=10.0)
    decided = len(eigvalsh_calls)
    blocks = (res.point.hess11, res.point.hess22)
    expected = [spectral_bounds_sym(h)[0].hex() for h in blocks]
    del eigvalsh_calls[:]
    got = [cls.min_eig_1.hex(), cls.min_eig_2.hex(), cls.min_eig_1.hex(), cls.min_eig_2.hex()]
    assert got == expected * 2
    # each block meets the eigensolver once: deciding the kind or on first read
    assert decided + len(eigvalsh_calls) <= 2


@pytest.mark.parametrize("run", [solve, solve_newton_kkt])
def test_dense_run_calls_no_eigvalsh_until_min_eig_read(eigvalsh_calls, run):
    problem = get_problem("quadratic:3:150x150")
    report = run(problem, np.zeros(problem.n1), np.zeros(problem.n2))
    assert report.status is SolveStatus.CONVERGED
    assert report.classification.kind is PointKind.EQUILIBRIUM_CANDIDATE
    assert eigvalsh_calls == []
    report.classification.min_eig_1
    report.classification.min_eig_2
    report.classification.min_eig_1
    assert eigvalsh_calls == [(150, 150), (150, 150)]
