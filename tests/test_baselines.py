import dataclasses

import numpy as np
import pytest

from nepsolve import (
    InnerSolveFailure,
    NepProblem,
    SingularMatrixError,
    SolveStatus,
    SolverConfig,
    evaluate_residual,
    exact_jacobi_step,
    get_problem,
    newton_kkt_step,
    random_quadratic_nep,
    solve_exact_jacobi,
    solve_newton_kkt,
)
from nepsolve.baselines import INNER_MAX_ITER, INNER_TOL, _inner_newton_root


def residual_at(problem, x1, x2):
    return evaluate_residual(problem, problem.at(x1, x2))


def jacobi_step_at(problem, x1, x2):
    x1, x2 = np.array(x1, dtype=float), np.array(x2, dtype=float)
    return exact_jacobi_step(problem, x1, x2, residual_at(problem, x1, x2))


def test_newton_step_example3_hits_stationary_point():
    # hand solve of [[2, 1], [-1, -3]] d = (14, -1): d = (8.2, -2.4)
    problem = get_problem("examp3")
    d1, d2 = newton_kkt_step(problem, residual_at(problem, [-5.0], [1.0]))
    assert -5.0 + d1[0] == pytest.approx(3.2, abs=1e-12)
    assert 1.0 + d2[0] == pytest.approx(-1.4, abs=1e-12)


def test_newton_solve_example3_one_iteration():
    report = solve_newton_kkt(get_problem("examp3"), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.final_x1 == pytest.approx([3.2], abs=1e-3)
    assert report.final_x2 == pytest.approx([-1.4], abs=1e-3)


def test_newton_solve_example5_diagonal_dynamics():
    # the difference of the two rows of the full system is [1, -1] while
    # g1 - g2 = x1 - x2, so each unit Newton step lands exactly on the
    # diagonal x1 = x2; from there the iteration contracts to the origin
    report = solve_newton_kkt(get_problem("examp5"), [-5.0], [1.0])
    first = report.trajectory[0]
    landing1 = first.x1 + first.d1
    landing2 = first.x2 + first.d2
    assert landing1[0] == pytest.approx(landing2[0], abs=1e-12)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations <= 10
    assert report.final_x1 == pytest.approx([0.0], abs=1e-6)
    assert report.final_x2 == pytest.approx([0.0], abs=1e-6)


def test_newton_step_zero_gradient():
    problem = get_problem("examp1")
    d1, d2 = newton_kkt_step(problem, residual_at(problem, [2.0], [1.0]))
    assert np.all(d1 == 0.0) and np.all(d2 == 0.0)


def test_newton_step_singular_system():
    problem = NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: 0.5 * x1[0] ** 2 + x1[0] * x2[0],
        f2=lambda x1, x2: 0.5 * x2[0] ** 2 + x1[0] * x2[0],
        grad1=lambda x1, x2: np.array([x1[0] + x2[0]]),
        grad2=lambda x1, x2: np.array([x2[0] + x1[0]]),
        hess11=lambda x1, x2: np.array([[1.0]]),
        hess22=lambda x1, x2: np.array([[1.0]]),
        hess12_f1=lambda x1, x2: np.array([[1.0]]),
        hess21_f2=lambda x1, x2: np.array([[1.0]]),
    )
    with pytest.raises(SingularMatrixError):
        newton_kkt_step(problem, residual_at(problem, [1.0], [0.0]))


def test_newton_one_step_on_random_quadratics():
    for seed in range(10):
        q = random_quadratic_nep(2, 3, seed=seed)
        report = solve_newton_kkt(
            q.to_problem(), np.zeros(2), np.zeros(3), SolverConfig(grad_tol=1e-10)
        )
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 1
        assert report.final_residual <= 1e-10


def test_jacobi_step_example1():
    # simultaneous per-player solves: x1 from 2x1 + 1 - 5 = 0, x2 from
    # 3x2 - (-5) - 1 = 0
    x1_new, x2_new = jacobi_step_at(get_problem("examp1"), [-5.0], [1.0])
    assert x1_new == pytest.approx([2.0], abs=1e-9)
    assert x2_new == pytest.approx([-4.0 / 3.0], abs=1e-9)


def test_jacobi_solve_example1_converges():
    # spectral radius of the update map is sqrt(1/6) < 1
    report = solve_exact_jacobi(get_problem("examp1"), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations <= 30
    assert report.final_x1 == pytest.approx([2.0], abs=1e-3)
    assert report.final_x2 == pytest.approx([1.0], abs=1e-3)


def test_jacobi_solve_example2_diverges():
    # spectral radius sqrt(6) > 1: residual norms eventually non-decreasing
    report = solve_exact_jacobi(get_problem("examp2"), [-5.0], [1.0])
    assert report.status is SolveStatus.DIVERGED
    problem = get_problem("examp2")
    norms = [
        residual_at(problem, rec.x1, rec.x2).norm for rec in report.trajectory
    ]
    tail = norms[2:]
    assert all(b >= a for a, b in zip(tail, tail[1:]))


def test_jacobi_example4_undefined():
    with pytest.raises(InnerSolveFailure):
        jacobi_step_at(get_problem("examp4"), [-5.0], [1.0])
    report = solve_exact_jacobi(get_problem("examp4"), [-5.0], [1.0])
    assert report.status is SolveStatus.UNDEFINED_STEP
    assert report.iterations == 0


def test_jacobi_diverges_on_quadratic_with_rho_above_one():
    # the Jacobi map of this game has spectral radius above 1; once |x| is
    # large the inner gradient sits at its round-off level above INNER_TOL,
    # and the run must still end as diverged rather than undefined
    problem = get_problem("quadratic:1:40x40")
    report = solve_exact_jacobi(problem, np.zeros(problem.n1), np.zeros(problem.n2))
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations > 10


def test_jacobi_example5_branch_from_current_coordinate():
    # the inner root find starts at the current coordinate, which selects
    # the nearer stationarity branch; from (-5, 1) that leads to the origin
    report = solve_exact_jacobi(get_problem("examp5"), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert abs(report.final_x1[0]) <= 1e-3
    assert abs(report.final_x2[0]) <= 1e-3


def test_jacobi_quadratic_single_inner_newton_is_exact():
    # per-player problems are quadratic, so one inner Newton step solves
    # the stationarity equation to high precision
    q = random_quadratic_nep(2, 2, seed=3)
    problem = q.to_problem()
    x1, x2 = np.array([0.7, -0.2]), np.array([1.1, 0.4])
    x1_new, x2_new = jacobi_step_at(problem, x1, x2)
    assert np.linalg.norm(problem.at(x1_new, x2).grad1) <= 1e-10
    assert np.linalg.norm(problem.at(x1, x2_new).grad2) <= 1e-10


def test_jacobi_inner_line_search_stalls_on_a_wrong_sign_hessian():
    # hess11 reports -2 where f1's curvature is 2: every inner Newton step
    # climbs the squared gradient norm, so the backtracking runs out
    problem = dataclasses.replace(get_problem("examp1"), hess11=lambda x1, x2: np.array([[-2.0]]))
    with pytest.raises(InnerSolveFailure, match="stalled"):
        jacobi_step_at(problem, [-5.0], [1.0])
    report = solve_exact_jacobi(problem, [-5.0], [1.0])
    assert report.status is SolveStatus.UNDEFINED_STEP
    assert report.iterations == 0


def _inner_root(grad, hess, z0):
    """The inner root find with the player's decision as its point, and the
    trial decisions it evaluates, in order."""
    seen = []

    def at(z):
        seen.append(z[0])
        return z

    z0 = np.array(z0)
    try:
        return _inner_newton_root(at, grad, hess, z0, z0, grad(z0)), seen
    except InnerSolveFailure as err:
        return err, seen


def test_jacobi_inner_trial_whose_square_overflows_is_judged_by_its_norm():
    # g = 1e200 at 0, so g.g overflows, and the Newton step is +1 (the
    # block's sign is wrong): every trial's gradient is larger, and its
    # square overflows too. Each is rejected, where inf <= inf would pass
    # the first, until the line search stalls
    err, seen = _inner_root(lambda z: 1e200 * (1.0 + z), lambda z: np.array([[-1e200]]), [0.0])
    assert "stalled" in str(err) and seen == [0.5**k for k in range(40)]


def test_jacobi_inner_line_search_ends_once_the_trial_is_the_iterate():
    # a constant gradient and a step of +1 from 2^40, whose ulp is 2^-12:
    # 2^40 + s rounds to 2^40 from s = 2^-13 on, so the search tries
    # s = 1, ..., 2^-12 and stops, where it used to halve s down to 1e-12
    # (40 trials) against the same gradient. The step is below sqrt(eps)
    # relative to 2^40, so the root find returns the iterate
    z, seen = _inner_root(lambda z: np.ones(1), lambda z: np.array([[-1.0]]), [2.0**40])
    assert z == [2.0**40] and seen == [2.0**40 + 0.5**k for k in range(13)]


def test_jacobi_inner_newton_runs_out_of_steps_on_a_flat_root():
    # grad f1 = (x1 - 1)^99: each inner Newton step covers 1/99 of the way
    # to the root, so from x1 = 4 the INNER_MAX_ITER steps leave
    # |x1 - 1| = 3 (98/99)^100, about 1.09, and the gradient far above INNER_TOL
    p = 99
    problem = NepProblem(
        n1=1, n2=1,
        f1=lambda x1, x2: (x1[0] - 1.0) ** (p + 1) / (p + 1),
        f2=lambda x1, x2: x2[0] ** 2,
        grad1=lambda x1, x2: (x1 - 1.0) ** p,
        grad2=lambda x1, x2: 2.0 * x2,
        hess11=lambda x1, x2: np.array([[p * (x1[0] - 1.0) ** (p - 1)]]),
        hess22=lambda x1, x2: np.array([[2.0]]),
        hess12_f1=lambda x1, x2: np.array([[0.0]]),
        hess21_f2=lambda x1, x2: np.array([[0.0]]),
    )
    with pytest.raises(InnerSolveFailure, match="did not converge"):
        jacobi_step_at(problem, [4.0], [0.0])
    report = solve_exact_jacobi(problem, [4.0], [0.0])
    assert report.status is SolveStatus.UNDEFINED_STEP
    assert report.iterations == 0


def test_jacobi_inner_newton_reaches_a_double_root_on_its_last_step():
    # grad f1 = x1^2: each inner Newton step halves x1 and quarters the
    # gradient, so from x1 = 2^100 sqrt(INNER_TOL / 2) the gradient first
    # falls to INNER_TOL / 2, below INNER_TOL, on the INNER_MAX_ITER-th step
    hess_calls = []

    def hess11(x1, x2):
        hess_calls.append(x1[0])
        return np.array([[2.0 * x1[0]]])

    problem = NepProblem(
        n1=1, n2=1,
        f1=lambda x1, x2: x1[0] ** 3 / 3.0,
        f2=lambda x1, x2: x2[0] ** 2,
        grad1=lambda x1, x2: x1 ** 2,
        grad2=lambda x1, x2: 2.0 * x2,
        hess11=hess11,
        hess22=lambda x1, x2: np.array([[2.0]]),
        hess12_f1=lambda x1, x2: np.array([[0.0]]),
        hess21_f2=lambda x1, x2: np.array([[0.0]]),
    )
    x1_new, x2_new = jacobi_step_at(problem, [2.0**100 * np.sqrt(INNER_TOL / 2)], [0.0])
    assert len(hess_calls) == INNER_MAX_ITER
    assert x1_new[0] ** 2 <= INNER_TOL < hess_calls[-1] ** 2
    assert x2_new == [0.0]
