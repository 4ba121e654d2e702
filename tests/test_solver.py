import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from nepsolve import (
    LineSearchCertificate,
    NepProblem,
    PointKind,
    QuadraticNep,
    SolveStatus,
    SolverConfig,
    check_inequalities,
    classify_point,
    compute_direction,
    evaluate_residual,
    get_problem,
    modified_cholesky,
    random_quadratic_nep,
    safeguard_mixed_blocks,
    solve,
    solve_exact_jacobi,
    solve_newton_kkt,
)
import nepsolve.solver as solver_mod
import nepsolve.suite as suite_mod
from nepsolve.baselines import newton_kkt_step
from nepsolve.linalg import (
    CHOL_PIVOT_SAFETY,
    PSD_FLOOR,
    SpdSurrogate,
    _chol_succeeds,
    assemble_block_system,
)
from nepsolve.solver import _exact_surrogate, build_surrogates


def residual_at(problem, x1, x2):
    return evaluate_residual(problem, problem.at(x1, x2))


def gradient_norms(g1, g2):
    return float(np.linalg.norm(g1)), float(np.linalg.norm(g2))


def direction_at(res, H1, H2, t, config):
    """compute_direction at the iterate of res, as the descent step calls it."""
    point, rhs = res.point, -np.concatenate([res.g1, res.g2])
    g_norms = gradient_norms(res.g1, res.g2)
    return compute_direction(H1, H2, point.mixed12, point.mixed21, g_norms, rhs, t, config)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=1.5)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=-1.0)
    for name in ("theta", "gamma", "grad_tol"):
        with pytest.raises(ValueError):
            SolverConfig(**{name: np.nan})
    # max_iter is an integer: NaN, inf or 2.5 would be a cap no run meets,
    # and True is no count
    for bad in (np.nan, np.inf, 2.5, True, 0, -1):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=bad)
    capped = SolverConfig(max_iter=np.int64(5))
    assert capped.max_iter == 5 and type(capped.max_iter) is int
    # user Hessians come in pairs
    for one in ({"user_h1": np.eye(1)}, {"user_h2": np.eye(1)}):
        with pytest.raises(ValueError):
            SolverConfig(**one)
    # and must be finite, square, symmetric 2-D arrays
    for bad in ([[np.nan]], [[1.0, 0.0]], [1.0], [[1.0, 2.0], [0.0, 1.0]], np.ones((1, 1, 1))):
        with pytest.raises(ValueError):
            SolverConfig(user_h1=bad, user_h2=np.eye(1))
        with pytest.raises(ValueError):
            SolverConfig(user_h1=np.eye(1), user_h2=bad)
    # and match the problem's player dimensions
    wrong_shape = SolverConfig(user_h1=np.eye(2), user_h2=[[1.0]])
    with pytest.raises(ValueError):
        solve(get_problem("examp1"), [-5.0], [1.0], wrong_shape)


def test_safeguard_keeps_blocks_for_active_players():
    cfg = SolverConfig()
    m1 = np.array([[1.0]])
    m2 = np.array([[-1.0]])
    M1, M2 = safeguard_mixed_blocks(14.0, 7.0, 1.0, cfg, m1, m2)
    assert np.array_equal(M1, m1) and np.array_equal(M2, m2)


def test_safeguard_zeroes_stationary_player_when_t_small():
    cfg = SolverConfig()
    m1 = np.array([[1.0]])
    m2 = np.array([[-1.0]])
    M1, M2 = safeguard_mixed_blocks(3.0, 0.0, 0.5, cfg, m1, m2)
    assert np.array_equal(M1, m1)
    assert np.array_equal(M2, np.zeros((1, 1)))


def test_safeguard_keeps_block_for_large_t():
    cfg = SolverConfig()
    m2 = np.array([[-1.0]])
    _, M2 = safeguard_mixed_blocks(3.0, 0.0, 1.0, cfg, np.array([[1.0]]), m2)
    assert np.array_equal(M2, m2)


@pytest.mark.parametrize("t", [0.0, -0.5])
def test_safeguard_rejects_a_non_positive_step_length(t):
    with pytest.raises(ValueError, match="t must be positive"):
        safeguard_mixed_blocks(3.0, 0.0, t, SolverConfig(), np.ones((1, 1)), np.ones((1, 1)))


def test_direction_counterexample(counterexample_problem):
    problem = counterexample_problem
    x1, x2 = np.array([0.0]), np.array([0.0])
    res = residual_at(problem, x1, x2)
    H1 = modified_cholesky(np.array([[1.0]]))
    H2 = modified_cholesky(np.array([[1.0]]))
    d1, d2 = direction_at(res, H1, H2, 1.0, SolverConfig())
    assert d1 == pytest.approx([3.0], abs=1e-14)
    assert d2 == pytest.approx([-2.0], abs=1e-14)


def test_direction_example1_lands_on_solution():
    # hand solve of [[2, 1], [-1, 3]] d = (14, -7): d = (7, 0)
    problem = get_problem("examp1")
    x1, x2 = np.array([-5.0]), np.array([1.0])
    res = residual_at(problem, x1, x2)
    H1 = modified_cholesky(np.array([[2.0]]))
    H2 = modified_cholesky(np.array([[3.0]]))
    d1, d2 = direction_at(res, H1, H2, 1.0, SolverConfig())
    assert d1 == pytest.approx([7.0], abs=1e-13)
    assert d2 == pytest.approx([0.0], abs=1e-13)
    assert x1 + d1 == pytest.approx([2.0], abs=1e-12)


def test_direction_zero_gradient_gives_zero():
    problem = get_problem("examp1")
    x1, x2 = np.array([2.0]), np.array([1.0])
    res = residual_at(problem, x1, x2)
    H1, H2 = build_surrogates(res.point, SolverConfig())
    d1, d2 = direction_at(res, H1, H2, 1.0, SolverConfig())
    assert np.all(d1 == 0.0) and np.all(d2 == 0.0)


def test_direction_solves_assembled_system():
    problem = get_problem("examp5")
    cfg = SolverConfig()
    x1, x2 = np.array([-5.0]), np.array([1.0])
    res = residual_at(problem, x1, x2)
    H1, H2 = build_surrogates(res.point, cfg)
    for t in (1.0, 0.5, 0.25):
        d1, d2 = direction_at(res, H1, H2, t, cfg)
        lhs1 = H1.matrix @ d1 + t * res.point.mixed12 @ d2
        lhs2 = t * res.point.mixed21 @ d1 + H2.matrix @ d2
        resid = np.linalg.norm(np.concatenate([lhs1 + res.g1, lhs2 + res.g2]))
        assert resid <= 1e-8 * max(1.0, res.norm)


def test_inequalities_reject_counterexample_direction(counterexample_problem):
    problem = counterexample_problem
    x1, x2 = np.array([0.0]), np.array([0.0])
    res = residual_at(problem, x1, x2)
    H1 = modified_cholesky(np.array([[1.0]]))
    H2 = modified_cholesky(np.array([[1.0]]))
    d1, d2 = direction_at(res, H1, H2, 1.0, SolverConfig())
    checks = check_inequalities(
        problem, x1, x2, gradient_norms(res.g1, res.g2), d1, d2, 1.0, SolverConfig()
    )
    # the predicted-gradient slope for player 1 is positive: angle check fails
    assert checks[1] is False or checks[1] == False  # noqa: E712
    assert not all(checks)


def test_inequalities_accept_example1_full_step():
    problem = get_problem("examp1")
    x1, x2 = np.array([-5.0]), np.array([1.0])
    res = residual_at(problem, x1, x2)
    H1 = modified_cholesky(np.array([[2.0]]))
    H2 = modified_cholesky(np.array([[3.0]]))
    d1, d2 = direction_at(res, H1, H2, 1.0, SolverConfig())
    checks = check_inequalities(
        problem, x1, x2, gradient_norms(res.g1, res.g2), d1, d2, 1.0, SolverConfig()
    )
    assert all(checks)


def test_inequalities_zero_direction_at_stationary_point():
    # d = 0 only ever comes out of the homogeneous system, i.e. g = 0;
    # there every inequality degenerates to 0 <= 0
    problem = get_problem("examp5")
    x1, x2 = np.array([0.0]), np.array([0.0])
    res = residual_at(problem, x1, x2)
    d = np.zeros(1)
    for t in (1.0, 0.5, 0.125):
        checks = check_inequalities(
            problem, x1, x2, gradient_norms(res.g1, res.g2), d, d, t, SolverConfig()
        )
        assert all(checks)


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------


def test_solve_example1():
    report = solve(get_problem("examp1"), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.trajectory[0].certificate.backtracks == 0
    assert report.final_x1 == pytest.approx([2.0], abs=1e-12)
    assert report.final_x2 == pytest.approx([1.0], abs=1e-12)


def test_solve_example2():
    report = solve(get_problem("examp2"), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.final_x1 == pytest.approx([4.0 / 7.0], abs=1e-10)
    assert report.final_x2 == pytest.approx([33.0 / 7.0], abs=1e-10)


def test_solve_example3_diverges():
    report = solve(get_problem("examp3"), [-5.0], [1.0])
    assert report.status is SolveStatus.DIVERGED
    assert report.final_residual == np.inf
    assert report.classification is None


def test_solve_example4():
    report = solve(get_problem("examp4"), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.final_x1 == pytest.approx([0.7], abs=1e-3)
    assert report.final_x2 == pytest.approx([0.6], abs=1e-3)


def test_solve_example5():
    report = solve(get_problem("examp5"), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert 5 <= report.iterations <= 13
    assert report.final_residual <= 1e-4
    assert np.abs(report.final_x1[0]) <= 1e-3 and np.abs(report.final_x2[0]) <= 1e-3
    assert min(rec.t for rec in report.trajectory) >= 0.5


def test_solve_starting_at_solution_takes_zero_iterations():
    report = solve(get_problem("examp1"), [2.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    assert report.trajectory == ()


def test_solve_rejects_bad_start_shape():
    with pytest.raises(ValueError):
        solve(get_problem("examp1"), [1.0, 2.0], [1.0])


@pytest.mark.parametrize("run", [solve, solve_newton_kkt, solve_exact_jacobi])
@pytest.mark.parametrize("x0", [([np.nan], [1.0]), ([1.0], [np.inf]), ([-np.inf], [np.nan])])
def test_every_solver_rejects_a_non_finite_start(run, x0):
    with pytest.raises(ValueError, match="non-finite"):
        run(get_problem("examp1"), *x0)


def _exp_game(exp):
    """f1 = exp(x1) - x1*x2, f2 = (x2 - 1)^2 / 2, with analytic derivatives."""
    return NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: exp(x1[0]) - x1[0] * x2[0],
        f2=lambda x1, x2: 0.5 * (x2[0] - 1.0) ** 2,
        grad1=lambda x1, x2: np.array([exp(x1[0]) - x2[0]]),
        grad2=lambda x1, x2: np.array([x2[0] - 1.0]),
        hess11=lambda x1, x2: np.array([[exp(x1[0])]]),
        hess22=lambda x1, x2: np.array([[1.0]]),
        hess12_f1=lambda x1, x2: np.array([[-1.0]]),
        hess21_f2=lambda x1, x2: np.array([[0.0]]),
    )


@pytest.mark.parametrize(
    "run, x0, status, iterations",
    [
        (solve, (-30.0, 1.0), SolveStatus.CONVERGED, 6),
        (solve_newton_kkt, (-30.0, 1.0), SolveStatus.UNDEFINED_STEP, 0),
        (solve_exact_jacobi, (-30.0, 1.0), SolveStatus.CONVERGED, 1),
        (solve, (800.0, 0.0), SolveStatus.DIVERGED, 0),
        (solve_newton_kkt, (800.0, 0.0), SolveStatus.DIVERGED, 0),
        (solve_exact_jacobi, (800.0, 0.0), SolveStatus.DIVERGED, 0),
    ],
)
def test_an_oracle_arithmetic_error_is_a_non_finite_evaluation(run, x0, status, iterations):
    # where np.exp overflows to inf, math.exp raises OverflowError: from
    # (-30, 1) at line-search trials near x1 = e^30, from (800, 0) at the
    # start. np.exp's own overflow warnings are ignored; the math.exp runs
    # warn nowhere, though exact-jacobi squares a finite trial gradient of
    # order e^700 before it rejects the trial
    with np.errstate(over="ignore"):
        expected = run(_exp_game(np.exp), [x0[0]], [x0[1]])
    report = run(_exp_game(math.exp), [x0[0]], [x0[1]])
    assert (expected.status, expected.iterations) == (status, iterations)
    assert (report.status, report.iterations) == (status, iterations)


def test_solve_is_deterministic():
    a = solve(get_problem("examp5"), [-5.0], [1.0])
    b = solve(get_problem("examp5"), [-5.0], [1.0])
    assert a.iterations == b.iterations
    for ra, rb in zip(a.trajectory, b.trajectory):
        assert np.array_equal(ra.x1, rb.x1) and np.array_equal(ra.x2, rb.x2)
        assert ra.t == rb.t
        assert np.array_equal(ra.d1, rb.d1) and np.array_equal(ra.d2, rb.d2)


def test_trajectory_update_identity():
    report = solve(get_problem("examp5"), [-5.0], [1.0])
    traj = report.trajectory
    for prev, nxt in zip(traj, traj[1:]):
        assert np.array_equal(nxt.x1, prev.x1 + prev.t * prev.d1)
        assert np.array_equal(nxt.x2, prev.x2 + prev.t * prev.d2)
    last = traj[-1]
    assert np.array_equal(report.final_x1, last.x1 + last.t * last.d1)


def test_certificates_recheck_from_records():
    report = solve(get_problem("examp5"), [-5.0], [1.0])
    cfg = report.config
    for rec in report.trajectory:
        checks = check_inequalities(
            report.problem, rec.x1, rec.x2, gradient_norms(rec.g1, rec.g2), rec.d1, rec.d2,
            rec.t, cfg,
        )
        assert all(checks) and rec.certificate.accepted
        assert checks == rec.certificate.checks


def test_monotone_predicted_descent():
    problem = get_problem("examp5")
    report = solve(problem, [-5.0], [1.0])
    for rec in report.trajectory:
        y1 = rec.x1 + rec.t * rec.d1
        y2 = rec.x2 + rec.t * rec.d2
        trial = problem.at(y1, y2)
        assert trial.value1 <= problem.at(rec.x1, y2).value1
        assert trial.value2 <= problem.at(y1, rec.x2).value2


def test_gradient_bounded_by_block_norm_times_direction():
    # stacked gradient equals -H_t d at every accepted iterate, so its norm
    # is bounded by the measured block-matrix norm times ||d||
    for problem, x0 in ((get_problem("examp5"), (-5.0, 1.0)), (get_problem("examp1"), (-5.0, 1.0))):
        report = solve(problem, [x0[0]], [x0[1]])
        cfg = report.config
        for rec in report.trajectory:
            point = problem.at(rec.x1, rec.x2)
            H1, H2 = build_surrogates(point, cfg)
            g1n, g2n = np.linalg.norm(rec.g1), np.linalg.norm(rec.g2)
            M1, M2 = safeguard_mixed_blocks(g1n, g2n, rec.t, cfg, point.mixed12, point.mixed21)
            Ht = assemble_block_system(H1, H2, M1, M2, rec.t)
            g = np.concatenate([rec.g1, rec.g2])
            d = np.concatenate([rec.d1, rec.d2])
            mu = np.linalg.norm(Ht, 2)
            assert np.linalg.norm(g) <= mu * np.linalg.norm(d) * (1 + 1e-9) + 1e-12


def test_safeguard_forces_zero_direction_for_stationary_player():
    # player 2 starts stationary; a near-one Armijo constant rejects every
    # full Newton step, and once t <= tau the safeguard pins d2 to zero
    problem = NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: 0.5 * (x1[0] - 1.0) ** 2 + x1[0] * x2[0],
        f2=lambda x1, x2: 0.5 * x2[0] ** 2 - x1[0] * x2[0],
        grad1=lambda x1, x2: np.array([x1[0] - 1.0 + x2[0]]),
        grad2=lambda x1, x2: np.array([x2[0] - x1[0]]),
        hess11=lambda x1, x2: np.array([[1.0]]),
        hess22=lambda x1, x2: np.array([[1.0]]),
        hess12_f1=lambda x1, x2: np.array([[1.0]]),
        hess21_f2=lambda x1, x2: np.array([[-1.0]]),
        name="stationary-player-2",
    )
    x1, x2 = np.array([3.0]), np.array([3.0])  # g2 = 0, g1 = 5
    report = solve(problem, x1, x2, SolverConfig(alpha=0.99, max_iter=1))
    rec = report.trajectory[0]
    assert np.linalg.norm(rec.g2) == 0.0
    assert rec.t <= report.config.tau
    assert np.all(rec.d2 == 0.0)
    assert rec.certificate.backtracks >= 1


def test_quadratic_one_step_with_exact_hessians():
    q = random_quadratic_nep(3, 2, seed=5)
    cfg = SolverConfig(user_h1=q.A1, user_h2=q.A2)
    report = solve(q.to_problem(), np.zeros(3), np.zeros(2), cfg)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.trajectory[0].t == 1.0
    assert report.trajectory[0].certificate.backtracks == 0
    assert report.final_residual <= 1e-8


def test_identity_strategy_runs():
    # identity surrogates are user-supplied identity blocks: modified_cholesky
    # returns I unchanged, with shift 0
    cfg = SolverConfig(user_h1=np.eye(1), user_h2=np.eye(1), max_iter=5000)
    for H in build_surrogates(get_problem("examp1").at([-5.0], [1.0]), cfg):
        assert np.array_equal(H.matrix, np.eye(1)) and H.shift == 0.0
    report = solve(get_problem("examp1"), [-5.0], [1.0], cfg)
    assert report.status is SolveStatus.CONVERGED
    assert report.final_x1 == pytest.approx([2.0], abs=1e-3)


def test_overflowing_user_hessian_shift_is_undefined_step():
    # the doubling shift cannot make -1e13 positive below its 1e12 cap
    cfg = SolverConfig(user_h1=[[-1e13]], user_h2=[[1.0]])
    report = solve(get_problem("examp1"), [-5.0], [1.0], cfg)
    assert report.status is SolveStatus.UNDEFINED_STEP
    assert report.iterations == 0


def test_line_search_failure_status():
    # theta > 1 makes the angle inequality unsatisfiable for any nonzero
    # direction, so every trial step is rejected down to T_MIN
    report = solve(get_problem("examp1"), [-5.0], [1.0], SolverConfig(theta=2.0))
    assert report.status is SolveStatus.LINE_SEARCH_FAILURE
    assert report.trajectory == ()


def test_non_finite_hessian_diverges_under_every_solver():
    # finite gradients everywhere, but player 1's Hessian block is NaN for
    # |x1| > 0.5: every solver meets it at the start point, and a non-finite
    # evaluation is divergence whichever kernel finds it (exact-jacobi's
    # inner solve hands the block to lu_solve unchecked)
    problem = NepProblem(
        n1=1, n2=1,
        f1=lambda x1, x2: float(x1[0] ** 2 + x1[0] * x2[0]),
        f2=lambda x1, x2: float(x2[0] ** 2 - x1[0] * x2[0]),
        grad1=lambda x1, x2: 2.0 * x1 + x2,
        grad2=lambda x1, x2: 2.0 * x2 - x1,
        hess11=lambda x1, x2: np.array([[np.nan if abs(x1[0]) > 0.5 else 2.0]]),
        hess22=lambda x1, x2: np.array([[2.0]]),
        hess12_f1=lambda x1, x2: np.array([[1.0]]),
        hess21_f2=lambda x1, x2: np.array([[-1.0]]),
    )
    for run in (solve, solve_newton_kkt, solve_exact_jacobi):
        report = run(problem, [1.0], [1.0])
        assert report.status is SolveStatus.DIVERGED, run.__name__
        assert report.iterations == 0

    # a NaN mixed block: the two solvers that read it diverge at the start
    # point, and exact-jacobi, which reads no mixed block, converges
    problem = dataclasses.replace(
        get_problem("examp1"), hess12_f1=lambda x1, x2: np.array([[np.nan]])
    )
    for run in (solve, solve_newton_kkt):
        report = run(problem, [1.0], [1.0])
        assert report.status is SolveStatus.DIVERGED, run.__name__
        assert report.iterations == 0
    assert solve_exact_jacobi(problem, [1.0], [1.0]).status is SolveStatus.CONVERGED


def test_singular_system_at_unit_step_halves_t():
    # A = B = [[1]] for both players: the full matrix [[1, 1], [1, 1]] is
    # singular, so newton-kkt is undefined, and the descent system
    # [[1, t], [t, 1]] is singular at t = 1 only; every accepted step is
    # t = 0.5, reached by one singular halving and no backtrack
    one = np.array([[1.0]])
    problem = QuadraticNep(A1=one, A2=one, B1=one, B2=one, c1=np.ones(1), c2=np.ones(1)).to_problem()
    report = solve(problem, [3.0], [0.5])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 10
    certificates = {record.certificate for record in report.trajectory}
    assert certificates == {LineSearchCertificate(0.5, (True,) * 6, 0, 1)}
    assert solve_newton_kkt(problem, [3.0], [0.5]).status is SolveStatus.UNDEFINED_STEP


def test_non_finite_trials_are_rejected():
    # f1 is NaN off the origin, and every trial from there moves both
    # players: each is rejected as non-finite down to T_MIN, and the run
    # ends diverged
    example = get_problem("examp1")
    problem = dataclasses.replace(
        example,
        f1=lambda x1, x2: example.f1(x1, x2) if x1[0] == x2[0] == 0.0 else np.nan,
    )
    report = solve(problem, [0.0], [0.0])
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == 0

    # f2 is NaN where x1 > 0 and x2 > 3: from (-5, 4) the unit step's
    # (y1, x2) = (2, 4) lies there, so t = 1 is rejected and t = 0.5
    # accepted; from there the unit step lands on the equilibrium (2, 1)
    problem = dataclasses.replace(
        example,
        f2=lambda x1, x2: np.nan if x1[0] > 0 and x2[0] > 3 else example.f2(x1, x2),
    )
    report = solve(problem, [-5.0], [4.0])
    assert report.status is SolveStatus.CONVERGED
    assert [record.certificate.backtracks for record in report.trajectory] == [1, 0]
    assert [record.t for record in report.trajectory] == [0.5, 1.0]

    # f1 is NaN everywhere but (1, 1): every trial that moves x1 is
    # rejected, until t = 2^-53 rounds the step away and the trial is
    # (1, 1) itself, where the six inequalities hold without progress.
    # Such a trial ends the line search, so the run ends diverged at once
    # instead of accepting that step 1,000 times
    problem = dataclasses.replace(
        example,
        f1=lambda x1, x2: example.f1(x1, x2) if x1[0] == x2[0] == 1.0 else np.nan,
    )
    report = solve(problem, [1.0], [1.0])
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == 0


def _count_gradient_calls(problem):
    """The same problem with its two gradient oracles counted."""
    calls = {"grad1": 0, "grad2": 0}

    def counted(name):
        oracle = getattr(problem, name)

        def wrapper(x1, x2):
            calls[name] += 1
            return oracle(x1, x2)

        return wrapper

    return dataclasses.replace(problem, grad1=counted("grad1"), grad2=counted("grad2")), calls


def test_residual_evaluated_once_per_iterate():
    # newton-kkt needs the gradients only for the residual, which the run
    # loop evaluates once per iterate and hands to the step and to the
    # final classification
    problem, calls = _count_gradient_calls(get_problem("examp5"))
    report = solve_newton_kkt(problem, [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert calls == {"grad1": report.iterations + 1, "grad2": report.iterations + 1}

    # one descent step: residual at x0, the predicted gradients of the
    # accepted trial, residual at x1 (reused by the classification)
    problem, calls = _count_gradient_calls(get_problem("examp1"))
    report = solve(problem, [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED and report.iterations == 1
    assert calls == {"grad1": 3, "grad2": 3}


#: the per-oracle callables of a problem, which a fused point oracle replaces
PER_ORACLE_FIELDS = ("f1", "f2", "grad1", "grad2", "hess11", "hess22", "hess12_f1", "hess21_f2")


def _count_point_evaluations(problem):
    """The problem with its point oracle counted and every per-oracle
    callable made to fail, plus the list of evaluated points."""
    points = []

    def point(x1, x2):
        points.append((x1, x2))
        return problem.point(x1, x2)

    def forbidden(*args):
        raise AssertionError("a per-oracle callable was called")

    fields = dict.fromkeys(PER_ORACLE_FIELDS, forbidden)
    return dataclasses.replace(problem, point=point, **fields), points


def test_descent_newton_evaluates_each_point_once(monkeypatch):
    # per iterate one point (residual, surrogates, mixed blocks and the final
    # classification), per trial three: (x1, y2), (y1, x2) and (y1, y2)
    problem, points = _count_point_evaluations(get_problem("facility2d"))
    trials = []
    compute_direction_ = solver_mod.compute_direction

    def counted(*args, **kwargs):
        trials.append(args[6])  # the trial's t
        return compute_direction_(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "compute_direction", counted)
    report = solve(problem, [2.0, 3.0], [-3.0, 2.0])
    assert report.status is SolveStatus.CONVERGED
    assert len(trials) > report.iterations  # some trial was rejected
    assert len(points) == report.iterations + 1 + 3 * len(trials)


def test_line_search_trials_share_the_iterates_halves(monkeypatch):
    # a facility point is built from one half per player (x - z and its
    # squared lengths); a trial computes only the halves of y1 and y2, and
    # the next iterate, the accepted trial point, computes none
    computed = []
    half = suite_mod._Half
    monkeypatch.setattr(suite_mod, "_Half", lambda *args: computed.append(1) or half(*args))
    problem, points = _count_point_evaluations(get_problem("facility2d"))
    oracle = problem.point
    in_trial = [False]
    iterate_halves, trial_halves = [], []

    def point(x1, x2):
        before = len(computed)
        evaluation = oracle(x1, x2)
        if not in_trial[0]:
            iterate_halves.append(len(computed) - before)
        return evaluation

    check_inequalities_ = solver_mod.check_inequalities

    def counted(*args, **kwargs):
        before = len(computed)
        in_trial[0] = True
        try:
            return check_inequalities_(*args, **kwargs)
        finally:
            in_trial[0] = False
            trial_halves.append(len(computed) - before)

    monkeypatch.setattr(solver_mod, "check_inequalities", counted)
    report = solve(dataclasses.replace(problem, point=point), [2.0, 3.0], [-3.0, 2.0])
    assert report.status is SolveStatus.CONVERGED
    assert len(trial_halves) > report.iterations  # some trial was rejected
    assert trial_halves == [2] * len(trial_halves)
    assert iterate_halves == [2] + [0] * report.iterations
    assert len(points) == report.iterations + 1 + 3 * len(trial_halves)


def test_newton_kkt_evaluates_each_iterate_once(monkeypatch):
    problem, points = _count_point_evaluations(get_problem("facility2d"))
    residuals = []
    evaluate_residual_ = solver_mod.evaluate_residual

    def counted(*args, **kwargs):
        residuals.append(args[1])
        return evaluate_residual_(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "evaluate_residual", counted)
    # from the paper start newton-kkt leaves the escape radius; from this
    # start it converges, so the final classification reads the last point
    report = solve_newton_kkt(problem, [0.5, 0.5], [-0.5, -0.5])
    assert report.status is SolveStatus.CONVERGED
    assert len(points) == len(residuals) == report.iterations + 1


def test_exact_jacobi_evaluates_no_point_twice():
    # both per-player solves start from the iterate's residual and point,
    # and an accepted inner trial point is the next inner iterate
    problem, points = _count_point_evaluations(get_problem("facility2d"))
    # a start from which exact-jacobi converges inside the escape radius
    report = solve_exact_jacobi(problem, [0.5, 0.5], [-0.5, -0.5])
    assert report.status is SolveStatus.CONVERGED
    keys = [(x1.tobytes(), x2.tobytes()) for x1, x2 in points]
    assert len(set(keys)) == len(keys) > 2 * (report.iterations + 1)

    # without a point oracle, no gradient is computed twice at one point
    problem = get_problem("quadratic:0:5x5")
    calls = []

    def counted(name):
        oracle = getattr(problem, name)

        def wrapper(x1, x2):
            calls.append((name, x1.tobytes(), x2.tobytes()))
            return oracle(x1, x2)

        return wrapper

    problem = dataclasses.replace(problem, grad1=counted("grad1"), grad2=counted("grad2"))
    report = solve_exact_jacobi(problem, np.zeros(5), np.zeros(5))
    assert report.status is SolveStatus.CONVERGED
    assert len(set(calls)) == len(calls) > 2 * (report.iterations + 1)


def test_problem_without_point_oracle_solves_as_before():
    # examp5 has per-oracle callables only, so its points read them one at a
    # time; the report is the one recorded before the point oracle existed
    problem = get_problem("examp5")
    assert problem.point is None
    report = solve(problem, [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.classification.kind is PointKind.EQUILIBRIUM_CANDIDATE
    assert [rec.certificate.backtracks for rec in report.trajectory] == [1, 1, 0, 0, 1, 0, 0, 0]
    end = (*report.final_x1, *report.final_x2, report.final_residual)
    assert [float(v).hex() for v in end] == [
        "0x1.7805000000000p-48", "0x1.7805000000000p-48", "0x1.09e2ce4d17028p-47",
    ]


def _eigvalsh_rule(block):
    """The surrogate rule decided by eigvalsh alone, with the diagonal-shift
    loop as first written: the reference for the Cholesky-first rule."""
    block = 0.5 * (block + block.T)
    n = block.shape[0]
    if float(np.linalg.eigvalsh(block)[0]) < -PSD_FLOOR:
        return np.eye(n), 0.0
    H = 0.5 * (block + block.T)  # modified_cholesky symmetrized once more
    eye = np.eye(n)
    delta = 0.0
    while True:
        try:
            L = np.linalg.cholesky(H + delta * eye)
            if np.min(np.diag(L)) ** 2 >= PSD_FLOOR * CHOL_PIVOT_SAFETY:
                return H + delta * eye, delta
        except np.linalg.LinAlgError:
            pass
        delta = PSD_FLOOR if delta == 0.0 else 2.0 * delta


def _seeded_block(kind, n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.5, 5.0, size=n)
    if kind == "null":
        return np.zeros((n, n))
    if kind == "diagonal-negative-zeros":
        # positive definite, with -0.0 off the diagonal
        return np.where(np.eye(n, dtype=bool), np.diag(lam), -0.0)
    if kind in ("near-psd", "psd-singular"):
        lam[0] = -0.5 * PSD_FLOOR if kind == "near-psd" else 0.0
    if kind == "indefinite":
        lam[0] = -rng.uniform(0.5, 5.0)
    if kind == "large-norm-singular":
        # rounding of order n * eps * 1e10 swamps PSD_FLOOR: potrf and
        # eigvalsh each see the null eigenvalue with either sign
        lam *= 1e10
        lam[0] = 0.0
    block = (q * lam) @ q.T
    block = 0.5 * (block + block.T)
    if kind == "asymmetric-last-bit" and n > 1:
        block[0, -1] = np.nextafter(block[0, -1], np.inf)
        assert not np.array_equal(block, block.T)
    return block


@pytest.mark.parametrize("n", [1, 2, 5, 40, 150])
@pytest.mark.parametrize(
    "kind",
    ["positive-definite", "diagonal-negative-zeros", "null", "near-psd", "psd-singular",
     "indefinite", "asymmetric-last-bit", "large-norm-singular"],
)
def test_cholesky_first_surrogate_matches_eigvalsh_rule(monkeypatch, kind, n):
    calls = []
    real = solver_mod.modified_cholesky
    monkeypatch.setattr(
        solver_mod, "modified_cholesky", lambda H, **kw: calls.append(1) or real(H, **kw)
    )
    cholesky_passed_eigvalsh_negative = 0
    for seed in range(5):
        block = _seeded_block(kind, n, seed)
        original = block.copy()
        calls.clear()
        out = _exact_surrogate(block)
        matrix, shift = _eigvalsh_rule(block)
        assert np.array_equal(out.matrix.view(np.uint64), matrix.view(np.uint64))
        assert out.shift == shift
        assert np.array_equal(block.view(np.uint64), original.view(np.uint64))
        symmetric = 0.5 * (block + block.T)
        identity = float(np.linalg.eigvalsh(symmetric)[0]) < -PSD_FLOOR
        cholesky_passed_eigvalsh_negative += identity and _chol_succeeds(symmetric)
        # every surrogate but the identity comes from one modified_cholesky
        # call through the module global, which the benchmark's tracer counts
        assert len(calls) == (0 if identity else 1)
        if kind in ("positive-definite", "diagonal-negative-zeros"):
            assert shift == 0.0
        elif kind == "null":
            assert np.array_equal(matrix, PSD_FLOOR * np.eye(n))
        elif kind in ("near-psd", "psd-singular"):
            assert shift > 0.0
        elif kind == "indefinite":
            assert identity and np.array_equal(matrix, np.eye(n)) and shift == 0.0
    if kind == "diagonal-negative-zeros" and n > 1:
        assert not np.any(np.signbit(out.matrix))
    if kind == "large-norm-singular" and n in (5, 40):
        # the seeds reach the blocks that pass the Cholesky test while
        # eigvalsh puts an eigenvalue below -PSD_FLOOR: the identity, as
        # the eigvalsh rule decides, because the rounding guard sends them
        # to eigvalsh
        assert cholesky_passed_eigvalsh_negative > 0


def _blocks_problem(h11, h22):
    """A game stationary everywhere whose own Hessian blocks are h11, h22."""
    n1, n2 = h11.shape[0], h22.shape[0]
    return NepProblem(
        n1=n1, n2=n2,
        f1=lambda x1, x2: 0.0, f2=lambda x1, x2: 0.0,
        grad1=lambda x1, x2: np.zeros(n1), grad2=lambda x1, x2: np.zeros(n2),
        hess11=lambda x1, x2: h11, hess22=lambda x1, x2: h22,
    )


def _classify_block(kind, n, seed):
    if kind not in ("edge-above", "edge-below"):
        return _seeded_block(kind, n, seed)
    # shifted so that eigvalsh puts the smallest eigenvalue at
    # -PSD_FLOOR * (1 -+ 1e-3), just above or just below the PSD tolerance
    block = _seeded_block("positive-definite", n, seed)
    target = -PSD_FLOOR * (1.0 + (-1e-3 if kind == "edge-above" else 1e-3))
    return block + (target - np.linalg.eigvalsh(block)[0]) * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 5, 40, 150])
@pytest.mark.parametrize(
    "kind",
    ["positive-definite", "diagonal-negative-zeros", "null", "near-psd", "psd-singular",
     "indefinite", "asymmetric-last-bit", "large-norm-singular", "edge-above", "edge-below"],
)
def test_classification_matches_eigvalsh_rule(kind, n):
    cholesky_passed_eigvalsh_negative = 0
    for seed in range(5):
        h11 = _classify_block(kind, n, seed)
        h22 = _classify_block(kind, n, seed + 5)
        min_eigs = [float(np.linalg.eigvalsh(0.5 * (h + h.T))[0]) for h in (h11, h22)]
        cls = classify_point(residual_at(_blocks_problem(h11, h22), np.zeros(n), np.zeros(n)), tol=1e-4)
        psd = min(min_eigs) >= -PSD_FLOOR
        assert cls.kind is (
            PointKind.EQUILIBRIUM_CANDIDATE if psd else PointKind.NON_EQUILIBRIUM_STATIONARY
        )
        assert [cls.min_eig_1, cls.min_eig_2] == min_eigs
        cholesky_passed_eigvalsh_negative += sum(
            m < -PSD_FLOOR and _chol_succeeds(0.5 * (h + h.T))
            for h, m in zip((h11, h22), min_eigs)
        )
        if kind == "edge-above":
            assert psd
        elif kind in ("edge-below", "indefinite"):
            assert not psd
    if kind == "large-norm-singular" and n in (5, 40, 150):
        # blocks that pass the Cholesky test while eigvalsh finds an
        # eigenvalue below -PSD_FLOOR: the rounding guard sends them to eigvalsh
        assert cholesky_passed_eigvalsh_negative > 0


# ---------------------------------------------------------------------------
# the block system is the step's own: getrf factors it in place
# ---------------------------------------------------------------------------


def _unchanged_by(call, arrays):
    """Whether call() leaves the bytes of every array as they were."""
    before = [a.tobytes() for a in arrays]
    call()
    return [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("problem_id", ["quadratic:3:2x2", "facility2d", "quadratic:5:150x150"])
def test_direction_and_newton_step_leave_their_blocks_unchanged(problem_id):
    # the quadratic games' points hand out the problem's own matrices
    problem = get_problem(problem_id)
    res = residual_at(problem, np.linspace(-1.0, 1.0, problem.n1) + 0.3,
                      np.linspace(1.0, -1.0, problem.n2) - 0.2)
    point, config = res.point, SolverConfig()
    H1, H2 = build_surrogates(point, config)
    blocks = (point.hess11, point.hess22, point.mixed12, point.mixed21)
    arrays = (H1.matrix, H2.matrix, *blocks, res.g1, res.g2)

    def steps():
        for t in (1.0, 0.5):
            direction_at(res, H1, H2, t, config)
        newton_kkt_step(problem, res)

    assert _unchanged_by(steps, arrays)
    fresh = (point.hess11, point.hess22, point.mixed12, point.mixed21)
    assert [a.tobytes() for a in fresh] == [a.tobytes() for a in blocks]


def test_an_assembly_that_hands_back_h1_is_caught(monkeypatch):
    # with an empty second player the block system equals H1; an assembly
    # that handed back H1's own memory would let getrf factor the surrogate
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((4, 4))
    H1 = modified_cholesky(raw @ raw.T + np.eye(4))
    H2 = SpdSurrogate(np.zeros((0, 0)), 0.0)
    mixed1, mixed2 = np.zeros((4, 0)), np.zeros((0, 4))
    rhs = rng.standard_normal(4)
    config = SolverConfig()

    def direction():
        compute_direction(H1, H2, mixed1, mixed2, (1.0, 0.0), rhs, 1.0, config)

    arrays = (H1.matrix, H2.matrix, mixed1, mixed2, rhs)
    assert _unchanged_by(direction, arrays)
    real = solver_mod.assemble_block_system

    def aliasing(H1, H2, M1, M2, t):
        # H1 is symmetric, so its transpose is a Fortran-ordered view of it
        return H1.matrix.T if H2.matrix.size == 0 else real(H1, H2, M1, M2, t)

    monkeypatch.setattr(solver_mod, "assemble_block_system", aliasing)
    assert not _unchanged_by(direction, arrays)


def test_dense_direction_and_newton_step_have_scipys_bits():
    # both sides factor the same matrix with the same LAPACK in this
    # process, so the bits agree at any BLAS thread count
    problem = get_problem("quadratic:5:150x150")
    res = residual_at(problem, np.zeros(problem.n1), np.zeros(problem.n2))
    point, config = res.point, SolverConfig()
    rhs = -np.concatenate([res.g1, res.g2])
    H1, H2 = build_surrogates(point, config)
    g_norms = gradient_norms(res.g1, res.g2)
    for t in (1.0, 0.5):
        d1, d2 = direction_at(res, H1, H2, t, config)
        M1, M2 = safeguard_mixed_blocks(*g_norms, t, config, point.mixed12, point.mixed21)
        system = np.block([[H1.matrix, t * M1], [t * M2, H2.matrix]])
        expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(system), rhs)
        assert np.concatenate([d1, d2]).tobytes() == expected.tobytes()
    K = np.block([[point.hess11, point.mixed12], [point.mixed21, point.hess22]])
    expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(K), rhs)
    assert np.concatenate(newton_kkt_step(problem, res)).tobytes() == expected.tobytes()
