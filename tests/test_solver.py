import dataclasses

import numpy as np
import pytest

from nepsolve import (
    HessianStrategy,
    NepProblem,
    SolveStatus,
    SolverConfig,
    check_inequalities,
    compute_direction,
    evaluate_residual,
    make_example,
    modified_cholesky,
    random_quadratic_nep,
    safeguard_mixed_blocks,
    solve,
    solve_newton_kkt,
)
import nepsolve.solver as solver_mod
from nepsolve.linalg import CHOL_PIVOT_SAFETY, _chol_succeeds, assemble_block_system
from nepsolve.solver import CHOL_FLOOR, Direction, _exact_surrogate, build_surrogates


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
    with pytest.raises(ValueError):
        SolverConfig(hessian_strategy=HessianStrategy.USER_SUPPLIED)
    # user Hessians must be finite, square, symmetric 2-D arrays
    for bad in ([[np.nan]], [[1.0, 0.0]], [1.0], [[1.0, 2.0], [0.0, 1.0]], np.ones((1, 1, 1))):
        with pytest.raises(ValueError):
            SolverConfig(user_h1=bad)
        with pytest.raises(ValueError):
            SolverConfig(user_h2=bad)
    # and match the problem's player dimensions
    wrong_shape = SolverConfig(
        hessian_strategy=HessianStrategy.USER_SUPPLIED, user_h1=np.eye(2), user_h2=[[1.0]]
    )
    with pytest.raises(ValueError):
        solve(make_example(1), [-5.0], [1.0], wrong_shape)


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


def test_direction_counterexample(counterexample_problem):
    problem = counterexample_problem
    x1, x2 = np.array([0.0]), np.array([0.0])
    res = evaluate_residual(problem, x1, x2)
    H1 = modified_cholesky(np.array([[1.0]]), 1e-8)
    H2 = modified_cholesky(np.array([[1.0]]), 1e-8)
    d = compute_direction(problem, x1, x2, res.g1, res.g2, H1, H2, 1.0, SolverConfig())
    assert d.d1 == pytest.approx([3.0], abs=1e-14)
    assert d.d2 == pytest.approx([-2.0], abs=1e-14)


def test_direction_example1_lands_on_solution():
    # hand solve of [[2, 1], [-1, 3]] d = (14, -7): d = (7, 0)
    problem = make_example(1)
    x1, x2 = np.array([-5.0]), np.array([1.0])
    res = evaluate_residual(problem, x1, x2)
    H1 = modified_cholesky(np.array([[2.0]]), 1e-8)
    H2 = modified_cholesky(np.array([[3.0]]), 1e-8)
    d = compute_direction(problem, x1, x2, res.g1, res.g2, H1, H2, 1.0, SolverConfig())
    assert d.d1 == pytest.approx([7.0], abs=1e-13)
    assert d.d2 == pytest.approx([0.0], abs=1e-13)
    assert x1 + d.d1 == pytest.approx([2.0], abs=1e-12)


def test_direction_zero_gradient_gives_zero():
    problem = make_example(1)
    x1, x2 = np.array([2.0]), np.array([1.0])
    res = evaluate_residual(problem, x1, x2)
    H1, H2 = build_surrogates(problem, x1, x2, SolverConfig())
    d = compute_direction(problem, x1, x2, res.g1, res.g2, H1, H2, 1.0, SolverConfig())
    assert np.all(d.d1 == 0.0) and np.all(d.d2 == 0.0)


def test_direction_solves_assembled_system():
    problem = make_example(5)
    cfg = SolverConfig()
    x1, x2 = np.array([-5.0]), np.array([1.0])
    res = evaluate_residual(problem, x1, x2)
    H1, H2 = build_surrogates(problem, x1, x2, cfg)
    for t in (1.0, 0.5, 0.25):
        d = compute_direction(problem, x1, x2, res.g1, res.g2, H1, H2, t, cfg)
        lhs1 = H1.matrix @ d.d1 + t * problem.mixed12_f1(x1, x2) @ d.d2
        lhs2 = t * problem.mixed21_f2(x1, x2) @ d.d1 + H2.matrix @ d.d2
        resid = np.linalg.norm(np.concatenate([lhs1 + res.g1, lhs2 + res.g2]))
        assert resid <= 1e-8 * max(1.0, res.norm)


def test_inequalities_reject_counterexample_direction(counterexample_problem):
    problem = counterexample_problem
    x1, x2 = np.array([0.0]), np.array([0.0])
    res = evaluate_residual(problem, x1, x2)
    H1 = modified_cholesky(np.array([[1.0]]), 1e-8)
    H2 = modified_cholesky(np.array([[1.0]]), 1e-8)
    d = compute_direction(problem, x1, x2, res.g1, res.g2, H1, H2, 1.0, SolverConfig())
    cert = check_inequalities(problem, x1, x2, res.g1, res.g2, d, 1.0, SolverConfig())
    # the predicted-gradient slope for player 1 is positive: angle check fails
    assert cert.checks[1] is False or cert.checks[1] == False  # noqa: E712
    assert not cert.accepted


def test_inequalities_accept_example1_full_step():
    problem = make_example(1)
    x1, x2 = np.array([-5.0]), np.array([1.0])
    res = evaluate_residual(problem, x1, x2)
    H1 = modified_cholesky(np.array([[2.0]]), 1e-8)
    H2 = modified_cholesky(np.array([[3.0]]), 1e-8)
    d = compute_direction(problem, x1, x2, res.g1, res.g2, H1, H2, 1.0, SolverConfig())
    cert = check_inequalities(problem, x1, x2, res.g1, res.g2, d, 1.0, SolverConfig())
    assert cert.accepted


def test_inequalities_zero_direction_at_stationary_point():
    # d = 0 only ever comes out of the homogeneous system, i.e. g = 0;
    # there every inequality degenerates to 0 <= 0
    problem = make_example(5)
    x1, x2 = np.array([0.0]), np.array([0.0])
    res = evaluate_residual(problem, x1, x2)
    d = Direction(d1=np.zeros(1), d2=np.zeros(1))
    for t in (1.0, 0.5, 0.125):
        cert = check_inequalities(problem, x1, x2, res.g1, res.g2, d, t, SolverConfig())
        assert cert.accepted


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------


def test_solve_example1():
    report = solve(make_example(1), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.trajectory[0].certificate.backtracks == 0
    assert report.final_x1 == pytest.approx([2.0], abs=1e-12)
    assert report.final_x2 == pytest.approx([1.0], abs=1e-12)


def test_solve_example2():
    report = solve(make_example(2), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.final_x1 == pytest.approx([4.0 / 7.0], abs=1e-10)
    assert report.final_x2 == pytest.approx([33.0 / 7.0], abs=1e-10)


def test_solve_example3_diverges():
    report = solve(make_example(3), [-5.0], [1.0])
    assert report.status is SolveStatus.DIVERGED
    assert report.final_residual == np.inf
    assert report.classification is None


def test_solve_example4():
    report = solve(make_example(4), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.final_x1 == pytest.approx([0.7], abs=1e-3)
    assert report.final_x2 == pytest.approx([0.6], abs=1e-3)


def test_solve_example5():
    report = solve(make_example(5), [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert 5 <= report.iterations <= 13
    assert report.final_residual <= 1e-4
    assert np.abs(report.final_x1[0]) <= 1e-3 and np.abs(report.final_x2[0]) <= 1e-3
    assert min(rec.t for rec in report.trajectory) >= 0.5


def test_solve_starting_at_solution_takes_zero_iterations():
    report = solve(make_example(1), [2.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    assert report.trajectory == ()


def test_solve_rejects_bad_start_shape():
    with pytest.raises(ValueError):
        solve(make_example(1), [1.0, 2.0], [1.0])


def test_solve_is_deterministic():
    a = solve(make_example(5), [-5.0], [1.0])
    b = solve(make_example(5), [-5.0], [1.0])
    assert a.iterations == b.iterations
    for ra, rb in zip(a.trajectory, b.trajectory):
        assert np.array_equal(ra.x1, rb.x1) and np.array_equal(ra.x2, rb.x2)
        assert ra.t == rb.t
        assert np.array_equal(ra.d1, rb.d1) and np.array_equal(ra.d2, rb.d2)


def test_trajectory_update_identity():
    report = solve(make_example(5), [-5.0], [1.0])
    traj = report.trajectory
    for prev, nxt in zip(traj, traj[1:]):
        assert np.array_equal(nxt.x1, prev.x1 + prev.t * prev.d1)
        assert np.array_equal(nxt.x2, prev.x2 + prev.t * prev.d2)
    last = traj[-1]
    assert np.array_equal(report.final_x1, last.x1 + last.t * last.d1)


def test_certificates_recheck_from_records():
    report = solve(make_example(5), [-5.0], [1.0])
    cfg = report.config
    for rec in report.trajectory:
        d = Direction(d1=rec.d1, d2=rec.d2)
        cert = check_inequalities(
            report.problem, rec.x1, rec.x2, rec.g1, rec.g2, d, rec.t, cfg
        )
        assert cert.accepted
        assert cert.checks == rec.certificate.checks


def test_monotone_predicted_descent():
    problem = make_example(5)
    report = solve(problem, [-5.0], [1.0])
    for rec in report.trajectory:
        y1 = rec.x1 + rec.t * rec.d1
        y2 = rec.x2 + rec.t * rec.d2
        assert problem.value1(y1, y2) <= problem.value1(rec.x1, y2)
        assert problem.value2(y1, y2) <= problem.value2(y1, rec.x2)


def test_gradient_bounded_by_block_norm_times_direction():
    # stacked gradient equals -H_t d at every accepted iterate, so its norm
    # is bounded by the measured block-matrix norm times ||d||
    for problem, x0 in ((make_example(5), (-5.0, 1.0)), (make_example(1), (-5.0, 1.0))):
        report = solve(problem, [x0[0]], [x0[1]])
        cfg = report.config
        for rec in report.trajectory:
            H1, H2 = build_surrogates(problem, rec.x1, rec.x2, cfg)
            g1n, g2n = np.linalg.norm(rec.g1), np.linalg.norm(rec.g2)
            M1, M2 = safeguard_mixed_blocks(
                g1n, g2n, rec.t, cfg,
                problem.mixed12_f1(rec.x1, rec.x2), problem.mixed21_f2(rec.x1, rec.x2),
            )
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
    cfg = SolverConfig(
        hessian_strategy=HessianStrategy.USER_SUPPLIED, user_h1=q.A1, user_h2=q.A2
    )
    report = solve(q.to_problem(), np.zeros(3), np.zeros(2), cfg)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.trajectory[0].t == 1.0
    assert report.trajectory[0].certificate.backtracks == 0
    assert report.final_residual <= 1e-8


def test_identity_strategy_runs():
    # identity surrogates are user-supplied identity blocks: modified_cholesky
    # returns I unchanged, with shift 0
    cfg = SolverConfig(
        hessian_strategy=HessianStrategy.USER_SUPPLIED,
        user_h1=np.eye(1),
        user_h2=np.eye(1),
        max_iter=5000,
    )
    for H in build_surrogates(make_example(1), [-5.0], [1.0], cfg):
        assert np.array_equal(H.matrix, np.eye(1)) and H.shift == 0.0
    report = solve(make_example(1), [-5.0], [1.0], cfg)
    assert report.status is SolveStatus.CONVERGED
    assert report.final_x1 == pytest.approx([2.0], abs=1e-3)


def test_overflowing_user_hessian_shift_is_undefined_step():
    # the doubling shift cannot make -1e13 positive below its 1e12 cap
    cfg = SolverConfig(
        hessian_strategy=HessianStrategy.USER_SUPPLIED, user_h1=[[-1e13]], user_h2=[[1.0]]
    )
    report = solve(make_example(1), [-5.0], [1.0], cfg)
    assert report.status is SolveStatus.UNDEFINED_STEP
    assert report.iterations == 0


def test_line_search_failure_status():
    # theta > 1 makes the angle inequality unsatisfiable for any nonzero
    # direction, so every trial step is rejected down to T_MIN
    report = solve(make_example(1), [-5.0], [1.0], SolverConfig(theta=2.0))
    assert report.status is SolveStatus.LINE_SEARCH_FAILURE
    assert report.trajectory == ()


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
    problem, calls = _count_gradient_calls(make_example(5))
    report = solve_newton_kkt(problem, [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert calls == {"grad1": report.iterations + 1, "grad2": report.iterations + 1}

    # one descent step: residual at x0, the predicted gradients of the
    # accepted trial, residual at x1 (reused by the classification)
    problem, calls = _count_gradient_calls(make_example(1))
    report = solve(problem, [-5.0], [1.0])
    assert report.status is SolveStatus.CONVERGED and report.iterations == 1
    assert calls == {"grad1": 3, "grad2": 3}


def _eigvalsh_rule(block):
    """The surrogate rule decided by eigvalsh alone, with the diagonal-shift
    loop as first written: the reference for the Cholesky-first rule."""
    block = 0.5 * (block + block.T)
    n = block.shape[0]
    if float(np.linalg.eigvalsh(block)[0]) < -CHOL_FLOOR:
        return np.eye(n), 0.0
    H = 0.5 * (block + block.T)  # modified_cholesky symmetrized once more
    eye = np.eye(n)
    delta = 0.0
    while True:
        try:
            L = np.linalg.cholesky(H + delta * eye)
            if np.min(np.diag(L)) ** 2 >= CHOL_FLOOR * CHOL_PIVOT_SAFETY:
                return H + delta * eye, delta
        except np.linalg.LinAlgError:
            pass
        delta = CHOL_FLOOR if delta == 0.0 else 2.0 * delta


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
        lam[0] = -0.5 * CHOL_FLOOR if kind == "near-psd" else 0.0
    if kind == "indefinite":
        lam[0] = -rng.uniform(0.5, 5.0)
    if kind == "large-norm-singular":
        # rounding of order n * eps * 1e10 swamps CHOL_FLOOR: potrf and
        # eigvalsh each see the null eigenvalue with either sign
        lam *= 1e10
        lam[0] = 0.0
    block = (q * lam) @ q.T
    block = 0.5 * (block + block.T)
    if kind == "asymmetric-last-bit" and n > 1:
        block[0, -1] = np.nextafter(block[0, -1], np.inf)
        assert not np.array_equal(block, block.T)
    return block


@pytest.mark.parametrize("n", [1, 2, 5, 40])
@pytest.mark.parametrize(
    "kind",
    ["positive-definite", "diagonal-negative-zeros", "null", "near-psd", "psd-singular",
     "indefinite", "asymmetric-last-bit", "large-norm-singular"],
)
def test_cholesky_first_surrogate_matches_eigvalsh_rule(monkeypatch, kind, n):
    calls = []
    real = solver_mod.modified_cholesky
    monkeypatch.setattr(
        solver_mod, "modified_cholesky", lambda H, floor: calls.append(1) or real(H, floor)
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
        identity = float(np.linalg.eigvalsh(symmetric)[0]) < -CHOL_FLOOR
        cholesky_passed_eigvalsh_negative += identity and _chol_succeeds(
            symmetric, CHOL_FLOOR * CHOL_PIVOT_SAFETY
        )
        # every surrogate but the identity comes from one modified_cholesky
        # call through the module global, which the benchmark's tracer counts
        assert len(calls) == (0 if identity else 1)
        if kind in ("positive-definite", "diagonal-negative-zeros"):
            assert shift == 0.0
        elif kind == "null":
            assert np.array_equal(matrix, CHOL_FLOOR * np.eye(n))
        elif kind in ("near-psd", "psd-singular"):
            assert shift > 0.0
        elif kind == "indefinite":
            assert identity and np.array_equal(matrix, np.eye(n)) and shift == 0.0
    if kind == "diagonal-negative-zeros" and n > 1:
        assert not np.any(np.signbit(out.matrix))
    if kind == "large-norm-singular" and n in (5, 40):
        # the seeds reach the blocks that pass the Cholesky test while
        # eigvalsh puts an eigenvalue below -CHOL_FLOOR: the identity, as
        # the eigvalsh rule decides, because the rounding guard sends them
        # to eigvalsh
        assert cholesky_passed_eigvalsh_negative > 0
