import numpy as np
import pytest

from nepsolve import (
    SolveStatus,
    SolverConfig,
    estimate_assumptions,
    make_example,
    monitor_stepsizes,
    partial_direction_sums,
    random_quadratic_nep,
    solve,
    solve_exact_jacobi,
    solve_newton_kkt,
    verify_lemma_bounds,
)
from nepsolve.solver import IterateRecord, LineSearchCertificate, SolveReport


def test_estimates_example1_exact_constants():
    # constant mixed blocks of size 1 and gradients with slopes 2 and 3
    est = estimate_assumptions(make_example(1), box=(-5.0, 5.0), samples=40, seed=2)
    assert est.c_h == pytest.approx(1.0, abs=0)
    assert est.grad_lipschitz == pytest.approx(3.0, rel=1e-9)


def test_estimates_quadratic_remainder_vanishes():
    problem = random_quadratic_nep(2, 2, seed=8).to_problem()
    est = estimate_assumptions(problem, box=(-5.0, 5.0), samples=40, seed=2)
    assert est.c_r <= 1e-8


def test_estimates_monotone_in_sample_count():
    problem = make_example(5)
    small = estimate_assumptions(problem, box=(-5.0, 5.0), samples=20, seed=13)
    large = estimate_assumptions(problem, box=(-5.0, 5.0), samples=60, seed=13)
    assert large.c_h >= small.c_h
    assert large.grad_lipschitz >= small.grad_lipschitz
    assert large.c_r >= small.c_r


def test_estimates_validation():
    with pytest.raises(ValueError):
        estimate_assumptions(make_example(1), box=(-5.0, 5.0), samples=1, seed=0)
    with pytest.raises(ValueError):
        estimate_assumptions(make_example(1), box=(5.0, -5.0), samples=10, seed=0)


def test_lemma_checks_skipped_when_hypothesis_fails():
    # the one-step run accepts t = 1 while the smallness bound is 1/6
    report = solve(make_example(1), [-5.0], [1.0])
    est = estimate_assumptions(make_example(1), box=(-5.0, 5.0), samples=20, seed=1)
    lemma = verify_lemma_bounds(report, est)
    assert lemma.ok
    assert lemma.checked["direction-bound"] == 0
    assert lemma.skipped["direction-bound"] == 1


def test_lemma_checks_example5_zero_violations():
    report = solve(make_example(5), [-5.0], [1.0])
    est = estimate_assumptions(make_example(5), box=(-5.0, 5.0), samples=30, seed=1)
    lemma = verify_lemma_bounds(report, est)
    assert lemma.ok
    assert lemma.estimates.lambda_min is not None
    assert lemma.estimates.lambda_min <= lemma.estimates.lambda_max
    assert lemma.estimates.c_k is not None
    assert len(lemma.estimates.c_k) == report.iterations


def test_lemma_checks_random_quadratics_zero_violations():
    for seed in range(20):
        q = random_quadratic_nep(1 + seed % 3, 1 + (seed // 3) % 3, seed=seed)
        cfg = SolverConfig(user_h1=q.A1, user_h2=q.A2)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-3, 3, size=q.n1 + q.n2)
        report = solve(q.to_problem(), x0[: q.n1], x0[q.n1 :], cfg)
        assert report.status is SolveStatus.CONVERGED
        est = estimate_assumptions(q.to_problem(), box=(-3.0, 3.0), samples=20, seed=seed)
        lemma = verify_lemma_bounds(report, est)
        assert lemma.ok, str(lemma)


def test_lemma_checks_handbuilt_stationary_record():
    problem = random_quadratic_nep(1, 1, seed=4).to_problem()
    cert = LineSearchCertificate(t=1.0, checks=(True,) * 6, backtracks=0, singular_halvings=0)
    rec = IterateRecord(
        k=0,
        x1=np.zeros(1),
        x2=np.zeros(1),
        g1=np.zeros(1),
        g2=np.zeros(1),
        t=1.0,
        d1=np.zeros(1),
        d2=np.zeros(1),
        certificate=cert,
    )
    report = SolveReport(
        status=SolveStatus.CONVERGED,
        final_x1=np.zeros(1),
        final_x2=np.zeros(1),
        final_residual=0.0,
        iterations=1,
        trajectory=(rec,),
        classification=None,
        problem=problem,
        config=SolverConfig(),
    )
    est = estimate_assumptions(problem, box=(-1.0, 1.0), samples=10, seed=0)
    lemma = verify_lemma_bounds(report, est)
    assert lemma.ok


def test_lemma_report_serializes():
    report = solve(make_example(5), [-5.0], [1.0])
    est = estimate_assumptions(make_example(5), box=(-5.0, 5.0), samples=10, seed=1)
    lemma = verify_lemma_bounds(report, est)
    payload = lemma.to_dict()
    assert payload["ok"] is True
    assert set(payload["checked"]) == set(payload["skipped"])
    assert "lambda_min" in payload["estimates"]
    assert str(lemma).startswith("lemma certificates: OK")


def test_verify_requires_trajectory():
    report = solve(make_example(1), [2.0], [1.0])  # converges in 0 iterations
    est = estimate_assumptions(make_example(1), box=(-5.0, 5.0), samples=10, seed=0)
    with pytest.raises(ValueError):
        verify_lemma_bounds(report, est)


@pytest.mark.parametrize("baseline", [solve_newton_kkt, solve_exact_jacobi])
def test_verify_certifies_no_lemmas_for_baselines(baseline):
    # the lemmas bound descent-newton's surrogate system and line search
    report = baseline(make_example(1), [-5.0], [1.0])
    assert report.trajectory
    est = estimate_assumptions(make_example(1), box=(-5.0, 5.0), samples=10, seed=0)
    assert verify_lemma_bounds(report, est) is None


def test_monitor_stepsizes_example1():
    report = solve(make_example(1), [-5.0], [1.0])
    steps = monitor_stepsizes(report)
    assert steps.t_min_observed == 1.0
    assert steps.bounded_away_flag


def test_monitor_stepsizes_example5():
    report = solve(make_example(5), [-5.0], [1.0])
    steps = monitor_stepsizes(report)
    assert steps.t_min_observed >= 0.5


def test_monitor_stepsizes_quadratic_full_steps():
    q = random_quadratic_nep(3, 2, seed=21)
    cfg = SolverConfig(user_h1=q.A1, user_h2=q.A2)
    report = solve(q.to_problem(), np.ones(3), -np.ones(2), cfg)
    steps = monitor_stepsizes(report)
    assert steps.t_min_observed == 1.0
    assert steps.bounded_away_flag


def test_monitor_requires_nonempty_trajectory():
    report = solve(make_example(1), [2.0], [1.0])
    with pytest.raises(ValueError):
        monitor_stepsizes(report)


def test_partial_direction_sums():
    report = solve(make_example(5), [-5.0], [1.0])
    s1, s2 = partial_direction_sums(report)
    assert s1 > 0 and s2 > 0
    assert s1 == pytest.approx(sum(np.linalg.norm(r.d1) for r in report.trajectory))
