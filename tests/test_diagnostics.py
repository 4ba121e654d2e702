import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import nepsolve.diagnostics as diagnostics
from nepsolve import (
    NepProblem,
    NonFiniteEvaluation,
    SolveStatus,
    SolverConfig,
    estimate_assumptions,
    get_problem,
    monitor_stepsizes,
    partial_direction_sums,
    random_quadratic_nep,
    solve,
    solve_exact_jacobi,
    solve_newton_kkt,
    verify_lemma_bounds,
)
from nepsolve.cli import PAPER_STARTS
from nepsolve.core import _norm
from nepsolve.solver import IterateRecord, LineSearchCertificate, SolveReport


def test_estimates_example1_exact_constants():
    # constant mixed blocks of size 1 and gradients with slopes 2 and 3
    est = estimate_assumptions(get_problem("examp1"), box=(-5.0, 5.0), samples=40, seed=2)
    assert est.c_h == pytest.approx(1.0, abs=0)
    assert est.grad_lipschitz == pytest.approx(3.0, rel=1e-9)


def test_estimates_quadratic_remainder_vanishes():
    problem = random_quadratic_nep(2, 2, seed=8).to_problem()
    est = estimate_assumptions(problem, box=(-5.0, 5.0), samples=40, seed=2)
    assert est.c_r <= 1e-8


def test_estimates_monotone_in_sample_count():
    problem = get_problem("examp5")
    small = estimate_assumptions(problem, box=(-5.0, 5.0), samples=20, seed=13)
    large = estimate_assumptions(problem, box=(-5.0, 5.0), samples=60, seed=13)
    assert large.c_h >= small.c_h
    assert large.grad_lipschitz >= small.grad_lipschitz
    assert large.c_r >= small.c_r


def test_estimates_validation():
    with pytest.raises(ValueError):
        estimate_assumptions(get_problem("examp1"), box=(-5.0, 5.0), samples=1, seed=0)
    with pytest.raises(ValueError):
        estimate_assumptions(get_problem("examp1"), box=(5.0, -5.0), samples=10, seed=0)


def test_estimates_reject_non_finite_probe_read():
    # every sampled base point has x1 <= 4, but one Lipschitz probe has not
    problem = NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: x1[0] ** 2,
        f2=lambda x1, x2: x2[0] ** 2,
        grad1=lambda x1, x2: np.array([2.0 * x1[0] if x1[0] <= 4.0 else np.nan]),
        grad2=lambda x1, x2: np.array([2.0 * x2[0]]),
        hess11=lambda x1, x2: np.array([[2.0]]),
        hess22=lambda x1, x2: np.array([[2.0]]),
        hess12_f1=lambda x1, x2: np.array([[0.0]]),
        hess21_f2=lambda x1, x2: np.array([[0.0]]),
    )
    with pytest.raises(NonFiniteEvaluation, match="inside the sample box"):
        estimate_assumptions(problem, box=(-5.0, 5.0), samples=3, seed=0)


def test_lemma_checks_skipped_when_hypothesis_fails():
    # the one-step run accepts t = 1 while the smallness bound is 1/6
    report = solve(get_problem("examp1"), [-5.0], [1.0])
    est = estimate_assumptions(get_problem("examp1"), box=(-5.0, 5.0), samples=20, seed=1)
    lemma = verify_lemma_bounds(report, est)
    assert lemma.ok
    assert lemma.checked["direction-bound"] == 0
    assert lemma.skipped["direction-bound"] == 1


def test_lemma_checks_example5_zero_violations():
    report = solve(get_problem("examp5"), [-5.0], [1.0])
    est = estimate_assumptions(get_problem("examp5"), box=(-5.0, 5.0), samples=30, seed=1)
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


def test_estimates_finite_on_a_box_whose_squares_overflow():
    # examp5's reads on a 1e60 box pass 1e154, where np.linalg.norm's sum of
    # squares overflows (and, under pytest's warning filters, raises)
    est = estimate_assumptions(get_problem("examp5"), box=(-1e60, 1e60), samples=50, seed=0)
    assert np.isfinite([est.c_h, est.grad_lipschitz, est.c_r]).all()
    assert est.grad_lipschitz == pytest.approx(1.5667372004967477e180, rel=1e-12)
    assert est.c_r == pytest.approx(1.7807167944828485e183, rel=1e-12)


def test_finite_norm_keeps_bits_until_the_squares_overflow():
    # core._norm, the one vector norm the estimates and every solver use
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 40, 257, 1000):
        for scale in (1e-150, 1.0, 1e150):
            v = scale * rng.normal(size=n)
            assert _norm(v) == np.linalg.norm(v)
            # a strided vector is summed in its own order, not copied first
            assert _norm(v[::2]) == pytest.approx(np.linalg.norm(v[::2]), rel=1e-15, abs=0)
    assert _norm(np.zeros(2)) == 0.0
    assert _norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert _norm(np.array([1.5e308, 1.5e308])) == np.inf
    assert _norm(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(_norm(np.array([np.nan, 1e200])))


def test_lemma_report_serializes():
    report = solve(get_problem("examp5"), [-5.0], [1.0])
    est = estimate_assumptions(get_problem("examp5"), box=(-5.0, 5.0), samples=10, seed=1)
    lemma = verify_lemma_bounds(report, est)
    payload = lemma.to_dict()
    assert payload["ok"] is True
    assert set(payload["checked"]) == set(payload["skipped"])
    assert "lambda_min" in payload["estimates"]
    assert str(lemma).startswith("lemma certificates: OK")


def test_verify_requires_trajectory():
    report = solve(get_problem("examp1"), [2.0], [1.0])  # converges in 0 iterations
    est = estimate_assumptions(get_problem("examp1"), box=(-5.0, 5.0), samples=10, seed=0)
    with pytest.raises(ValueError):
        verify_lemma_bounds(report, est)


@pytest.mark.parametrize("missing", ["problem", "config"])
def test_verify_requires_problem_and_config(missing):
    report = solve(get_problem("examp1"), [-5.0], [1.0])
    est = estimate_assumptions(get_problem("examp1"), box=(-5.0, 5.0), samples=10, seed=0)
    with pytest.raises(ValueError, match="problem and config"):
        verify_lemma_bounds(replace(report, **{missing: None}), est)


@pytest.mark.parametrize("baseline", [solve_newton_kkt, solve_exact_jacobi])
def test_verify_certifies_no_lemmas_for_baselines(baseline):
    # the lemmas bound descent-newton's surrogate system and line search
    report = baseline(get_problem("examp1"), [-5.0], [1.0])
    assert report.trajectory
    est = estimate_assumptions(get_problem("examp1"), box=(-5.0, 5.0), samples=10, seed=0)
    assert verify_lemma_bounds(report, est) is None


def test_monitor_stepsizes_example1():
    report = solve(get_problem("examp1"), [-5.0], [1.0])
    steps = monitor_stepsizes(report)
    assert steps.t_min_observed == 1.0
    assert steps.bounded_away_flag


def test_monitor_stepsizes_example5():
    report = solve(get_problem("examp5"), [-5.0], [1.0])
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
    report = solve(get_problem("examp1"), [2.0], [1.0])
    with pytest.raises(ValueError):
        monitor_stepsizes(report)


def test_partial_direction_sums():
    report = solve(get_problem("examp5"), [-5.0], [1.0])
    s1, s2 = partial_direction_sums(report)
    assert s1 > 0 and s2 > 0
    assert s1 == pytest.approx(sum(np.linalg.norm(r.d1) for r in report.trajectory))


# ---------------------------------------------------------------------------
# violations on mutated runs: a checker that always said OK fails these
# ---------------------------------------------------------------------------

#: (t scale, d scale) applied to every record of a run
MUTATIONS = {
    "none": (1.0, 1.0),
    "d*10": (1.0, 10.0),
    "d*0.01": (1.0, 0.01),
    "d*3": (1.0, 3.0),
    "d*0.3": (1.0, 0.3),
    "t/4096": (1.0 / 4096, 1.0),
    "t/4096 d*0.3": (1.0 / 4096, 0.3),
    "t/4096 d*3": (1.0 / 4096, 3.0),
    "t*100": (100.0, 1.0),
}


def _paper_run(problem_id):
    problem = get_problem(problem_id)
    x0 = PAPER_STARTS[problem_id]
    report = solve(problem, x0[: problem.n1], x0[problem.n1 :])
    return report, estimate_assumptions(problem, box=(-5.0, 5.0), samples=20, seed=0)


def _mutated(report, mutation):
    t_scale, d_scale = MUTATIONS[mutation]
    trajectory = tuple(
        replace(rec, t=rec.t * t_scale, d1=rec.d1 * d_scale, d2=rec.d2 * d_scale)
        for rec in report.trajectory
    )
    return replace(report, trajectory=trajectory)


@pytest.mark.parametrize(
    "mutation, lemma, iterate, detail",
    [
        ("d*10", "direction-bound", 6, "||d|| = 1.282653e+00 > 2.569154e-01"),
        (
            "d*10",
            "gradient-comparability",
            6,
            "player1: ||H d|| = 9.083351e-01 outside [4.548488e-02, 1.364546e-01]",
        ),
        (
            "d*0.01",
            "gradient-comparability",
            6,
            "player1: ||H d|| = 9.083351e-04 outside [4.548488e-02, 1.364546e-01]",
        ),
        ("t/4096 d*0.3", "ratio-bounds", 3, "player2: ||d|| = 6.524460e-03 < 1.252388e-01"),
        ("t/4096 d*3", "ratio-bounds", 3, "player1: ||d|| = 6.859267e+00 > 3.937626e+00"),
        ("t*100", "block-norms", 0, "||H_t|| = 2.500538e+03 > 1.236972e+02"),
    ],
    ids=["direction", "comparability-high", "comparability-low", "ratio-low", "ratio-high", "norm"],
)
def test_mutated_example5_run_reports_violation(mutation, lemma, iterate, detail):
    report, est = _paper_run("examp5")
    check = verify_lemma_bounds(_mutated(report, mutation), est)
    assert not check.ok
    first = next(v for v in check.violations if v.lemma == lemma)
    assert (first.iterate, first.detail) == (iterate, detail)
    assert first.margin > 0
    assert f"VIOLATION k={iterate} {lemma}: {detail}" in str(check)


def test_singular_value_floor_violation(monkeypatch):
    # no record mutation moves the recomputed block matrix, so shrink it
    report, est = _paper_run("examp5")
    assemble = diagnostics.assemble_block_system
    monkeypatch.setattr(
        diagnostics, "assemble_block_system", lambda *args: 1e-3 * assemble(*args)
    )
    check = verify_lemma_bounds(report, est)
    floors = [v for v in check.violations if v.detail.startswith("smallest singular value")]
    assert [v.iterate for v in floors] == [6, 7]
    assert check.checked["block-norms"] == 2
    assert all(v.lemma == "block-norms" and v.margin > 0 for v in floors)
    assert len(floors) == len(check.violations)


#: sha256 of the examp5 and facility2d lemma reports (to_dict() as JSON,
#: then str()) under every mutation in MUTATIONS, in that order
MUTATED_REPORTS_SHA256 = "3403a819d187c7465fcdebb6be2b9fe8b64ea850e7263dad8053b3f2cc254dc8"


def test_mutated_lemma_reports_are_byte_identical():
    digest = hashlib.sha256()
    for problem_id in ("examp5", "facility2d"):
        report, est = _paper_run(problem_id)
        for mutation in MUTATIONS:
            check = verify_lemma_bounds(_mutated(report, mutation), est)
            digest.update(f"{json.dumps(check.to_dict())}\n{check}\n".encode())
    assert digest.hexdigest() == MUTATED_REPORTS_SHA256
