import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nepsolve.core
import nepsolve.diagnostics
import nepsolve.suite
from nepsolve import (
    FacilityInstance,
    GenerationFailure,
    NepProblem,
    NonFiniteEvaluation,
    PointKind,
    SolveStatus,
    SolverConfig,
    UnknownProblemId,
    classify_point,
    evaluate_residual,
    get_problem,
    make_facility,
    modified_cholesky,
    random_quadratic_nep,
    solve,
    solve_newton_kkt,
    validate_derivatives,
)
from nepsolve.cli import resolve_x0
from nepsolve.core import finite_diff_jacobian
from nepsolve.linalg import _is_symmetric
from nepsolve.suite import QuadraticNep


def residual_at(problem, x1, x2):
    return evaluate_residual(problem, problem.at(x1, x2))

KNOWN_EQUILIBRIA = {
    1: (2.0, 1.0),
    2: (4.0 / 7.0, 33.0 / 7.0),
    4: (0.7, 0.6),
    5: (0.0, 0.0),
}

#: examp1-4's coefficient rows (a1, a2, b1, b2, c1, c2) of the
#: linear-quadratic game f_i = 1/2 a_i x_i^2 + (b_i x_o - c_i) x_i
EXAMPLE_ROWS = {
    1: (2.0, 3.0, 1.0, -1.0, 5.0, 1.0),
    2: (0.5, 1.0 / 3.0, 1.0, -1.0, 5.0, 1.0),
    3: (2.0, -3.0, 1.0, -1.0, 5.0, 1.0),
    4: (0.0, 0.0, 1.0, -1.0, 0.6, -0.7),
}


def row_stationary_point(example_id):
    a1, a2, b1, b2, c1, c2 = EXAMPLE_ROWS[example_id]
    game = QuadraticNep(*(np.array([[v]]) for v in (a1, a2, b1, b2)), np.array([c1]), np.array([c2]))
    x1, x2 = game.equilibrium()
    return x1[0], x2[0]


def assert_is_the_row(example_id, point):
    """The documented point is the row's stationary point, and the blocks of
    the built-in problem there are the row's coefficients, bit for bit."""
    assert np.allclose(row_stationary_point(example_id), point, rtol=0.0, atol=1e-12)
    a1, a2, b1, b2, _, _ = EXAMPLE_ROWS[example_id]
    at = get_problem(f"examp{example_id}").at([point[0]], [point[1]])
    blocks = (at.hess11, at.hess22, at.mixed12, at.mixed21)
    assert [b.tolist() for b in blocks] == [[[a1]], [[a2]], [[b1]], [[b2]]]


@pytest.mark.parametrize("example_id,point", sorted(KNOWN_EQUILIBRIA.items()))
def test_examples_known_equilibria(example_id, point):
    problem = get_problem(f"examp{example_id}")
    res = residual_at(problem, [point[0]], [point[1]])
    assert res.norm <= 1e-12
    cls = classify_point(res, tol=1e-6)
    assert cls.kind is PointKind.EQUILIBRIUM_CANDIDATE
    if example_id in EXAMPLE_ROWS:
        assert_is_the_row(example_id, point)


def test_example3_has_no_equilibrium():
    problem = get_problem("examp3")
    res = residual_at(problem, [3.2], [-1.4])
    assert res.norm <= 1e-12
    cls = classify_point(res, tol=1e-6)
    assert cls.kind is PointKind.NON_EQUILIBRIUM_STATIONARY
    assert_is_the_row(3, (3.2, -1.4))


def test_bench_reference_points_are_the_coefficient_rows(monkeypatch):
    # the benchmark checks outputs against its own closed-form points and
    # Jacobians; they must stay the rows' games
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import checks

    for example_id, (a1, a2, b1, b2, _, _) in EXAMPLE_ROWS.items():
        [(x_star, J)] = checks.EXAMPLE_POINTS[f"examp{example_id}"]
        assert J == [[a1, b1], [b2, a2]]
        assert np.allclose(x_star, row_stationary_point(example_id), rtol=0.0, atol=1e-12)


def test_example4_null_own_blocks():
    problem = get_problem("examp4")
    assert np.array_equal(problem.at([0.3], [0.9]).hess11, [[0.0]])
    assert np.array_equal(problem.at([-2.0], [5.0]).hess22, [[0.0]])


def test_unknown_example_id():
    with pytest.raises(UnknownProblemId):
        get_problem("examp6")


@pytest.mark.parametrize("example_id", [1, 2, 3, 4, 5])
def test_example_derivatives_match_finite_differences(example_id):
    report = validate_derivatives(
        get_problem(f"examp{example_id}"), box=(-5.0, 5.0), samples=20, seed=11
    )
    assert report["max_rel_err_grad1"] <= 1e-5
    assert report["max_rel_err_grad2"] <= 1e-5
    assert report["max_hessian_asymmetry"] <= 1e-10


HESSIAN_ERROR_KEYS = (
    "max_rel_err_hess11",
    "max_rel_err_hess22",
    "max_rel_err_mixed12",
    "max_rel_err_mixed21",
)


def near_client(clients, radius=0.05):
    """exclude= predicate for points within radius of a client, where the
    facility objectives are singular."""

    def near(x1, x2):
        d1 = np.min(np.linalg.norm(clients - x1, axis=1))
        d2 = np.min(np.linalg.norm(clients - x2, axis=1))
        return bool(min(d1, d2) < radius)

    return near


@pytest.mark.parametrize(
    "problem_id",
    ["examp1", "examp2", "examp3", "examp4", "examp5", "facility1d", "facility2d", "quadratic:11:3x2"],
)
def test_hessian_blocks_match_central_differences(problem_id):
    problem = get_problem(problem_id)
    exclude = None
    if problem_id.startswith("facility"):
        clients = {
            "facility1d": np.array([[1.0], [-1.0], [3.0]]),
            "facility2d": np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        }[problem_id]
        exclude = near_client(clients)
    report = validate_derivatives(problem, box=(-5.0, 5.0), samples=50, seed=123, exclude=exclude)
    for key in HESSIAN_ERROR_KEYS:
        assert report[key] <= 1e-5, (problem_id, key, report[key])


def test_validate_derivatives_flags_wrong_mixed_block():
    good = get_problem("examp1")
    wrong = NepProblem(
        n1=1,
        n2=1,
        f1=good.f1,
        f2=good.f2,
        grad1=good.grad1,
        grad2=good.grad2,
        hess11=good.hess11,
        hess22=good.hess22,
        hess12_f1=lambda x1, x2: np.array([[2.0]]),  # the true block is [[1.0]]
        hess21_f2=good.hess21_f2,
    )
    report = validate_derivatives(wrong, box=(-5.0, 5.0), samples=10, seed=0)
    assert report["max_rel_err_mixed12"] >= 0.4
    for key in ("max_rel_err_hess11", "max_rel_err_hess22", "max_rel_err_mixed21"):
        assert report[key] <= 1e-5


# ---------------------------------------------------------------------------
# facility location
# ---------------------------------------------------------------------------


def test_facility_instance_validation():
    with pytest.raises(ValueError):
        FacilityInstance(dim=3, clients=np.zeros((2, 3)), profits1=np.ones(2), profits2=np.ones(2))
    with pytest.raises(ValueError):
        FacilityInstance(dim=1, clients=np.zeros((2, 1)), profits1=np.ones(3), profits2=np.ones(2))
    with pytest.raises(ValueError):
        FacilityInstance(dim=1, clients=np.zeros((1, 1)), profits1=[-1.0], profits2=[1.0])
    with pytest.raises(ValueError, match="shape"):
        FacilityInstance(dim=2, clients=np.zeros((2, 3)), profits1=np.ones(2), profits2=np.ones(2))
    # the dimension is an integer: 2.0 would name the game facility2.0d
    for bad in (2.0, 1.5, True):
        with pytest.raises(ValueError, match="integer"):
            FacilityInstance(dim=bad, clients=np.zeros((2, 2)), profits1=np.ones(2), profits2=np.ones(2))
    instance = FacilityInstance(dim=np.int64(2), clients=np.zeros((2, 2)), profits1=np.ones(2), profits2=np.ones(2))
    assert type(instance.dim) is int and make_facility(instance).name == "facility2d"
    # non-finite data: every solve of such a game would end diverged
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="client positions"):
            FacilityInstance(dim=1, clients=[[0.0], [bad]], profits1=np.ones(2), profits2=np.ones(2))
        with pytest.raises(ValueError, match="profits"):
            FacilityInstance(dim=1, clients=np.zeros((2, 1)), profits1=[1.0, bad], profits2=np.ones(2))
        with pytest.raises(ValueError, match="profits"):
            FacilityInstance(dim=1, clients=np.zeros((2, 1)), profits1=np.ones(2), profits2=[bad, 1.0])


def test_facility_symmetric_instance():
    instance = FacilityInstance(
        dim=1, clients=np.array([[-1.0], [1.0]]), profits1=np.ones(2), profits2=np.ones(2)
    )
    problem = make_facility(instance)
    for a in (0.3, 1.7, -2.4):
        point = problem.at([a], [-a])
        assert point.value1 == pytest.approx(point.value2, rel=1e-14)


def test_validate_derivatives_needs_a_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        validate_derivatives(get_problem("examp1"), box=(-1.0, 1.0), samples=0, seed=0)


def test_validate_derivatives_gives_up_when_every_draw_is_excluded():
    calls = []

    def exclude_all(x1, x2):
        calls.append(1)
        return True

    with pytest.raises(ValueError, match="consecutive draws"):
        validate_derivatives(
            get_problem("examp1"), box=(-1.0, 1.0), samples=3, seed=0, exclude=exclude_all
        )
    assert len(calls) == nepsolve.diagnostics.MAX_CONSECUTIVE_EXCLUDED


def test_facility_gradient_matches_finite_differences():
    problem = get_problem("facility1d")
    clients = np.array([1.0, -1.0, 3.0])

    def near_client(x1, x2):
        return bool(
            np.min(np.abs(x1[0] - clients)) < 0.05 or np.min(np.abs(x2[0] - clients)) < 0.05
        )

    report = validate_derivatives(
        problem, box=(-5.0, 5.0), samples=20, seed=3, exclude=near_client
    )
    assert report["max_rel_err_grad1"] <= 1e-5
    assert report["max_rel_err_grad2"] <= 1e-5


@pytest.mark.parametrize("dim", [1, 2])
def test_facility_hessian_blocks_closed_form(dim):
    # asymmetric profits, so the two players' blocks differ
    rng = np.random.default_rng(21 + dim)
    clients = rng.uniform(-2.0, 2.0, size=(4, dim))
    instance = FacilityInstance(
        dim=dim,
        clients=clients,
        profits1=np.array([1.0, 2.0, 3.0, 0.5]),
        profits2=np.array([2.0, 1.0, 1.0, 4.0]),
    )
    problem = make_facility(instance)
    near = near_client(clients, radius=0.1)
    checked = 0
    while checked < 50:
        x1, x2 = rng.uniform(-3.0, 3.0, size=(2, dim))
        if near(x1, x2):
            continue
        checked += 1
        point = problem.at(x1, x2)
        blocks = [
            (point.hess11, lambda z: problem.at(z, x2).grad1, x1),
            (point.hess22, lambda z: problem.at(x1, z).grad2, x2),
            (point.mixed12, lambda z: problem.at(x1, z).grad1, x2),
            (point.mixed21, lambda z: problem.at(z, x2).grad2, x1),
        ]
        for block, grad, at in blocks:
            assert block.shape == (dim, dim)
            cd = finite_diff_jacobian(grad, at)
            assert np.linalg.norm(block - cd) <= 1e-6 * max(1.0, np.linalg.norm(block))
        assert _is_symmetric(blocks[0][0]) and _is_symmetric(blocks[1][0])


@pytest.mark.parametrize("problem_id", ["facility1d", "facility2d"])
def test_facility_solves_use_no_finite_differences(problem_id, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences used on a facility problem")

    monkeypatch.setattr(nepsolve.core, "finite_diff_jacobian", forbidden)
    problem = get_problem(problem_id)
    x1, x2 = resolve_x0(problem, problem_id, "paper")
    for run in (solve, solve_newton_kkt):
        report = run(problem, x1, x2)
        if run is solve_newton_kkt and problem_id == "facility2d":
            # the unit Newton steps walk off into the flat tail
            assert report.status is SolveStatus.DIVERGED
            continue
        assert report.status is SolveStatus.CONVERGED
        cls = classify_point(residual_at(problem, report.final_x1, report.final_x2), tol=1e-4)
        assert cls.kind is report.classification.kind


def test_library_runs_stop_at_the_escape_radius():
    # from the paper start the unit Newton steps walk off into the flat tail,
    # where the gradients vanish; a library call stops there as diverged,
    # not as converged 14 iterations later at (36520, 47704, -53166, 37375)
    problem = get_problem("facility2d")
    assert problem.escape_radius == 100.0
    report = solve_newton_kkt(problem, [2.0, 3.0], [-3.0, 2.0])
    assert report.status is SolveStatus.DIVERGED
    assert report.config.divergence_radius == 100.0
    assert max(np.max(np.abs(report.final_x1)), np.max(np.abs(report.final_x2))) > 100.0
    # the smaller of the two radii is in force
    report = solve_newton_kkt(
        problem, [2.0, 3.0], [-3.0, 2.0], SolverConfig(divergence_radius=10.0)
    )
    assert report.config.divergence_radius == 10.0
    for rec in report.trajectory:
        assert max(np.max(np.abs(rec.x1)), np.max(np.abs(rec.x2))) <= 10.0
    with pytest.raises(ValueError):
        NepProblem(n1=1, n2=1, f1=lambda a, b: 0.0, f2=lambda a, b: 0.0, escape_radius=0.0)


def test_facility_undefined_at_client_collision():
    problem = get_problem("facility1d")
    with pytest.raises(NonFiniteEvaluation):
        residual_at(problem, [1.0], [1.0])


def test_facility_relabeling_invariance():
    clients = np.array([[0.5], [-1.5], [2.0]])
    p1 = np.array([1.0, 2.0, 3.0])
    p2 = np.array([2.0, 1.0, 1.0])
    perm = [2, 0, 1]
    a = make_facility(FacilityInstance(dim=1, clients=clients, profits1=p1, profits2=p2))
    b = make_facility(
        FacilityInstance(dim=1, clients=clients[perm], profits1=p1[perm], profits2=p2[perm])
    )
    rng = np.random.default_rng(5)
    for _ in range(10):
        x1, x2 = rng.uniform(-3, 3, size=(2, 1))
        pa, pb = a.at(x1, x2), b.at(x1, x2)
        assert pa.value1 == pytest.approx(pb.value1, rel=1e-12)
        assert pa.value2 == pytest.approx(pb.value2, rel=1e-12)


def test_facility_2d_paper_instance():
    problem = get_problem("facility2d")
    assert problem.n1 == 2 and problem.n2 == 2
    res = residual_at(problem, [0.3, -0.4], [1.2, 0.8])
    assert np.isfinite(res.norm)


def test_facility_1d_solver_finds_local_equilibrium():
    # regression pin: from (2, 1) the iteration settles on the stationary
    # point (2.7373, 0.7539), a per-player local minimizer pair
    problem = get_problem("facility1d")
    report = solve(problem, [2.0], [1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.classification.kind is PointKind.EQUILIBRIUM_CANDIDATE
    assert report.final_x1[0] == pytest.approx(2.7373, abs=1e-3)
    assert report.final_x2[0] == pytest.approx(0.7539, abs=1e-3)


# ---------------------------------------------------------------------------
# random quadratic games
# ---------------------------------------------------------------------------


def test_random_quadratic_deterministic():
    a = random_quadratic_nep(3, 2, seed=42)
    b = random_quadratic_nep(3, 2, seed=42)
    for name in ("A1", "A2", "B1", "B2", "c1", "c2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_random_quadratic_rejects_an_empty_player():
    for n1, n2 in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="dimensions"):
            random_quadratic_nep(n1, n2, 0)


def test_random_quadratic_spd_blocks():
    q = random_quadratic_nep(4, 3, seed=9)
    for A in (q.A1, q.A2):
        out = modified_cholesky(A)
        assert out.shift == 0.0


def test_random_quadratic_equilibrium_solves_system():
    q = random_quadratic_nep(2, 3, seed=17)
    x1, x2 = q.equilibrium()
    res = residual_at(q.to_problem(), x1, x2)
    assert res.norm <= 1e-10


def _with_singular_values(rng, svals):
    n = len(svals)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * svals) @ v.T


def test_gram_certificate_settles_a_well_conditioned_matrix(monkeypatch):
    rng = np.random.default_rng(0)
    K = _with_singular_values(rng, rng.uniform(1.0, 10.0, size=100))

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert nepsolve.suite._gram_certifies(K.copy())
    assert nepsolve.suite._well_conditioned(K)


def test_gram_certificate_defers_moderate_conditioning_to_the_svd():
    # kappa 1e6: below the SVD rule's 1e8, above what the certificate proves
    rng = np.random.default_rng(1)
    svals = np.ones(100)
    svals[-1] = 1e-6
    K = _with_singular_values(rng, svals)
    assert not nepsolve.suite._gram_certifies(K.copy())
    assert nepsolve.suite._well_conditioned(K)


def test_near_singular_full_matrix_is_rejected():
    rng = np.random.default_rng(2)
    svals = np.ones(100)
    svals[-1] = 1e-10
    K = _with_singular_values(rng, svals)
    assert not nepsolve.suite._gram_certifies(K.copy())
    assert not nepsolve.suite._well_conditioned(K)


def test_gram_certificate_accepts_only_what_the_svd_accepts():
    # small full matrices with mixed blocks scaled up to 100x; every other
    # draw has its smallest singular value planted at 1e-10..1e-4 of the
    # largest, across the boundaries of both rules
    rng = np.random.default_rng(2024)
    counts = {"certified": 0, "deferred-accepted": 0, "rejected": 0}
    for draw in range(2000):
        n1, n2 = (int(v) for v in rng.integers(1, 9, size=2))
        scale = 10.0 ** rng.uniform(0.0, 2.0)
        A1 = nepsolve.suite._random_spd(rng, n1)
        A2 = nepsolve.suite._random_spd(rng, n2)
        B1 = scale * rng.uniform(-1.0, 1.0, size=(n1, n2))
        B2 = scale * rng.uniform(-1.0, 1.0, size=(n2, n1))
        K = np.block([[A1, B1], [B2, A2]])
        if draw % 2:
            u, svals, vt = np.linalg.svd(K)
            svals[-1] = svals[0] * 10.0 ** rng.uniform(-10.0, -4.0)
            K = (u * svals) @ vt
        svals = np.linalg.svd(K, compute_uv=False)
        svd_accepts = svals[-1] > 1e-8 * svals[0]
        if nepsolve.suite._gram_certifies(K.copy()):
            assert svd_accepts, (draw, svals[-1] / svals[0])
            counts["certified"] += 1
        else:
            counts["deferred-accepted" if svd_accepts else "rejected"] += 1
    assert min(counts.values()) >= 100, counts


def test_generation_fails_after_100_rejected_draws(monkeypatch):
    calls = []

    def reject(K):
        calls.append(K.shape)
        return False

    monkeypatch.setattr(nepsolve.suite, "_well_conditioned", reject)
    with pytest.raises(GenerationFailure):
        random_quadratic_nep(2, 3, seed=0)
    assert calls == [(5, 5)] * 100


#: the 11 games of a seed-0 quadratic-dense benchmark round
SEED0_DENSE_IDS = (
    "quadratic:1826701615:150x150",
    "quadratic:1367864807:150x150",
    "quadratic:1097657232:150x150",
    "quadratic:579362556:150x150",
    "quadratic:661058652:200x200",
    "quadratic:87989972:250x250",
    "quadratic:161576974:250x250",
    "quadratic:35492827:20x20",
    "quadratic:376383645:20x20",
    "quadratic:1:40x40",
    "quadratic:0:100x100",
)


def test_seed0_dense_games_need_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for game_id in SEED0_DENSE_IDS:
        get_problem(game_id)
    assert len(calls) == 0


def _game_digest(game_id):
    _, seed, dims = game_id.split(":")
    n1, n2 = (int(v) for v in dims.split("x"))
    q = random_quadratic_nep(n1, n2, int(seed))
    h = hashlib.sha256()
    for a in (q.A1, q.A2, q.B1, q.B2, q.c1, q.c2):
        h.update(a.tobytes())
    return h.hexdigest()


#: sha256 of the bytes of A1, A2, B1, B2, c1, c2, in this order. Games up to
#: 40 x 40 have these bits at any BLAS thread count; the larger ones were
#: recorded with OpenBLAS on one thread, because the QR and the products
#: of `_random_spd` change their bits with the thread count
GAME_DIGESTS = {
    "quadratic:0:5x5": "555d28c961db69a34fe5582f6c56c586e284deef8169c10db9da57f9e01f1e4b",
    "quadratic:3:30x30": "e487310aeb11f59963198da8edbb46fa43faad0a48efb750912c3de01efd4c17",
    "quadratic:1:40x40": "c9f2b23a0ca507c5e29ad6df34b8583ff6ddb18a3ffd68965ff80c2ef1547d62",
}
GAME_DIGESTS_ONE_THREAD = {
    "quadratic:0:100x100": "5587a3f032c548325381dd80cdd31368c72ce3736f56549feaaedc21569ae11e",
    "quadratic:1:150x150": "8668a386cc5d3aedbadd555966c061d0301d3a1f8941f0067343fd7b33dba007",
    "quadratic:87989972:250x250": "a3e5267fe276aa73902653cccdbae1ad2a62a1ac32c554651e4d655ea64625e7",
}


@pytest.mark.parametrize("game_id", sorted(GAME_DIGESTS))
def test_generated_game_bits(game_id):
    assert _game_digest(game_id) == GAME_DIGESTS[game_id]


def test_generated_dense_game_bits_on_one_blas_thread():
    src = str(Path(nepsolve.suite.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {tests!r}]; "
        "from test_suite import _game_digest; "
        f"[print(g, _game_digest(g)) for g in {sorted(GAME_DIGESTS_ONE_THREAD)!r}]"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    digests = dict(line.split() for line in out.stdout.splitlines())
    assert digests == GAME_DIGESTS_ONE_THREAD


def test_registry_ids_resolve():
    for pid in ("examp1", "examp2", "examp3", "examp4", "examp5", "facility1d", "facility2d"):
        assert get_problem(pid).name == pid
        # every call builds a new problem: runs never share an oracle or its caches
        assert get_problem(pid) is not get_problem(pid)
    for pid in ("examp1", "examp2", "examp3", "examp4", "examp5"):
        # nor an array: writing into one build's block leaves another's alone
        first, second = get_problem(pid), get_problem(pid)
        before = second.hess11([0.5], [0.5]).copy()
        first.hess11([0.5], [0.5])[...] = 99.0
        assert np.array_equal(second.hess11([0.5], [0.5]), before)
    for pid in ("facility1d", "facility2d"):
        assert get_problem(pid).point is not get_problem(pid).point
    problem = get_problem("quadratic:7:2x3")
    assert problem.n1 == 2 and problem.n2 == 3


def test_registry_rejects_unknown_and_malformed():
    with pytest.raises(UnknownProblemId):
        get_problem("examp9")
    # one spelling per game: each id is the game's name and output file stem
    non_canonical = (
        "quadratic:1_0:5x5",
        "quadratic: 3:5x5",
        "quadratic:+3:5x5",
        "quadratic:03:5x5",
        "quadratic:3:05x5",
        "quadratic:\u0663:5x5",
        "quadratic:3:5x5 ",
    )
    for bad in ("quadratic:7:2by3", "quadratic:0:0x3", "quadratic:-1:2x2") + non_canonical:
        with pytest.raises(UnknownProblemId):
            get_problem(bad)


# ---------------------------------------------------------------------------
# the fused facility point against the per-oracle formulas
# ---------------------------------------------------------------------------

POINT_QUANTITIES = ("value1", "value2", "grad1", "grad2", "hess11", "hess22", "mixed12", "mixed21")


def per_oracle_facility(instance):
    """The facility formulas as eight separate oracles, each computing the
    client distances itself: the form the fused point must reproduce bit
    for bit."""
    z, b1, b2 = instance.clients, instance.profits1, instance.profits2

    def sq_dists(own, other):
        du = own - z
        dv = other - z
        return du, dv, np.einsum("ij,ij->i", du, du), np.einsum("ij,ij->i", dv, dv)

    def value(b, own, other):
        _, _, u, v = sq_dists(own, other)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = b * u / (u + v)
        return float(np.sum(vals))

    def grad_own(b, own, other):
        du, _, u, v = sq_dists(own, other)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = 2.0 * b * v / (u + v) ** 2
        return (w[:, None] * du).sum(axis=0)

    def hess_own(b, own, other):
        du, _, u, v = sq_dists(own, other)
        s = u + v
        with np.errstate(divide="ignore", invalid="ignore"):
            w = 2.0 * b * v / s**2
            c = 8.0 * b * v / s**3
        return w.sum() * np.eye(own.size) - (c[:, None] * du).T @ du

    def hess_mixed(b, own, other):
        du, dv, u, v = sq_dists(own, other)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = 4.0 * b * (u - v) / (u + v) ** 3
        return (c[:, None] * du).T @ dv

    return {
        "value1": lambda x1, x2: value(b1, x1, x2),
        "value2": lambda x1, x2: value(b2, x2, x1),
        "grad1": lambda x1, x2: grad_own(b1, x1, x2),
        "grad2": lambda x1, x2: grad_own(b2, x2, x1),
        "hess11": lambda x1, x2: hess_own(b1, x1, x2),
        "hess22": lambda x1, x2: hess_own(b2, x2, x1),
        "mixed12": lambda x1, x2: hess_mixed(b1, x1, x2),
        "mixed21": lambda x1, x2: hess_mixed(b2, x2, x1),
    }


def facility_instances():
    """facility1d, facility2d and the asymmetric-profit instances of
    test_facility_hessian_blocks_closed_form."""
    instances = {
        "facility1d": FacilityInstance(
            dim=1,
            clients=np.array([[1.0], [-1.0], [3.0]]),
            profits1=np.ones(3),
            profits2=np.ones(3),
        ),
        "facility2d": FacilityInstance(
            dim=2,
            clients=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
            profits1=np.array([1.0, 2.0, 1.0, 1.0]),
            profits2=np.array([1.0, 2.0, 2.0, 3.0]),
        ),
    }
    for dim in (1, 2):
        instances[f"asymmetric{dim}d"] = FacilityInstance(
            dim=dim,
            clients=np.random.default_rng(21 + dim).uniform(-2.0, 2.0, size=(4, dim)),
            profits1=np.array([1.0, 2.0, 3.0, 0.5]),
            profits2=np.array([2.0, 1.0, 1.0, 4.0]),
        )
    return instances


def same_bits(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and a.hex() == b.hex()
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(facility_instances()))
def test_facility_point_matches_per_oracle_formulas(name):
    instance = facility_instances()[name]
    problem = make_facility(instance)
    formulas = per_oracle_facility(instance)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x1, x2 = rng.uniform(-3.0, 3.0, size=(2, instance.dim))
        point = problem.at(x1, x2)
        for quantity in POINT_QUANTITIES:
            expected = formulas[quantity](x1, x2)
            assert same_bits(getattr(point, quantity), expected), (name, quantity, x1, x2)


@pytest.mark.parametrize("name", sorted(facility_instances()))
def test_facility_points_sharing_halves_match_per_oracle_formulas(name):
    # in a line search's order, the iterate and then, per trial, (x1, y2),
    # (y1, y2) and (y1, x2): points built from a half that an earlier point
    # computed give the bits of the per-oracle formulas too
    instance = facility_instances()[name]
    problem = make_facility(instance)
    formulas = per_oracle_facility(instance)
    rng = np.random.default_rng(8)
    x1, x2 = rng.uniform(-3.0, 3.0, size=(2, instance.dim))
    for _ in range(50):
        y1, y2 = rng.uniform(-3.0, 3.0, size=(2, instance.dim))
        for a, b in ((x1, x2), (x1, y2), (y1, y2), (y1, x2)):
            point = problem.at(a, b)
            for quantity in POINT_QUANTITIES:
                expected = formulas[quantity](a, b)
                assert same_bits(getattr(point, quantity), expected), (name, quantity, a, b)
        if rng.uniform() < 0.5:  # the trial is accepted
            x1, x2 = y1, y2


def test_facility_halves_shared_between_threads_stay_paired():
    # one problem read from more threads than cores, switching often: every
    # point still gets the halves of its own decisions
    instance = facility_instances()["facility2d"]
    problem = make_facility(instance)
    formulas = per_oracle_facility(instance)
    # a few decisions, so that the threads keep hitting each other's halves
    decisions = np.random.default_rng(9).uniform(-3.0, 3.0, size=(6, 2))
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            i, j = rng.integers(len(decisions), size=2)
            point = problem.at(decisions[i], decisions[j])
            if not same_bits(point.grad1, formulas["grad1"](decisions[i], decisions[j])):
                wrong.append((i, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_facility_point_at_client_collision_is_non_finite():
    # both facilities on the client (0, 1): every quantity is 0/0 there, and
    # the errstate guards keep that a value rather than a warning
    problem = get_problem("facility2d")
    client = np.array([0.0, 1.0])
    point = problem.at(client, client)
    for quantity in POINT_QUANTITIES:
        assert not np.all(np.isfinite(getattr(point, quantity))), quantity
    report = solve(problem, client, client)
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == 0
