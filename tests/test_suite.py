import numpy as np
import pytest

from nepsolve import (
    FacilityInstance,
    NonFiniteEvaluation,
    PointKind,
    SolveStatus,
    UnknownProblemId,
    classify_point,
    evaluate_residual,
    get_problem,
    make_example,
    make_facility,
    make_facility_2d_paper,
    modified_cholesky,
    random_quadratic_nep,
    solve,
    validate_derivatives,
)

KNOWN_EQUILIBRIA = {
    1: (2.0, 1.0),
    2: (4.0 / 7.0, 33.0 / 7.0),
    4: (0.7, 0.6),
    5: (0.0, 0.0),
}


@pytest.mark.parametrize("example_id,point", sorted(KNOWN_EQUILIBRIA.items()))
def test_examples_known_equilibria(example_id, point):
    problem = make_example(example_id)
    res = evaluate_residual(problem, [point[0]], [point[1]])
    assert res.norm <= 1e-12
    cls = classify_point(problem, [point[0]], [point[1]], tol=1e-6)
    assert cls.kind is PointKind.EQUILIBRIUM_CANDIDATE


def test_example3_has_no_equilibrium():
    problem = make_example(3)
    res = evaluate_residual(problem, [3.2], [-1.4])
    assert res.norm <= 1e-12
    cls = classify_point(problem, [3.2], [-1.4], tol=1e-6)
    assert cls.kind is PointKind.NON_EQUILIBRIUM_STATIONARY


def test_example4_null_own_blocks():
    problem = make_example(4)
    assert np.array_equal(problem.hessian11([0.3], [0.9]), [[0.0]])
    assert np.array_equal(problem.hessian22([-2.0], [5.0]), [[0.0]])


def test_unknown_example_id():
    with pytest.raises(UnknownProblemId):
        make_example(6)


@pytest.mark.parametrize("example_id", [1, 2, 3, 4, 5])
def test_example_derivatives_match_finite_differences(example_id):
    report = validate_derivatives(
        make_example(example_id), box=(-5.0, 5.0), samples=20, seed=11
    )
    assert report["max_rel_err_grad1"] <= 1e-5
    assert report["max_rel_err_grad2"] <= 1e-5
    assert report["max_hessian_asymmetry"] <= 1e-10


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


def test_facility_symmetric_instance():
    instance = FacilityInstance(
        dim=1, clients=np.array([[-1.0], [1.0]]), profits1=np.ones(2), profits2=np.ones(2)
    )
    problem = make_facility(instance)
    for a in (0.3, 1.7, -2.4):
        assert problem.value1([a], [-a]) == pytest.approx(problem.value2([a], [-a]), rel=1e-14)


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


def test_facility_undefined_at_client_collision():
    problem = get_problem("facility1d")
    with pytest.raises(NonFiniteEvaluation):
        evaluate_residual(problem, [1.0], [1.0])


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
        assert a.value1(x1, x2) == pytest.approx(b.value1(x1, x2), rel=1e-12)
        assert a.value2(x1, x2) == pytest.approx(b.value2(x1, x2), rel=1e-12)


def test_facility_2d_paper_instance():
    problem = make_facility_2d_paper()
    assert problem.n1 == 2 and problem.n2 == 2
    res = evaluate_residual(problem, [0.3, -0.4], [1.2, 0.8])
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


def test_random_quadratic_spd_blocks():
    q = random_quadratic_nep(4, 3, seed=9)
    for A in (q.A1, q.A2):
        out = modified_cholesky(A, floor=1e-8)
        assert out.shift == 0.0


def test_random_quadratic_equilibrium_solves_system():
    q = random_quadratic_nep(2, 3, seed=17)
    x1, x2 = q.equilibrium()
    res = evaluate_residual(q.to_problem(), x1, x2)
    assert res.norm <= 1e-10


def test_registry_ids_resolve():
    for pid in ("examp1", "examp2", "examp3", "examp4", "examp5", "facility1d", "facility2d"):
        assert get_problem(pid).name == pid
    problem = get_problem("quadratic:7:2x3")
    assert problem.n1 == 2 and problem.n2 == 3


def test_registry_rejects_unknown_and_malformed():
    with pytest.raises(UnknownProblemId):
        get_problem("examp9")
    for bad in ("quadratic:7:2by3", "quadratic:0:0x3", "quadratic:-1:2x2"):
        with pytest.raises(UnknownProblemId):
            get_problem(bad)
