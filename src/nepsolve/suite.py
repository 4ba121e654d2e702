"""Built-in problem instances: five one-dimensional games, the competitive
facility location model in 1-D and 2-D, and a seeded generator of strictly
convex quadratic games."""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import NepProblem


class UnknownProblemId(ValueError):
    """Problem identifier not in the registry."""


class GenerationFailure(RuntimeError):
    """Random instance generation kept producing singular full matrices."""


def make_example(example_id):
    """One of the five one-dimensional benchmark games (ids 1..5).

    All return analytic gradients and all four second-derivative blocks.
    """
    builders = {
        1: _example1,
        2: _example2,
        3: _example3,
        4: _example4,
        5: _example5,
    }
    if example_id not in builders:
        raise UnknownProblemId(f"example id must be 1..5, got {example_id!r}")
    return builders[example_id]()


def _example1():
    # strictly convex quadratic pair, diagonally dominant; equilibrium (2, 1)
    return NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: x1[0] ** 2 + x1[0] * x2[0] - 5.0 * x1[0],
        f2=lambda x1, x2: 1.5 * x2[0] ** 2 - x1[0] * x2[0] - x2[0],
        grad1=lambda x1, x2: np.array([2.0 * x1[0] + x2[0] - 5.0]),
        grad2=lambda x1, x2: np.array([3.0 * x2[0] - x1[0] - 1.0]),
        hess11=lambda x1, x2: np.array([[2.0]]),
        hess22=lambda x1, x2: np.array([[3.0]]),
        hess12_f1=lambda x1, x2: np.array([[1.0]]),
        hess21_f2=lambda x1, x2: np.array([[-1.0]]),
        name="examp1",
    )


def _example2():
    # strictly convex quadratic pair whose best-response iteration expands;
    # equilibrium (4/7, 33/7)
    return NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: 0.25 * x1[0] ** 2 + x1[0] * x2[0] - 5.0 * x1[0],
        f2=lambda x1, x2: x2[0] ** 2 / 6.0 - x1[0] * x2[0] - x2[0],
        grad1=lambda x1, x2: np.array([0.5 * x1[0] + x2[0] - 5.0]),
        grad2=lambda x1, x2: np.array([x2[0] / 3.0 - x1[0] - 1.0]),
        hess11=lambda x1, x2: np.array([[0.5]]),
        hess22=lambda x1, x2: np.array([[1.0 / 3.0]]),
        hess12_f1=lambda x1, x2: np.array([[1.0]]),
        hess21_f2=lambda x1, x2: np.array([[-1.0]]),
        name="examp2",
    )


def _example3():
    # player 2 maximizes in disguise: no equilibrium, a stationary point at
    # (3.2, -1.4)
    return NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: x1[0] ** 2 + x1[0] * x2[0] - 5.0 * x1[0],
        f2=lambda x1, x2: -1.5 * x2[0] ** 2 - x1[0] * x2[0] - x2[0],
        grad1=lambda x1, x2: np.array([2.0 * x1[0] + x2[0] - 5.0]),
        grad2=lambda x1, x2: np.array([-3.0 * x2[0] - x1[0] - 1.0]),
        hess11=lambda x1, x2: np.array([[2.0]]),
        hess22=lambda x1, x2: np.array([[-3.0]]),
        hess12_f1=lambda x1, x2: np.array([[1.0]]),
        hess21_f2=lambda x1, x2: np.array([[-1.0]]),
        name="examp3",
    )


def _example4():
    # mixed-strategy vaccine game: bilinear objectives, null per-player
    # Hessians, equilibrium (0.7, 0.6)
    return NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: -x1[0] * (0.6 - x2[0]),
        f2=lambda x1, x2: x2[0] * (0.7 - x1[0]),
        grad1=lambda x1, x2: np.array([x2[0] - 0.6]),
        grad2=lambda x1, x2: np.array([0.7 - x1[0]]),
        hess11=lambda x1, x2: np.array([[0.0]]),
        hess22=lambda x1, x2: np.array([[0.0]]),
        hess12_f1=lambda x1, x2: np.array([[1.0]]),
        hess21_f2=lambda x1, x2: np.array([[-1.0]]),
        name="examp4",
    )


def _example5():
    # cubic pair: equilibrium at (0, 0), non-equilibrium stationary point at
    # (-1, -1)
    return NepProblem(
        n1=1,
        n2=1,
        f1=lambda x1, x2: x1[0] ** 3 * x2[0] ** 2 / 3.0 + 0.5 * x1[0] ** 2,
        f2=lambda x1, x2: x1[0] ** 2 * x2[0] ** 3 / 3.0 + 0.5 * x2[0] ** 2,
        grad1=lambda x1, x2: np.array([x1[0] ** 2 * x2[0] ** 2 + x1[0]]),
        grad2=lambda x1, x2: np.array([x1[0] ** 2 * x2[0] ** 2 + x2[0]]),
        hess11=lambda x1, x2: np.array([[2.0 * x1[0] * x2[0] ** 2 + 1.0]]),
        hess22=lambda x1, x2: np.array([[2.0 * x1[0] ** 2 * x2[0] + 1.0]]),
        hess12_f1=lambda x1, x2: np.array([[2.0 * x1[0] ** 2 * x2[0]]]),
        hess21_f2=lambda x1, x2: np.array([[2.0 * x1[0] * x2[0] ** 2]]),
        name="examp5",
    )


# ---------------------------------------------------------------------------
# facility location
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FacilityInstance:
    """Clients at positions z_j with per-player profits for serving them."""

    dim: int
    clients: np.ndarray  # (N, dim)
    profits1: np.ndarray  # (N,)
    profits2: np.ndarray  # (N,)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("spatial dimension must be 1 or 2")
        clients = np.atleast_2d(np.asarray(self.clients, dtype=float))
        if clients.shape[1] != self.dim or clients.shape[0] < 1:
            raise ValueError(f"clients must have shape (N, {self.dim}) with N >= 1")
        p1 = np.atleast_1d(np.asarray(self.profits1, dtype=float))
        p2 = np.atleast_1d(np.asarray(self.profits2, dtype=float))
        if p1.shape != (clients.shape[0],) or p2.shape != (clients.shape[0],):
            raise ValueError("profit lists must match the client count")
        if np.any(p1 <= 0) or np.any(p2 <= 0):
            raise ValueError("profits must be positive")
        object.__setattr__(self, "clients", clients)
        object.__setattr__(self, "profits1", p1)
        object.__setattr__(self, "profits2", p2)


# Player i's share is f_i = sum_j b_j u_j / s_j, with u_j the player's own
# squared distance to client j, v_j the opponent's and s_j = u_j + v_j.
# Player 2's formulas are player 1's with the roles of u and v (and of the
# two offsets x - z_j) swapped; u + v and v + u have the same bits.


def _share(b, u, s):
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = b * u / s
    return float(vals.sum())


def _share_grad(b, du, v, s):
    # d/d own of f: sum_j 2 b_j (own - z_j) v_j / s_j^2
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 2.0 * b * v / s**2
    return (w[:, None] * du).sum(axis=0)


def _share_hess_own(b, du, v, s):
    # d/d own of the own gradient: sum_j (2 b_j v_j / s_j^2) I - (8 b_j v_j / s_j^3) du_j du_j^T
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 2.0 * b * v / s**2
        c = 8.0 * b * v / s**3
    return w.sum() * np.eye(du.shape[1]) - (c[:, None] * du).T @ du


def _share_hess_mixed(b, du, dv, u, v, s):
    # d/d other of the own gradient: sum_j 4 b_j (u_j - v_j) / s_j^3 du_j dv_j^T
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 4.0 * b * (u - v) / s**3
    return (c[:, None] * du).T @ dv


class _FacilityPoint:
    """The facility game at (x1, x2): the client offsets x1 - z and x2 - z,
    their squared lengths u and v and s = u + v are computed here, once;
    every other quantity when it is read."""

    __slots__ = ("_b1", "_b2", "_d1", "_d2", "_u", "_v", "_s")

    def __init__(self, instance, x1, x2):
        self._b1 = instance.profits1
        self._b2 = instance.profits2
        self._d1 = d1 = x1 - instance.clients
        self._d2 = d2 = x2 - instance.clients
        self._u = u = np.einsum("ij,ij->i", d1, d1)
        self._v = v = np.einsum("ij,ij->i", d2, d2)
        self._s = u + v

    @property
    def value1(self):
        return _share(self._b1, self._u, self._s)

    @property
    def value2(self):
        return _share(self._b2, self._v, self._s)

    @property
    def grad1(self):
        return _share_grad(self._b1, self._d1, self._v, self._s)

    @property
    def grad2(self):
        return _share_grad(self._b2, self._d2, self._u, self._s)

    @property
    def hess11(self):
        return _share_hess_own(self._b1, self._d1, self._v, self._s)

    @property
    def hess22(self):
        return _share_hess_own(self._b2, self._d2, self._u, self._s)

    @property
    def mixed12(self):
        return _share_hess_mixed(self._b1, self._d1, self._d2, self._u, self._v, self._s)

    @property
    def mixed21(self):
        return _share_hess_mixed(self._b2, self._d2, self._d1, self._v, self._u, self._s)


def make_facility(instance):
    """Competitive facility location game for a client/profit instance.

    Objectives, gradients and all four second-derivative blocks are
    analytic, and the fused `point` oracle gives them all, computing the
    client distances once per point; f1 and f2 are read off it. The game
    is undefined (non-finite) when both facilities sit exactly on one client.
    A facility 100 or more units from every client has walked off into the
    flat tail, where the gradients vanish without any equilibrium: the
    escape radius is 100.
    """
    point = partial(_FacilityPoint, instance)
    return NepProblem(
        n1=instance.dim,
        n2=instance.dim,
        f1=lambda x1, x2: point(x1, x2).value1,
        f2=lambda x1, x2: point(x1, x2).value2,
        name=f"facility{instance.dim}d",
        point=point,
        escape_radius=100.0,
    )


def make_facility_1d_instance():
    return FacilityInstance(
        dim=1,
        clients=np.array([[1.0], [-1.0], [3.0]]),
        profits1=np.ones(3),
        profits2=np.ones(3),
    )


def make_facility_2d_paper():
    """The 2-D benchmark instance: four clients on the axes, asymmetric profits."""
    instance = FacilityInstance(
        dim=2,
        clients=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        profits1=np.array([1.0, 2.0, 1.0, 1.0]),
        profits2=np.array([1.0, 2.0, 2.0, 3.0]),
    )
    return make_facility(instance)


# ---------------------------------------------------------------------------
# random strictly convex quadratic games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticNep:
    """f_i(x_i, x_o) = 1/2 x_i^T A_i x_i + (B_i x_o - c_i)^T x_i with A_i SPD."""

    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    @property
    def n1(self):
        return self.A1.shape[0]

    @property
    def n2(self):
        return self.A2.shape[0]

    def full_matrix(self):
        return np.block([[self.A1, self.B1], [self.B2, self.A2]])

    def equilibrium(self):
        """Unique stationary point, solving the stacked linear system."""
        sol = np.linalg.solve(self.full_matrix(), np.concatenate([self.c1, self.c2]))
        return sol[: self.n1], sol[self.n1 :]

    def to_problem(self, name="quadratic"):
        A1, A2, B1, B2, c1, c2 = self.A1, self.A2, self.B1, self.B2, self.c1, self.c2
        return NepProblem(
            n1=self.n1,
            n2=self.n2,
            f1=lambda x1, x2: 0.5 * x1 @ A1 @ x1 + (B1 @ x2 - c1) @ x1,
            f2=lambda x1, x2: 0.5 * x2 @ A2 @ x2 + (B2 @ x1 - c2) @ x2,
            grad1=lambda x1, x2: A1 @ x1 + B1 @ x2 - c1,
            grad2=lambda x1, x2: A2 @ x2 + B2 @ x1 - c2,
            hess11=lambda x1, x2: A1,
            hess22=lambda x1, x2: A2,
            hess12_f1=lambda x1, x2: B1,
            hess21_f2=lambda x1, x2: B2,
            name=name,
        )


def _random_spd(rng, n):
    # a random orthogonal basis with eigenvalues drawn from [1, 10)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(1.0, 10.0, size=n)
    A = (q * eigs) @ q.T
    return 0.5 * (A + A.T)


def random_quadratic_nep(n1, n2, seed):
    """Seeded strictly convex quadratic game with a verified nonsingular
    full matrix (the mixed blocks are resampled on failure)."""
    if n1 < 1 or n2 < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    A1 = _random_spd(rng, n1)
    A2 = _random_spd(rng, n2)
    c1 = rng.uniform(-1.0, 1.0, size=n1)
    c2 = rng.uniform(-1.0, 1.0, size=n2)
    for _ in range(100):
        B1 = rng.uniform(-1.0, 1.0, size=(n1, n2))
        B2 = rng.uniform(-1.0, 1.0, size=(n2, n1))
        full = np.block([[A1, B1], [B2, A2]])
        svals = np.linalg.svd(full, compute_uv=False)
        if svals[-1] > 1e-8 * svals[0]:
            return QuadraticNep(A1=A1, A2=A2, B1=B1, B2=B2, c1=c1, c2=c2)
    raise GenerationFailure("could not draw a nonsingular full matrix in 100 tries")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def get_problem(problem_id):
    """Resolve a problem identifier.

    Known ids: examp1..examp5, facility1d, facility2d, and
    quadratic:<seed>:<n1>x<n2>.
    """
    if problem_id in ("examp1", "examp2", "examp3", "examp4", "examp5"):
        return make_example(int(problem_id[-1]))
    if problem_id == "facility1d":
        return make_facility(make_facility_1d_instance())
    if problem_id == "facility2d":
        return make_facility_2d_paper()
    if problem_id.startswith("quadratic:"):
        try:
            _, seed_s, dims = problem_id.split(":")
            n1_s, n2_s = dims.split("x")
            seed, n1, n2 = int(seed_s), int(n1_s), int(n2_s)
            if seed < 0 or n1 < 1 or n2 < 1:
                raise ValueError(problem_id)
        except ValueError:
            raise UnknownProblemId(
                f"malformed quadratic id {problem_id!r}, expected quadratic:<seed>:<n1>x<n2> "
                "with seed >= 0 and n1, n2 >= 1"
            ) from None
        return random_quadratic_nep(n1, n2, seed).to_problem(name=problem_id)
    raise UnknownProblemId(f"unknown problem id {problem_id!r}")
