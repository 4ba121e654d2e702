"""Built-in problem instances: five one-dimensional games, the competitive
facility location model in 1-D and 2-D, and a seeded generator of strictly
convex quadratic games."""

import re
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core import NepProblem, _as_int
from .linalg import CHOL_ROUNDING, lapack


class UnknownProblemId(ValueError):
    """Problem identifier not in the registry."""


class GenerationFailure(RuntimeError):
    """Random instance generation kept producing singular full matrices."""


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
        object.__setattr__(self, "dim", _as_int(self.dim, "dim"))
        if self.dim not in (1, 2):
            raise ValueError("spatial dimension must be 1 or 2")
        clients = np.atleast_2d(np.asarray(self.clients, dtype=float))
        if clients.shape[1] != self.dim or clients.shape[0] < 1:
            raise ValueError(f"clients must have shape (N, {self.dim}) with N >= 1")
        p1 = np.atleast_1d(np.asarray(self.profits1, dtype=float))
        p2 = np.atleast_1d(np.asarray(self.profits2, dtype=float))
        if p1.shape != (clients.shape[0],) or p2.shape != (clients.shape[0],):
            raise ValueError("profit lists must match the client count")
        if not np.all(np.isfinite(clients)):
            raise ValueError("client positions must be finite")
        if not all(np.all(np.isfinite(p) & (p > 0)) for p in (p1, p2)):
            raise ValueError("profits must be finite and positive")
        object.__setattr__(self, "clients", clients)
        object.__setattr__(self, "profits1", p1)
        object.__setattr__(self, "profits2", p2)


# Player i's share is f_i = sum_j b_j u_j / s_j, with u_j the player's own
# squared distance to client j, v_j the opponent's and s_j = u_j + v_j.
# Player 2's formulas are player 1's with the roles of u and v (and of the
# two offsets x - z_j) swapped; u + v and v + u have the same bits.
#
#   f_1         = sum_j b_j u_j / s_j
#   grad_1 f_1  = sum_j w_j (x1 - z_j),  w_j = 2 b_j v_j / s_j^2
#   hess_11 f_1 = sum_j w_j I - sum_j (8 b_j v_j / s_j^3) (x1 - z_j)(x1 - z_j)^T
#   hess_12 f_1 = sum_j (4 b_j (u_j - v_j) / s_j^3) (x1 - z_j)(x2 - z_j)^T


class _Half:
    """One player's side of a facility point at x: the client offsets
    x - z_j, their squared lengths u_j, and the two products of u_j that
    the point's formulas divide, b_j u_j for the player's own share and
    2 b'_j u_j for the opponent's gradient weight (b the player's profits,
    b' the opponent's)."""

    __slots__ = ("offsets", "sq", "share", "weight")

    def __init__(self, x, clients, profits, other_profits_x2):
        self.offsets = d = x - clients
        self.sq = u = np.einsum("ij,ij->i", d, d)
        self.share = profits * u
        self.weight = other_profits_x2 * u


def _half(clients, profits, other_profits_x2, key):
    """The half of the decision whose float64 bytes are key."""
    return _Half(np.frombuffer(key), clients, profits, other_profits_x2)


class _FacilityOracle:
    """The facility game's point oracle: oracle(x1, x2) is the game at
    (x1, x2), built from each player's half. The instance's clients and
    profits are read once, when the oracle is made.

    Each player's last two halves are kept in an lru_cache(maxsize=2),
    keyed by the bytes of the decision. A line-search trial evaluates
    (x1, y2), (y1, y2) and (y1, x2), in this order, so each player meets
    the iterate's decision and the trial's, and only y1 and y2 are new. The
    next iterate is the accepted trial point, whose halves are both kept.
    The cache returns the half stored for the key it was asked, so a
    problem shared between threads never pairs a decision with another
    decision's half.
    """

    def __init__(self, instance):
        b1, b2 = instance.profits1, instance.profits2
        self.eye = np.eye(instance.dim)
        self.profits1_x4, self.profits2_x4 = 4.0 * b1, 4.0 * b2
        self.profits1_x8, self.profits2_x8 = 8.0 * b1, 8.0 * b2
        self.half1 = lru_cache(maxsize=2)(partial(_half, instance.clients, b1, 2.0 * b2))
        self.half2 = lru_cache(maxsize=2)(partial(_half, instance.clients, b2, 2.0 * b1))

    def __call__(self, x1, x2):
        h1 = self.half1(np.asarray(x1, dtype=float).tobytes())
        h2 = self.half2(np.asarray(x2, dtype=float).tobytes())
        return _FacilityPoint(self, h1, h2)


class _FacilityPoint:
    """The facility game at (x1, x2), from the players' halves h1 and h2.

    s = u + v is computed here. The first read of a value or gradient
    computes the divisions of both players' shares and gradient weights;
    the first read of a Hessian block those of the four second-order
    weights, each pass under one errstate (a facility on a client makes
    0/0 a value, not a warning). The matrices are formed when read.
    """

    __slots__ = ("_oracle", "_h1", "_h2", "_s", "_first", "_second")

    def __init__(self, oracle, h1, h2):
        self._oracle = oracle
        self._h1 = h1
        self._h2 = h2
        self._s = h1.sq + h2.sq
        self._first = None
        self._second = None

    def _first_order(self):
        # players 1 and 2's share terms b u / s, then their gradient weights
        # 2 b v / s^2
        if self._first is None:
            h1, h2, s = self._h1, self._h2, self._s
            with np.errstate(divide="ignore", invalid="ignore"):
                ss = s**2
                self._first = (h1.share / s, h2.share / s, h2.weight / ss, h1.weight / ss)
        return self._first

    def _second_order(self):
        # players 1 and 2's own-block weights 8 b v / s^3, then their
        # mixed-block weights 4 b (u - v) / s^3
        if self._second is None:
            o, u, v = self._oracle, self._h1.sq, self._h2.sq
            with np.errstate(divide="ignore", invalid="ignore"):
                s3 = self._s**3
                self._second = (
                    o.profits1_x8 * v / s3,
                    o.profits2_x8 * u / s3,
                    o.profits1_x4 * (u - v) / s3,
                    o.profits2_x4 * (v - u) / s3,
                )
        return self._second

    @property
    def value1(self):
        return float(self._first_order()[0].sum())

    @property
    def value2(self):
        return float(self._first_order()[1].sum())

    @property
    def grad1(self):
        return (self._first_order()[2][:, None] * self._h1.offsets).sum(axis=0)

    @property
    def grad2(self):
        return (self._first_order()[3][:, None] * self._h2.offsets).sum(axis=0)

    @property
    def hess11(self):
        d1 = self._h1.offsets
        c = self._second_order()[0]
        return self._first_order()[2].sum() * self._oracle.eye - (c[:, None] * d1).T @ d1

    @property
    def hess22(self):
        d2 = self._h2.offsets
        c = self._second_order()[1]
        return self._first_order()[3].sum() * self._oracle.eye - (c[:, None] * d2).T @ d2

    @property
    def mixed12(self):
        c = self._second_order()[2]
        return (c[:, None] * self._h1.offsets).T @ self._h2.offsets

    @property
    def mixed21(self):
        c = self._second_order()[3]
        return (c[:, None] * self._h2.offsets).T @ self._h1.offsets


def make_facility(instance):
    """Competitive facility location game for a client/profit instance.

    Objectives, gradients and all four second-derivative blocks are
    analytic, and the fused `point` oracle gives them all; f1 and f2 are
    read off it. A point is built from the two players' halves, each
    player's client offsets and squared distances, and the oracle keeps
    each player's last two halves in a functools.lru_cache: a line-search
    trial computes only the halves of the trial decisions, and the next
    iterate, the accepted trial point, computes none. The game is undefined
    (non-finite) when both facilities sit exactly on one client. A facility
    100 or more units from every client has walked off into the flat tail,
    where the gradients vanish without any equilibrium: the escape radius
    is 100.
    """
    point = _FacilityOracle(instance)
    return NepProblem(
        n1=instance.dim,
        n2=instance.dim,
        f1=lambda x1, x2: point(x1, x2).value1,
        f2=lambda x1, x2: point(x1, x2).value2,
        name=f"facility{instance.dim}d",
        point=point,
        escape_radius=100.0,
    )


def _facility1d():
    clients = np.array([[1.0], [-1.0], [3.0]])
    return make_facility(FacilityInstance(1, clients, np.ones(3), np.ones(3)))


def _facility2d():
    # the 2-D benchmark instance: four clients on the axes, asymmetric profits
    clients = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    profits1, profits2 = np.array([1.0, 2.0, 1.0, 1.0]), np.array([1.0, 2.0, 2.0, 3.0])
    return make_facility(FacilityInstance(2, clients, profits1, profits2))


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

    def equilibrium(self):
        """Unique stationary point, solving the stacked linear system."""
        K = np.block([[self.A1, self.B1], [self.B2, self.A2]])
        sol = np.linalg.solve(K, np.concatenate([self.c1, self.c2]))
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


def _gram_certifies(K):
    """Whether one Cholesky proves sigma_min(K) > 1e-8 * sigma_max(K).

    The Gram matrix G = K^T K is shifted down by tau = CHOL_ROUNDING * N *
    trace(G) and factored in place by LAPACK's potrf (G.T, the transpose of
    the C-ordered product, is the Fortran-ordered array potrf factors
    without a copy); success is the certificate.
    """
    G = K.T @ K
    N = G.shape[0]
    G.flat[:: N + 1] -= CHOL_ROUNDING * N * G.trace()
    _, info = lapack.dpotrf(G.T, lower=1, clean=0, overwrite_a=1)
    return info == 0


def _well_conditioned(K):
    """The generator's test: sigma_min(K) > 1e-8 * sigma_max(K), as the
    singular values of K decide it, which run only when `_gram_certifies`
    cannot settle the draw."""
    if _gram_certifies(K):
        return True
    svals = np.linalg.svd(K, compute_uv=False)
    return bool(svals[-1] > 1e-8 * svals[0])


def random_quadratic_nep(n1, n2, seed):
    """Seeded strictly convex quadratic game with a verified nonsingular
    full matrix (the mixed blocks are resampled on failure).

    A draw is kept when the full matrix K = [[A1, B1], [B2, A2]], of order
    N = n1 + n2, has sigma_min(K) > 1e-8 * sigma_max(K) by its SVD; after
    100 rejected draws GenerationFailure is raised. Most draws are settled
    without the SVD, by a Cholesky of K^T K - tau I with tau = CHOL_ROUNDING
    * N * trace(K^T K), CHOL_ROUNDING being 16 eps. That certificate accepts
    only draws the SVD rule accepts, so every game keeps its bits:

    - With u = eps/2, forming G = K^T K and then factoring G - tau I each
      perturb K^T K by at most about N * u * ||K||_F^2 in norm (the trace
      of G is ||K||_F^2 up to rounding).
    - A successful factorization therefore gives sigma_min(K)^2 >= tau -
      2 N u ||K||_F^2, about 15 N eps ||K||_F^2.
    - Since ||K||_F >= sigma_max(K) and N >= 2, sigma_min / sigma_max >=
      sqrt(30 eps), about 8e-8: above 1e-8, and far above the N * u *
      sigma_max to which gesdd computes each singular value.

    A draw the factorization rejects goes to the SVD rule unchanged.
    """
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
        if _well_conditioned(np.block([[A1, B1], [B2, A2]])):
            return QuadraticNep(A1=A1, A2=A2, B1=B1, B2=B2, c1=c1, c2=c2)
    raise GenerationFailure("could not draw a nonsingular full matrix in 100 tries")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


# each builder makes a new problem, so runs never share an oracle or its
# caches; the five examples have analytic gradients and all four blocks
_BUILDERS = {
    "examp1": _example1,
    "examp2": _example2,
    "examp3": _example3,
    "examp4": _example4,
    "examp5": _example5,
    "facility1d": _facility1d,
    "facility2d": _facility2d,
}

# quadratic:<seed>:<n1>x<n2> in ASCII digits without leading zeros, seed >= 0
# and n1, n2 >= 1: each game has one id, its name and output file stem
_QUADRATIC_ID = r"quadratic:(0|[1-9][0-9]*):([1-9][0-9]*)x([1-9][0-9]*)"


def get_problem(problem_id):
    """Build the problem a built-in id names.

    Known ids: examp1..examp5, facility1d, facility2d, and
    quadratic:<seed>:<n1>x<n2>. Raises UnknownProblemId for any other.
    """
    builder = _BUILDERS.get(problem_id)
    if builder is not None:
        return builder()
    match = re.fullmatch(_QUADRATIC_ID, problem_id)  # compiled on first use, not at import
    if match is not None:
        seed, n1, n2 = (int(g) for g in match.groups())
        return random_quadratic_nep(n1, n2, seed).to_problem(name=problem_id)
    if problem_id.startswith("quadratic:"):
        raise UnknownProblemId(
            f"malformed quadratic id {problem_id!r}, expected quadratic:<seed>:<n1>x<n2> "
            "with seed >= 0 and n1, n2 >= 1"
        )
    raise UnknownProblemId(f"unknown problem id {problem_id!r}")
