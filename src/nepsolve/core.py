"""Two-player Nash equilibrium problems and their derivative oracles.

A problem is a pair of smooth objectives f1(x1, x2), f2(x1, x2), each player
minimizing over their own block. Analytic derivative oracles are optional;
central finite differences fill any gap and double as the cross-check used
by the derivative validation diagnostics.

The solvers read a problem one point at a time: `NepProblem.at` gives
everything at (x1, x2) (values, gradients, the four Hessian blocks), from
the problem's fused `point` oracle when it has one and otherwise from the
per-oracle callables. A residual carries its point, so one iterate is
evaluated once.
"""

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .linalg import NonFiniteEvaluation, _as_matrix, _symmetric_part, psd_test, spectral_bounds_sym


class InnerSolveFailure(RuntimeError):
    """A per-player stationarity solve is undefined or did not converge."""


def _as_vector(x, n, label):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (n,):
        raise ValueError(f"{label} has shape {v.shape}, expected ({n},)")
    return v


def _as_int(n, label):
    """n as an int, so that a numpy integer is stored as one (json cannot
    write it). A bool or a non-integer such as 2.0 raises ValueError."""
    try:
        if not isinstance(n, bool):
            return operator.index(n)
    except TypeError:
        pass
    raise ValueError(f"{label} must be an integer, got {n!r}")


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG64's LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(h, mult):
    """numpy SeedSequence's hashmix, threading its hash constant from h."""

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    return hashmix


class _Uniform:
    """Seeded uniform draws, bit for bit those of
    numpy.random.default_rng(seed).uniform (checked against numpy 2.4.6),
    without loading numpy.random.

    The seed, an int >= 0, is split into little-endian 32-bit words and
    hashed into a pool of four words, which expand into four 64-bit words
    s0..s3, as numpy's SeedSequence(seed).generate_state(4, uint64) does.
    These seed PCG64, a 128-bit LCG: from state 0 with increment
    2*(s2<<64 | s3) + 1, one step, then s0<<64 | s1 added and one more
    step. A draw steps the LCG and outputs the XSL-RR of the state, the
    64-bit xor of its halves rotated right by its top 6 bits; its top 53
    bits times 2**-53 give u, and low + (high - low) * u the draw. Arrays
    are filled in C order.
    """

    def __init__(self, seed):
        seed = _as_int(seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        # zero words pad the seed to the pool's four, as numpy hashes a missing word
        words = [seed >> 32 * i & _M32 for i in range(max(4, (seed.bit_length() + 31) // 32))]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

        def mix(x, y):
            r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
            return r ^ r >> 16

        pool = [hashmix(w) for w in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(w))
        out = _hashmix(0x8B51F9DD, 0x58F38DED)
        state = [out(pool[i % 4]) for i in range(8)]
        s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = (self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc & _M128

    def _draws(self, n):
        """The top 53 bits of the next n outputs."""
        state, inc = self._state, self._inc
        # module constants as locals: the loop is the sampler's whole cost
        mult, m128, m64, m53, double = _PCG_MULT, _M128, _M64, (1 << 53) - 1, _M64 + 2
        draws = []
        append = draws.append
        for _ in range(n):
            state = state * mult + inc & m128
            # the xor doubled to 128 bits (times 2**64 + 1), so that the
            # rotation is a shift
            append(((state >> 64 ^ state) & m64) * double >> (state >> 122) + 11 & m53)
        self._state = state
        return draws

    def uniform(self, low=0.0, high=1.0, size=None):
        """Generator.uniform(low, high, size) for scalar bounds: a float
        when size is None, else an array of that shape."""
        if size is None:
            return low + (high - low) * (self._draws(1)[0] * 2.0**-53)
        shape = (size,) if isinstance(size, int) else tuple(size)
        u = np.array(self._draws(math.prod(shape)), dtype=np.uint64) * 2.0**-53
        return low + (high - low) * u.reshape(shape)


def _require_finite(value, context):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEvaluation(f"non-finite value from {context}")
    return arr


def finite_diff_jacobian(g, x):
    """Central-difference Jacobian of g at x, one row per output of g.

    Column i is (g(x + h e_i) - g(x - h e_i)) / 2h, where the step
    h = 1e-6 * max(1, ||x||_inf) stays meaningful on large (divergent)
    iterates; g is never evaluated at x itself. A scalar g gives one row,
    its gradient.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    jac = None
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        gp = _require_finite(g(xp), "oracle")
        gm = _require_finite(g(xm), "oracle")
        if jac is None:
            jac = np.empty((gp.size, x.size))
        jac[:, i] = (gp - gm) / (2.0 * h)
    return jac


class _OraclePoint:
    """A problem without a fused oracle at one point.

    Each quantity is computed when it is read: by its per-oracle callable,
    or by that oracle's central difference when the callable is missing
    (symmetrized for the own blocks hess11/hess22).
    """

    __slots__ = ("_problem", "_x1", "_x2")

    def __init__(self, problem, x1, x2):
        self._problem = problem
        self._x1 = x1
        self._x2 = x2

    def _derivative(self, oracle, shape):
        fn = getattr(self._problem, oracle)
        if fn is None:
            return self._problem.finite_difference(oracle, self._x1, self._x2)
        return shape(np.asarray(fn(self._x1, self._x2), dtype=float))

    def _own_block(self, oracle):
        h = self._derivative(oracle, np.atleast_2d)
        return h if getattr(self._problem, oracle) is not None else 0.5 * (h + h.T)

    @property
    def value1(self):
        return float(self._problem.f1(self._x1, self._x2))

    @property
    def value2(self):
        return float(self._problem.f2(self._x1, self._x2))

    @property
    def grad1(self):
        return self._derivative("grad1", np.atleast_1d)

    @property
    def grad2(self):
        return self._derivative("grad2", np.atleast_1d)

    @property
    def hess11(self):
        return self._own_block("hess11")

    @property
    def hess22(self):
        return self._own_block("hess22")

    @property
    def mixed12(self):
        return self._derivative("hess12_f1", np.atleast_2d)

    @property
    def mixed21(self):
        return self._derivative("hess21_f2", np.atleast_2d)


@dataclass(frozen=True)
class NepProblem:
    """Dimensions plus evaluation oracles for a two-player NEP.

    f1, f2 map (x1, x2) to a scalar. Optional oracles: grad1/grad2 for the
    partial gradients of each player's own objective with respect to their
    own block; hess11/hess22 for the per-player second-derivative blocks;
    hess12_f1 for the n1 x n2 block of f1 mixing both variables; hess21_f2
    for the n2 x n1 mixed block of f2 (the one multiplying d1 in the second
    row of the full Newton system). A missing oracle falls back to its
    central difference, `finite_difference`: of f1/f2 for a gradient, of
    the point's gradient for a Hessian block (symmetrized for hess11/hess22).

    point is the optional fused oracle: point(x1, x2) returns an object
    whose attributes value1, value2 (floats), grad1, grad2 (float64
    vectors), hess11, hess22, mixed12 and mixed21 (n1 x n2 and n2 x n1
    blocks) are everything the solvers read at (x1, x2), so that work
    shared between them (the facility game's client distances) is done
    once per point.
    When it is given, every read of the problem goes through it, and the
    per-oracle derivative callables may be omitted (f1 and f2 stay, for the
    central differences that validate it). Without it, a point reads the
    per-oracle callables (or their central differences), one quantity at a
    time.

    escape_radius bounds the region where the problem's answers mean
    anything: every solver run stops as diverged once an iterate leaves the
    box of that radius, or the config's divergence_radius if it is smaller.
    """

    n1: int
    n2: int
    f1: Callable
    f2: Callable
    grad1: Optional[Callable] = None
    grad2: Optional[Callable] = None
    hess11: Optional[Callable] = None
    hess22: Optional[Callable] = None
    hess12_f1: Optional[Callable] = None
    hess21_f2: Optional[Callable] = None
    name: str = field(default="")
    point: Optional[Callable] = None
    escape_radius: float = float("inf")

    def __post_init__(self):
        for name in ("n1", "n2"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("player dimensions must be >= 1")
        # negated so that NaN fails it too
        if not self.escape_radius > 0:
            raise ValueError("escape_radius must be positive")

    def _checked(self, x1, x2):
        return _as_vector(x1, self.n1, "x1"), _as_vector(x2, self.n2, "x2")

    def _at(self, x1, x2):
        # the solver loops build their points from checked vectors
        if self.point is not None:
            return self.point(x1, x2)
        return _OraclePoint(self, x1, x2)

    def at(self, x1, x2):
        """The problem at (x1, x2): see the `point` oracle for what it holds.

        Each quantity is computed when it is read, so a caller reads each
        at most once.
        """
        return self._at(*self._checked(x1, x2))

    def finite_difference(self, oracle, x1, x2):
        """Central difference that stands in for the named optional oracle.

        grad1/grad2 difference f1/f2; the Hessian blocks difference the
        point's gradients. The result is not symmetrized.
        """
        x1, x2 = self._checked(x1, x2)
        # oracle -> (function differenced, block it is differenced in)
        g, x = {
            "grad1": (lambda z: self.f1(z, x2), x1),
            "grad2": (lambda z: self.f2(x1, z), x2),
            "hess11": (lambda z: self._at(z, x2).grad1, x1),
            "hess22": (lambda z: self._at(x1, z).grad2, x2),
            "hess12_f1": (lambda z: self._at(x1, z).grad1, x2),
            "hess21_f2": (lambda z: self._at(z, x2).grad2, x1),
        }[oracle]
        jac = finite_diff_jacobian(g, x)
        return jac[0] if oracle in ("grad1", "grad2") else jac


@dataclass(frozen=True)
class Residual:
    """Stacked first-order residual (g1, g2), its Euclidean norm, and the
    point evaluation it was read from, for the rest of the iteration."""

    g1: np.ndarray
    g2: np.ndarray
    norm: float
    point: object = field(repr=False, compare=False)


def _norm(v):
    """np.linalg.norm of a float vector, bit for bit, without its dispatch."""
    return math.sqrt(v.dot(v))


def evaluate_residual(problem, point):
    """First-order optimality residual at a point of the problem.

    point is the problem's evaluation at the iterate, problem.at(x1, x2)
    (the run loop, whose iterates need no validation, passes the unchecked
    one). Raises NonFiniteEvaluation when either gradient is NaN/Inf, which
    callers interpret as divergence.
    """
    g1 = point.grad1
    g2 = point.grad2
    if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
        raise NonFiniteEvaluation(
            f"gradient oracle returned a non-finite value for {problem.name!r}"
        )
    return Residual(g1=g1, g2=g2, norm=_norm(np.concatenate([g1, g2])), point=point)


class PointKind(Enum):
    EQUILIBRIUM_CANDIDATE = "equilibrium-candidate"
    NON_EQUILIBRIUM_STATIONARY = "non-equilibrium-stationary"
    NON_STATIONARY = "non-stationary"


class PointClass:
    """Second-order classification of a point.

    kind is the label. min_eig_1 and min_eig_2 are the smallest eigenvalues
    of player 1's and player 2's own Hessian blocks, as
    spectral_bounds_sym(block)[0] gives them. PointClass(kind, min_eig_1,
    min_eig_2) holds given values. classify_point passes the blocks instead
    (blocks=(hess11, hess22)), with any value it has already computed; each
    missing value is computed on its first read and then kept, so a caller
    that reads only kind runs no eigendecomposition.
    """

    __slots__ = ("kind", "_min_eigs", "_blocks")

    def __init__(self, kind, min_eig_1=None, min_eig_2=None, blocks=None):
        self.kind = kind
        self._min_eigs = [min_eig_1, min_eig_2]
        self._blocks = blocks

    def _min_eig(self, i):
        if self._min_eigs[i] is None:
            self._min_eigs[i] = spectral_bounds_sym(self._blocks[i])[0]
        return self._min_eigs[i]

    @property
    def min_eig_1(self):
        return self._min_eig(0)

    @property
    def min_eig_2(self):
        return self._min_eig(1)

    def __repr__(self):
        return (
            f"PointClass(kind={self.kind}, min_eig_1={self.min_eig_1!r}, "
            f"min_eig_2={self.min_eig_2!r})"
        )


def classify_point(res, tol):
    """Classify the point of residual res as equilibrium candidate /
    stationary / neither.

    A point is an equilibrium candidate when the residual norm is within tol
    and both per-player Hessian blocks pass linalg.psd_test, the second-order
    necessary condition up to PSD_FLOOR: eigvalsh puts neither block's
    smallest eigenvalue below -PSD_FLOOR. It is the test the surrogate build
    asks at every iterate, so at an equilibrium candidate neither surrogate
    would fall back to the identity. The Hessian blocks are read from the
    residual's point.
    """
    # negated so that NaN fails it too
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    blocks = (_as_matrix(res.point.hess11), _as_matrix(res.point.hess22))
    if not (np.isfinite(blocks[0]).all() and np.isfinite(blocks[1]).all()):
        raise NonFiniteEvaluation("Hessian oracle returned a non-finite value")
    min_eigs = [None, None]

    def psd(i):
        passed, min_eigs[i] = psd_test(_symmetric_part(blocks[i]))
        return passed

    if res.norm > tol:
        kind = PointKind.NON_STATIONARY
    elif psd(0) and psd(1):
        kind = PointKind.EQUILIBRIUM_CANDIDATE
    else:
        kind = PointKind.NON_EQUILIBRIUM_STATIONARY
    return PointClass(kind, *min_eigs, blocks=blocks)
