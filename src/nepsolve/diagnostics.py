"""Numeric certificates: constants behind the convergence assumptions are
estimated on a sample box, and the lemma-style bounds are re-checked on the
raw trajectory of a finished run, independent of solver bookkeeping.

The lemma checks are hypothesis-gated: each bound is asserted only at
iterates whose accepted step length satisfies the corresponding smallness
condition; other iterates are skipped, not failed. Constants are
instantiated per iterate (eigenvalue range of the surrogates actually used,
mixed-block norms at - and for the ratio bounds, along - the step), which is
the sharpest form the bounds hold in.
"""

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .core import _norm, _require_finite, _Uniform
from .solver import build_surrogates, safeguard_mixed_blocks
from .linalg import assemble_block_system, spectral_bounds_sym

_LEMMAS = ("block-norms", "direction-bound", "gradient-comparability", "ratio-bounds")
_PLAYERS = ("player1", "player2")
#: where estimate_assumptions reads its oracles, for NonFiniteEvaluation messages
_IN_BOX = "an oracle inside the sample box"

#: multiplicative slack for floating-point comparisons of certified bounds
_SLACK = 1e-9
_ABS_SLACK = 1e-12


@dataclass
class AssumptionEstimates:
    """Estimated constants of the smoothness/boundedness assumptions.

    c_h bounds the mixed-block norms, grad_lipschitz the per-player gradient
    Lipschitz constant in the player's own variable, c_r the second-order
    remainder of the gradient linearization. All three are max estimates
    over a sample box, so they certify the sampled region only. The
    lambda/mu fields and per-iterate direction bounds c_k are filled in when
    the estimates are attached to a run.
    """

    c_h: float
    grad_lipschitz: float
    c_r: float
    lambda_min: Optional[float] = None
    lambda_max: Optional[float] = None
    mu_min: Optional[float] = None
    mu_max: Optional[float] = None
    c_k: Optional[tuple] = None


def _box_bounds(box, n):
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box bounds must be finite")
    if np.any(hi <= lo):
        raise ValueError("box upper bounds must exceed lower bounds")
    return lo, hi


def estimate_assumptions(problem, box, samples, seed):
    """Max-sampled estimates of the assumption constants over a box.

    Estimates grow monotonically with the sample count for a fixed seed, an
    int >= 0 (draws are consumed in a fixed per-sample order; they are
    numpy.random.default_rng(seed)'s uniform draws, from core._Uniform).
    Raises NonFiniteEvaluation when any oracle read, a probe included, is
    not finite.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    n1, n2 = problem.n1, problem.n2
    lo, hi = _box_bounds(box, n1 + n2)
    rng = _Uniform(seed)

    c_h = 0.0
    lipschitz = 0.0
    c_r = 0.0
    for _ in range(samples):
        x = lo + (hi - lo) * rng.uniform(size=n1 + n2)
        a1 = lo[:n1] + (hi[:n1] - lo[:n1]) * rng.uniform(size=n1)
        a2 = lo[n1:] + (hi[n1:] - lo[n1:]) * rng.uniform(size=n2)
        t = rng.uniform(0.25, 1.0)
        d1 = rng.uniform(-1.0, 1.0, size=n1)
        d2 = rng.uniform(-1.0, 1.0, size=n2)

        x1, x2 = x[:n1], x[n1:]
        point = problem.at(x1, x2)
        m1, m2, g1, g2 = (
            _require_finite(v, _IN_BOX)
            for v in (point.mixed12, point.mixed21, point.grad1, point.grad2)
        )
        c_h = max(c_h, np.linalg.norm(m1, 2), np.linalg.norm(m2, 2))

        dist1 = _norm(a1 - x1)
        if dist1 > 1e-12:
            probe = _require_finite(problem.at(a1, x2).grad1, _IN_BOX)
            lipschitz = max(lipschitz, _norm(probe - g1) / dist1)
        dist2 = _norm(a2 - x2)
        if dist2 > 1e-12:
            probe = _require_finite(problem.at(x1, a2).grad2, _IN_BOX)
            lipschitz = max(lipschitz, _norm(probe - g2) / dist2)

        p1 = _require_finite(problem.at(x1, x2 + t * d2).grad1, _IN_BOX)
        p2 = _require_finite(problem.at(x1 + t * d1, x2).grad2, _IN_BOX)
        r1 = p1 - g1 - t * (m1 @ d2)
        r2 = p2 - g2 - t * (m2 @ d1)
        sq1 = t * t * float(d2 @ d2)
        sq2 = t * t * float(d1 @ d1)
        if sq1 > 0:
            c_r = max(c_r, _norm(r1) / sq1)
        if sq2 > 0:
            c_r = max(c_r, _norm(r2) / sq2)

    return AssumptionEstimates(c_h=float(c_h), grad_lipschitz=float(lipschitz), c_r=float(c_r))


# ---------------------------------------------------------------------------
# lemma-style certificates on a finished run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaViolation:
    iterate: int
    lemma: str
    detail: str
    margin: float


@dataclass
class LemmaCheckReport:
    violations: tuple
    checked: dict
    skipped: dict
    estimates: AssumptionEstimates

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        return {
            "ok": self.ok,
            "checked": dict(self.checked),
            "skipped": dict(self.skipped),
            "violations": [asdict(v) for v in self.violations],
            "estimates": asdict(self.estimates),
        }

    def __str__(self):
        lines = [
            f"lemma certificates: {'OK' if self.ok else f'{len(self.violations)} violation(s)'}"
        ]
        for name in sorted(self.checked):
            lines.append(
                f"  {name}: checked {self.checked[name]}, skipped {self.skipped[name]}"
            )
        for v in self.violations:
            lines.append(f"  VIOLATION k={v.iterate} {v.lemma}: {v.detail} (margin {v.margin:.3e})")
        return "\n".join(lines)


def _segment_mixed_norm(problem, x1, x2, t, d1, d2, pred1, pred2):
    # mixed-block norms sampled along the step segment; the ratio-bound
    # certificate needs a bound valid between the iterate and the trial
    # point. The ends are the iterate, whose norms the caller has, and the
    # predicted points pred1 = (x1, x2 + t d2) and pred2 = (x1 + t d1, x2).
    best = max(np.linalg.norm(pred1.mixed12, 2), np.linalg.norm(pred2.mixed21, 2))
    for xi in (0.25, 0.5, 0.75):
        m1 = problem.at(x1, x2 + xi * t * d2).mixed12
        m2 = problem.at(x1 + xi * t * d1, x2).mixed21
        best = max(best, np.linalg.norm(m1, 2), np.linalg.norm(m2, 2))
    return best


def _mu_bounds(lam_lo, lam_hi, c_h):
    """mu_min = sqrt(2) / lambda_lo and mu_max = sqrt(lambda_hi^2 +
    4 lambda_hi c_h + c_h^2), the bounds on the block matrix's singular
    values. Computed in float64, so a bound that overflows reads inf."""
    lam_lo, lam_hi, c_h = np.float64(lam_lo), np.float64(lam_hi), np.float64(c_h)
    with np.errstate(over="ignore"):
        return np.sqrt(2.0) / lam_lo, np.sqrt(lam_hi**2 + 4.0 * lam_hi * c_h + c_h**2)


def _player_step_bound(t_small, gn, c, c_k):
    """Step-length hypothesis of a per-player lemma: t <= min(t_small, ||g_i|| / (c c_k))."""
    return min(t_small, gn / (c * c_k)) if c > 0 and c_k > 0 else t_small


class _Tally:
    """Checked/skipped counts per lemma and the violations found so far."""

    def __init__(self):
        self.checked = dict.fromkeys(_LEMMAS, 0)
        self.skipped = dict.fromkeys(_LEMMAS, 0)
        self.violations = []

    def count(self, lemma, hypothesis):
        """Count one iterate as checked or skipped for lemma; return hypothesis."""
        (self.checked if hypothesis else self.skipped)[lemma] += 1
        return hypothesis

    def bound(self, k, lemma, what, value, lo=-np.inf, hi=np.inf):
        """Record a violation at iterate k if value lies below lo or above hi
        by more than the slack (a NaN value never does). The margin is the
        distance past the violated bound. A bound with one finite side reads
        "< lo" or "> hi", a two-sided one "outside [lo, hi]".
        """
        if not (
            value < lo * (1.0 - _SLACK) - _ABS_SLACK or value > hi * (1.0 + _SLACK) + _ABS_SLACK
        ):
            return
        if hi == np.inf:
            relation = f"< {lo:.6e}"
        elif lo == -np.inf:
            relation = f"> {hi:.6e}"
        else:
            relation = f"outside [{lo:.6e}, {hi:.6e}]"
        margin = max(lo - value, value - hi)
        self.violations.append(LemmaViolation(k, lemma, f"{what} {value:.6e} {relation}", margin))


def verify_lemma_bounds(run, est):
    """Re-check the bound-style lemma conclusions on a run's trajectory.

    Needs run.problem and run.config (set by the solvers). Returns a report
    listing violations with iterate index and margin; hypothesis-failing
    iterates are counted as skipped. Returns None for a newton-kkt or
    exact-jacobi run: the lemmas bound descent-newton's surrogate block
    system and line search, and the baselines' unit steps use neither.
    """
    if run.solver != "descent-newton":
        return None
    problem = run.problem
    config = run.config
    if problem is None or config is None:
        raise ValueError("run must carry its problem and config")
    if not run.trajectory:
        raise ValueError("trajectory is empty")

    tally = _Tally()
    lam_lo_run = np.inf
    lam_hi_run = -np.inf
    c_h_run = est.c_h
    c_k_values = []

    for rec in run.trajectory:
        k, t = rec.k, rec.t
        point = problem.at(rec.x1, rec.x2)
        H1, H2 = build_surrogates(point, config)
        lo1, hi1 = spectral_bounds_sym(H1.matrix)
        lo2, hi2 = spectral_bounds_sym(H2.matrix)
        lam_lo = min(lo1, lo2)
        lam_hi = max(hi1, hi2)
        lam_lo_run = min(lam_lo_run, lam_lo)
        lam_hi_run = max(lam_hi_run, lam_hi)

        mixed1 = point.mixed12
        mixed2 = point.mixed21
        c_h_point = max(np.linalg.norm(mixed1, 2), np.linalg.norm(mixed2, 2))
        c_h_run = max(c_h_run, c_h_point)

        g_norms = (_norm(rec.g1), _norm(rec.g2))
        mu_min, mu_max = _mu_bounds(lam_lo, lam_hi, c_h_point)
        c_k = mu_min * (g_norms[0] + g_norms[1])
        c_k_values.append(c_k)

        # norm bound on the block matrix holds for every t in (0, 1]; the
        # largest singular value is np.linalg.norm(Htk, 2), bit for bit
        M1, M2 = safeguard_mixed_blocks(g_norms[0], g_norms[1], t, config, mixed1, mixed2)
        Htk = assemble_block_system(H1, H2, M1, M2, t)
        sigma = np.linalg.svd(Htk, compute_uv=False)
        tally.bound(k, "block-norms", "||H_t|| =", sigma[0], hi=mu_max)

        t_small = lam_lo**2 / (8.0 * lam_hi * c_h_point) if c_h_point > 0 else np.inf
        if tally.count("block-norms", t <= t_small):
            floor = lam_lo / np.sqrt(2.0)
            tally.bound(k, "block-norms", "smallest singular value", sigma[-1], lo=floor)
        if tally.count("direction-bound", t <= t_small):
            dnorm = _norm(np.concatenate([rec.d1, rec.d2]))
            tally.bound(k, "direction-bound", "||d|| =", dnorm, hi=c_k)

        # comparability of g_i with H_i d_i, per player
        hyps = [t <= _player_step_bound(t_small, gn, 2.0 * c_h_point, c_k) for gn in g_norms]
        tally.count("gradient-comparability", any(hyps))
        for label, gn, H_i, d_i, hyp in zip(_PLAYERS, g_norms, (H1, H2), (rec.d1, rec.d2), hyps):
            if hyp:
                hd = _norm(H_i.matrix @ d_i)
                what = f"{label}: ||H d|| ="
                tally.bound(k, "gradient-comparability", what, hd, 0.5 * gn, 1.5 * gn)

        # two-sided direction/gradient ratio at the predicted points
        pred1 = problem.at(rec.x1, rec.x2 + t * rec.d2)
        pred2 = problem.at(rec.x1 + t * rec.d1, rec.x2)
        c_h_seg = max(
            c_h_point,
            _segment_mixed_norm(problem, rec.x1, rec.x2, t, rec.d1, rec.d2, pred1, pred2),
        )
        hyps = [t <= _player_step_bound(t_small, gn, 8.0 * c_h_seg, c_k) for gn in g_norms]
        tally.count("ratio-bounds", any(hyps))
        preds = (pred1.grad1, pred2.grad2)
        for label, p_i, d_i, hyp in zip(_PLAYERS, preds, (rec.d1, rec.d2), hyps):
            if hyp:
                pn, dn = _norm(p_i), _norm(d_i)
                what = f"{label}: ||d|| ="
                tally.bound(k, "ratio-bounds", what, dn, lo=2.0 / (3.0 * lam_hi) * pn)
                tally.bound(k, "ratio-bounds", what, dn, hi=2.0 / lam_lo * pn)

    mu_min, mu_max = _mu_bounds(lam_lo_run, lam_hi_run, c_h_run)
    estimates = replace(
        est,
        c_h=float(c_h_run),
        lambda_min=float(lam_lo_run),
        lambda_max=float(lam_hi_run),
        mu_min=float(mu_min),
        mu_max=float(mu_max),
        c_k=tuple(c_k_values),
    )
    return LemmaCheckReport(
        violations=tuple(tally.violations),
        checked=tally.checked,
        skipped=tally.skipped,
        estimates=estimates,
    )


# ---------------------------------------------------------------------------
# trajectory monitors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepsizeReport:
    """Smallest accepted step and a crude stagnation signal.

    bounded_away_flag is True when the overall minimum step also occurs in
    the second half of the run (in particular whenever no backtracking
    happened at all).
    """

    t_min_observed: float
    bounded_away_flag: bool


def monitor_stepsizes(run):
    ts = [rec.t for rec in run.trajectory]
    if not ts:
        raise ValueError("trajectory is empty")
    t_min = min(ts)
    flag = min(ts[len(ts) // 2 :]) == t_min
    return StepsizeReport(t_min_observed=float(t_min), bounded_away_flag=bool(flag))


def partial_direction_sums(run):
    """Partial sums of per-player direction norms over the trajectory."""
    s1 = float(sum(_norm(rec.d1) for rec in run.trajectory))
    s2 = float(sum(_norm(rec.d2) for rec in run.trajectory))
    return s1, s2


# ---------------------------------------------------------------------------
# derivative validation
# ---------------------------------------------------------------------------


#: point attribute (and report key) -> oracle whose central difference it is checked against
_DERIVATIVES = {
    "grad1": "grad1",
    "grad2": "grad2",
    "hess11": "hess11",
    "hess22": "hess22",
    "mixed12": "hess12_f1",
    "mixed21": "hess21_f2",
}


#: validate_derivatives gives up after this many consecutive excluded draws
MAX_CONSECUTIVE_EXCLUDED = 1000


def validate_derivatives(problem, box, samples, seed, exclude=None):
    """Cross-check analytic derivatives against central finite differences.

    Samples points in the box, skipping those for which exclude(x1, x2) is
    true (e.g. near singularities). Raises ValueError for samples < 1, and
    once MAX_CONSECUTIVE_EXCLUDED draws in a row have been excluded, so an
    exclude that rejects the whole box ends the call. Each derivative of
    the point is compared with `problem.finite_difference` of its oracle:
    the gradients with central differences of f1/f2, the four Hessian
    blocks with central differences of the gradients. Returns the max
    relative errors, measured as ||analytic - fd|| / max(1, ||analytic||),
    plus the worst per-player Hessian asymmetry.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n1, n2 = problem.n1, problem.n2
    lo, hi = _box_bounds(box, n1 + n2)
    rng = _Uniform(seed)

    errs = dict.fromkeys(_DERIVATIVES, 0.0)
    asym = 0.0
    kept = 0
    excluded = 0
    while kept < samples:
        x = lo + (hi - lo) * rng.uniform(size=n1 + n2)
        x1, x2 = x[:n1], x[n1:]
        if exclude is not None and exclude(x1, x2):
            excluded += 1
            if excluded == MAX_CONSECUTIVE_EXCLUDED:
                raise ValueError(
                    f"exclude rejected {excluded} consecutive draws from the box"
                )
            continue
        excluded = 0
        kept += 1
        point = problem.at(x1, x2)
        values = {}
        for key, oracle in _DERIVATIVES.items():
            analytic = values[key] = getattr(point, key)
            fd = problem.finite_difference(oracle, x1, x2)
            # a block's Frobenius norm is the norm of its entries, in memory order
            err = _norm(np.ravel(analytic - fd, "K")) / max(1.0, _norm(np.ravel(analytic, "K")))
            errs[key] = max(errs[key], err)
        for h in (values["hess11"], values["hess22"]):
            scale = max(1.0, float(np.max(np.abs(h))))
            asym = max(asym, float(np.max(np.abs(h - h.T))) / scale)
    report = {f"max_rel_err_{key}": err for key, err in errs.items()}
    report["max_hessian_asymmetry"] = float(asym)
    report["samples"] = kept
    return report
