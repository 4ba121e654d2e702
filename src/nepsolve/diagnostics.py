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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NonFiniteEvaluation
from .solver import build_surrogates, safeguard_mixed_blocks
from .linalg import assemble_block_system, spectral_bounds_sym

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

    def to_dict(self):
        return {
            "c_h": self.c_h,
            "grad_lipschitz": self.grad_lipschitz,
            "c_r": self.c_r,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "mu_min": self.mu_min,
            "mu_max": self.mu_max,
            "c_k": None if self.c_k is None else list(self.c_k),
        }


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

    Estimates grow monotonically with the sample count for a fixed seed
    (draws are consumed in a fixed per-sample order).
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    n1, n2 = problem.n1, problem.n2
    lo, hi = _box_bounds(box, n1 + n2)
    rng = np.random.default_rng(seed)

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
        m1 = problem.mixed12_f1(x1, x2)
        m2 = problem.mixed21_f2(x1, x2)
        g1 = problem.gradient1(x1, x2)
        g2 = problem.gradient2(x1, x2)
        if not all(
            np.all(np.isfinite(v)) for v in (m1, m2, g1, g2)
        ):
            raise NonFiniteEvaluation("non-finite oracle value inside the sample box")
        c_h = max(c_h, np.linalg.norm(m1, 2), np.linalg.norm(m2, 2))

        dist1 = np.linalg.norm(a1 - x1)
        if dist1 > 1e-12:
            lipschitz = max(
                lipschitz, np.linalg.norm(problem.gradient1(a1, x2) - g1) / dist1
            )
        dist2 = np.linalg.norm(a2 - x2)
        if dist2 > 1e-12:
            lipschitz = max(
                lipschitz, np.linalg.norm(problem.gradient2(x1, a2) - g2) / dist2
            )

        r1 = problem.gradient1(x1, x2 + t * d2) - g1 - t * (m1 @ d2)
        r2 = problem.gradient2(x1 + t * d1, x2) - g2 - t * (m2 @ d1)
        sq1 = t * t * float(d2 @ d2)
        sq2 = t * t * float(d1 @ d1)
        if sq1 > 0:
            c_r = max(c_r, np.linalg.norm(r1) / sq1)
        if sq2 > 0:
            c_r = max(c_r, np.linalg.norm(r2) / sq2)

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
            "violations": [
                {
                    "iterate": v.iterate,
                    "lemma": v.lemma,
                    "detail": v.detail,
                    "margin": v.margin,
                }
                for v in self.violations
            ],
            "estimates": self.estimates.to_dict(),
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


def _segment_mixed_norm(problem, x1, x2, t, d1, d2):
    # mixed-block norms sampled along the step segment; the ratio-bound
    # certificate needs a bound valid between the iterate and the trial point
    best = 0.0
    for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
        m1 = problem.mixed12_f1(x1, x2 + xi * t * d2)
        m2 = problem.mixed21_f2(x1 + xi * t * d1, x2)
        best = max(best, np.linalg.norm(m1, 2), np.linalg.norm(m2, 2))
    return best


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

    names = ("block-norms", "direction-bound", "gradient-comparability", "ratio-bounds")
    checked = {n: 0 for n in names}
    skipped = {n: 0 for n in names}
    violations = []

    lam_lo_run = np.inf
    lam_hi_run = -np.inf
    c_h_run = est.c_h
    c_k_values = []

    for rec in run.trajectory:
        H1, H2 = build_surrogates(problem, rec.x1, rec.x2, config)
        lo1, hi1 = spectral_bounds_sym(H1.matrix)
        lo2, hi2 = spectral_bounds_sym(H2.matrix)
        lam_lo = min(lo1, lo2)
        lam_hi = max(hi1, hi2)
        lam_lo_run = min(lam_lo_run, lam_lo)
        lam_hi_run = max(lam_hi_run, lam_hi)

        mixed1 = problem.mixed12_f1(rec.x1, rec.x2)
        mixed2 = problem.mixed21_f2(rec.x1, rec.x2)
        c_h_point = max(np.linalg.norm(mixed1, 2), np.linalg.norm(mixed2, 2))
        c_h_run = max(c_h_run, c_h_point)

        g1n = float(np.linalg.norm(rec.g1))
        g2n = float(np.linalg.norm(rec.g2))
        mu_min = np.sqrt(2.0) / lam_lo
        c_k = mu_min * (g1n + g2n)
        c_k_values.append(c_k)

        t = rec.t
        d = np.concatenate([rec.d1, rec.d2])
        M1, M2 = safeguard_mixed_blocks(g1n, g2n, t, config, mixed1, mixed2)
        Htk = assemble_block_system(H1, H2, M1, M2, t)

        # norm bound on the block matrix holds for every t in (0, 1]
        mu_max = np.sqrt(lam_hi**2 + 4.0 * lam_hi * c_h_point + c_h_point**2)
        hnorm = np.linalg.norm(Htk, 2)
        if hnorm > mu_max * (1.0 + _SLACK) + _ABS_SLACK:
            violations.append(
                LemmaViolation(rec.k, "block-norms", f"||H_t|| = {hnorm:.6e} > {mu_max:.6e}", hnorm - mu_max)
            )

        t_small = lam_lo**2 / (8.0 * lam_hi * c_h_point) if c_h_point > 0 else np.inf
        if t <= t_small:
            checked["block-norms"] += 1
            sigma_min = np.linalg.svd(Htk, compute_uv=False)[-1]
            floor = lam_lo / np.sqrt(2.0)
            if sigma_min < floor * (1.0 - _SLACK) - _ABS_SLACK:
                violations.append(
                    LemmaViolation(
                        rec.k,
                        "block-norms",
                        f"smallest singular value {sigma_min:.6e} < {floor:.6e}",
                        floor - sigma_min,
                    )
                )
            checked["direction-bound"] += 1
            dnorm = np.linalg.norm(d)
            if dnorm > c_k * (1.0 + _SLACK) + _ABS_SLACK:
                violations.append(
                    LemmaViolation(
                        rec.k,
                        "direction-bound",
                        f"||d|| = {dnorm:.6e} > {c_k:.6e}",
                        dnorm - c_k,
                    )
                )
        else:
            skipped["block-norms"] += 1
            skipped["direction-bound"] += 1

        # comparability of g_i with H_i d_i, per player
        any_checked = False
        for label, g_i, H_i, d_i in (
            ("player1", rec.g1, H1, rec.d1),
            ("player2", rec.g2, H2, rec.d2),
        ):
            gn = float(np.linalg.norm(g_i))
            bound = (
                min(t_small, gn / (2.0 * c_h_point * c_k))
                if c_h_point > 0 and c_k > 0
                else t_small
            )
            if t <= bound:
                any_checked = True
                hd = float(np.linalg.norm(H_i.matrix @ d_i))
                lo_b = 0.5 * gn
                hi_b = 1.5 * gn
                if hd < lo_b * (1.0 - _SLACK) - _ABS_SLACK or hd > hi_b * (1.0 + _SLACK) + _ABS_SLACK:
                    violations.append(
                        LemmaViolation(
                            rec.k,
                            "gradient-comparability",
                            f"{label}: ||H d|| = {hd:.6e} outside [{lo_b:.6e}, {hi_b:.6e}]",
                            max(lo_b - hd, hd - hi_b),
                        )
                    )
        checked["gradient-comparability"] += int(any_checked)
        skipped["gradient-comparability"] += int(not any_checked)

        # two-sided direction/gradient ratio at the predicted points
        c_h_seg = max(c_h_point, _segment_mixed_norm(problem, rec.x1, rec.x2, t, rec.d1, rec.d2))
        p1 = problem.gradient1(rec.x1, rec.x2 + t * rec.d2)
        p2 = problem.gradient2(rec.x1 + t * rec.d1, rec.x2)
        any_checked = False
        for label, g_i, p_i, d_i in (
            ("player1", rec.g1, p1, rec.d1),
            ("player2", rec.g2, p2, rec.d2),
        ):
            gn = float(np.linalg.norm(g_i))
            bound = (
                min(t_small, gn / (8.0 * c_h_seg * c_k))
                if c_h_seg > 0 and c_k > 0
                else t_small
            )
            if t <= bound:
                any_checked = True
                pn = float(np.linalg.norm(p_i))
                dn = float(np.linalg.norm(d_i))
                gamma_lo = 2.0 / (3.0 * lam_hi)
                beta_hi = 2.0 / lam_lo
                if dn < gamma_lo * pn * (1.0 - _SLACK) - _ABS_SLACK:
                    violations.append(
                        LemmaViolation(
                            rec.k,
                            "ratio-bounds",
                            f"{label}: ||d|| = {dn:.6e} < {gamma_lo * pn:.6e}",
                            gamma_lo * pn - dn,
                        )
                    )
                if dn > beta_hi * pn * (1.0 + _SLACK) + _ABS_SLACK:
                    violations.append(
                        LemmaViolation(
                            rec.k,
                            "ratio-bounds",
                            f"{label}: ||d|| = {dn:.6e} > {beta_hi * pn:.6e}",
                            dn - beta_hi * pn,
                        )
                    )
        checked["ratio-bounds"] += int(any_checked)
        skipped["ratio-bounds"] += int(not any_checked)

    estimates = AssumptionEstimates(
        c_h=float(c_h_run),
        grad_lipschitz=est.grad_lipschitz,
        c_r=est.c_r,
        lambda_min=float(lam_lo_run),
        lambda_max=float(lam_hi_run),
        mu_min=float(np.sqrt(2.0) / lam_lo_run),
        mu_max=float(np.sqrt(lam_hi_run**2 + 4.0 * lam_hi_run * c_h_run + c_h_run**2)),
        c_k=tuple(c_k_values),
    )
    return LemmaCheckReport(
        violations=tuple(violations),
        checked=checked,
        skipped=skipped,
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
    s1 = float(sum(np.linalg.norm(rec.d1) for rec in run.trajectory))
    s2 = float(sum(np.linalg.norm(rec.d2) for rec in run.trajectory))
    return s1, s2


# ---------------------------------------------------------------------------
# derivative validation
# ---------------------------------------------------------------------------


#: report key -> (accessor of NepProblem, oracle whose central difference it is checked against)
_DERIVATIVES = {
    "grad1": ("gradient1", "grad1"),
    "grad2": ("gradient2", "grad2"),
    "hess11": ("hessian11", "hess11"),
    "hess22": ("hessian22", "hess22"),
    "mixed12": ("mixed12_f1", "hess12_f1"),
    "mixed21": ("mixed21_f2", "hess21_f2"),
}


def validate_derivatives(problem, box, samples, seed, exclude=None):
    """Cross-check analytic derivatives against central finite differences.

    Samples points in the box, skipping those for which exclude(x1, x2) is
    true (e.g. near singularities). Each derivative accessor is compared
    with `problem.finite_difference` of its oracle: the gradients with
    central differences of f1/f2, the four Hessian blocks with central
    differences of the gradients. Returns the max relative errors, measured
    as ||analytic - fd|| / max(1, ||analytic||), plus the worst per-player
    Hessian asymmetry.
    """
    n1, n2 = problem.n1, problem.n2
    lo, hi = _box_bounds(box, n1 + n2)
    rng = np.random.default_rng(seed)

    errs = dict.fromkeys(_DERIVATIVES, 0.0)
    asym = 0.0
    kept = 0
    while kept < samples:
        x = lo + (hi - lo) * rng.uniform(size=n1 + n2)
        x1, x2 = x[:n1], x[n1:]
        if exclude is not None and exclude(x1, x2):
            continue
        kept += 1
        values = {}
        for key, (accessor, oracle) in _DERIVATIVES.items():
            analytic = values[key] = getattr(problem, accessor)(x1, x2)
            fd = problem.finite_difference(oracle, x1, x2)
            err = np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))
            errs[key] = max(errs[key], float(err))
        for h in (values["hess11"], values["hess22"]):
            scale = max(1.0, float(np.max(np.abs(h))))
            asym = max(asym, float(np.max(np.abs(h - h.T))) / scale)
    report = {f"max_rel_err_{key}": err for key, err in errs.items()}
    report["max_hessian_asymmetry"] = float(asym)
    report["samples"] = kept
    return report
