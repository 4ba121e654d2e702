"""The two in-process workloads and the closed loop that drives them.

One client calls the library one operation at a time (a closed loop). A
round is a fixed list of solver runs; the timed phase repeats whole rounds
until --seconds have passed, so every run attempts the same operations in
the same proportions. Results are checked on their first occurrence and
must come out bitwise the same in every later round.
"""

import contextlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from common import (
    median_cold_import_seconds, import_profile_ms, metric, p50, p90, peak_rss_mb, per,
)
from nepsolve import (
    SolverConfig, get_problem, random_quadratic_nep, solve, solve_exact_jacobi, solve_newton_kkt,
)
from tracing import DN, EJ, KKT, Tracer, layer_metrics

SOLVE = {DN: solve, KKT: solve_newton_kkt, EJ: solve_exact_jacobi}

#: cold imports and program set-ups per run; each reports its median
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
#: end-to-end figures are medians over windows of at least this many
#: descent-newton runs, so that each window's 90th percentile has ten
#: samples beyond it
WINDOW_DN_SOLVES = 100


@dataclass
class Op:
    solver: str
    key: str  # the input: problem id and start
    problem: object
    x1: np.ndarray
    x2: np.ndarray
    config: SolverConfig


def _signature(report):
    cls = report.classification
    return (
        report.status, report.iterations, report.final_x1.tobytes(),
        report.final_x2.tobytes(), None if cls is None else cls.kind,
    )


# ---------------------------------------------------------------------------
# facility-study
# ---------------------------------------------------------------------------


class FacilityStudy:
    """The paper's 2-D facility study: seeded uniform starts in [-2, 2]^4,
    each solved by descent-newton and then newton-kkt."""

    name = "facility-study"
    starts = 200
    warmup_starts = 5
    # the study's tolerance and escape radius, as in `nepsolve facility-bench`
    config = SolverConfig(grad_tol=1e-6, divergence_radius=100.0)

    def plan(self, seed):
        return seed

    def build(self, seed, build_times):
        t0 = time.perf_counter()
        problem = get_problem("facility2d")
        build_times.append(time.perf_counter() - t0)
        rng = np.random.default_rng(seed)
        starts = rng.uniform(-2.0, 2.0, size=(self.starts, problem.n1 + problem.n2))
        ops = [
            Op(solver, f"start{i}", problem, row[: problem.n1], row[problem.n1:], self.config)
            for i, row in enumerate(starts)
            for solver in (DN, KKT)
        ]
        for op in ops[: 2 * self.warmup_starts]:
            SOLVE[op.solver](op.problem, op.x1, op.x2, op.config)
        return ops

    def check(self, op, report, plan):
        cfg = op.config
        return checks.check_facility(report, cfg.grad_tol, cfg.divergence_radius, cfg.max_iter)


# ---------------------------------------------------------------------------
# quadratic-dense
# ---------------------------------------------------------------------------


class QuadraticDense:
    """Seeded strictly convex quadratic games solved from the origin.

    Dense games (n in the low hundreds, rho > 1) are solved by
    descent-newton and newton-kkt. Small games drawn with rho <= 0.9 and two
    fixed games with rho > 1 are solved by all three solvers. exact-jacobi
    raises InnerSolveFailure on every rho > 1 game instead of reporting
    DIVERGED, so it runs only on the fixed ones, where it fails the same
    way for every seed; those runs are counted as failed.
    """

    name = "quadratic-dense"
    # with the small and fixed games, the 11 descent-newton sizes of a round
    # put the median inside the n=150 group and the 90th percentile inside
    # the n=250 group, away from the gaps between groups
    dense_sizes = (150, 150, 150, 150, 200, 250, 250)
    small_size, small_games, small_rho_max = 20, 2, 0.9
    fixed_ids = ("quadratic:1:40x40", "quadratic:0:100x100")
    config = SolverConfig()

    def plan(self, seed):
        """Game ids, the solvers for each, and references (untimed)."""
        rng = np.random.default_rng(seed)
        games = [(f"quadratic:{int(rng.integers(2**31))}:{n}x{n}", (DN, KKT))
                 for n in self.dense_sizes]
        n = self.small_size
        small = []
        while len(small) < self.small_games:
            game_id = f"quadratic:{int(rng.integers(2**31))}:{n}x{n}"
            if self._reference(game_id).rho <= self.small_rho_max:
                small.append((game_id, (DN, KKT, EJ)))
        games += small + [(game_id, (DN, KKT, EJ)) for game_id in self.fixed_ids]
        refs = {game_id: self._reference(game_id) for game_id, _ in games}
        for game_id in self.fixed_ids:
            if not refs[game_id].rho > 1:
                raise RuntimeError(f"{game_id} was chosen for rho > 1, has {refs[game_id].rho}")
        return {"games": games, "refs": refs}

    @staticmethod
    def _reference(game_id):
        _, seed, dims = game_id.split(":")
        n1, n2 = (int(v) for v in dims.split("x"))
        return checks.QuadraticReference(random_quadratic_nep(n1, n2, int(seed)))

    def build(self, plan, build_times):
        ops = []
        for game_id, solvers in plan["games"]:
            t0 = time.perf_counter()
            problem = get_problem(game_id)
            build_times.append(time.perf_counter() - t0)
            zero1, zero2 = np.zeros(problem.n1), np.zeros(problem.n2)
            ops += [Op(s, game_id, problem, zero1, zero2, self.config) for s in solvers]
            solve(problem, zero1, zero2, self.config)  # warm-up
        return ops

    def check(self, op, report, plan):
        ref = plan["refs"][op.key]
        return checks.check_quadratic(report, ref, op.solver, op.config.grad_tol)


WORKLOADS = {w.name: w for w in (FacilityStudy(), QuadraticDense())}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def _windows(rounds):
    """Consecutive whole rounds grouped into windows of at least
    WINDOW_DN_SOLVES descent-newton runs (a short remainder joins the last
    window), as (descent-newton times, descent-newton + newton-kkt times)."""
    per_round = max(1, len(rounds[0][0]))
    size = -(-WINDOW_DN_SOLVES // per_round)
    groups = [rounds[i:i + size] for i in range(0, len(rounds), size)]
    if len(groups) > 1 and len(groups[-1]) < size:
        remainder = groups.pop()
        groups[-1] += remainder
    return [
        ([t for dn, _ in g for t in dn], [t for _, lib in g for t in lib]) for g in groups
    ]


def _median_over(windows, stat, unit):
    # the host's speed drifts over seconds; a median over windows of a few
    # seconds each keeps a slow spell from moving the run's figure
    return metric(statistics.median(stat(dn, lib) for dn, lib in windows), unit)


def run(workload, seed, seconds, trace):
    plan = workload.plan(seed)
    import_s = median_cold_import_seconds(IMPORT_REPEATS)
    build_times, setups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.build(plan, build_times)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    tracer = Tracer() if trace else None
    if trace:
        traced_ops = [
            Op(op.solver, op.key, tracer.counted_problem(op.problem), op.x1, op.x2, op.config)
            for op in ops
        ]
        tracer.calls["suite.build"] = len(build_times)
        tracer.secs["suite.build"] = sum(build_times)
        import_ms, import_scipy_ms = import_profile_ms(IMPORT_REPEATS)

    first, errors = {}, []
    attempted = failed = 0
    rounds = []  # per untraced round: descent-newton and newton-kkt run times
    phase_s = {False: 0.0, True: 0.0}  # all run times, untraced / traced
    deadline = time.perf_counter() + seconds
    while True:
        # trace mode alternates an untraced and a traced round, so that the
        # difference between the two is the tracing overhead
        for traced in ((False, True) if trace else (False,)):
            round_ops = traced_ops if traced else ops
            dn_s, lib_s = [], []
            with tracer.installed() if traced else contextlib.nullcontext():
                for op in round_ops:
                    t0 = time.perf_counter()
                    try:
                        report = SOLVE[op.solver](op.problem, op.x1, op.x2, op.config)
                        failure = None
                    except Exception as err:  # counted as a failed operation
                        report, failure = None, err
                    elapsed = time.perf_counter() - t0
                    if traced:
                        tracer.record_run(op.solver, report)
                    attempted += 1
                    phase_s[traced] += elapsed
                    if failure is not None:
                        failed += 1
                        first.setdefault(
                            (op.solver, op.key),
                            f"{op.solver} {op.key}: {type(failure).__name__}: {failure}",
                        )
                        continue
                    if not traced and op.solver in (DN, KKT):
                        lib_s.append(elapsed)
                        if op.solver == DN:
                            dn_s.append(elapsed)
                    sig = _signature(report)
                    known = first.setdefault((op.solver, op.key), sig)
                    if known is sig:
                        errors += [f"{op.solver} {op.key}: {e}" for e in workload.check(op, report, plan)]
                    elif known != sig:
                        errors.append(f"{op.solver} {op.key}: result differs from the first round")
            if not traced:
                rounds.append((dn_s, lib_s))
        if time.perf_counter() >= deadline:
            break

    failures = sorted({v for v in first.values() if isinstance(v, str)})
    for line in failures + errors[:20]:
        print(f"{workload.name}: {line}", file=sys.stderr)

    if trace:
        overhead_pct = 100.0 * (phase_s[True] / phase_s[False] - 1.0)
        metrics = layer_metrics(tracer, import_ms, import_scipy_ms, overhead_pct)
    else:
        windows = _windows(rounds)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "solves_per_s": _median_over(windows, lambda dn, lib: per(len(lib), sum(lib)), "1/s"),
            "dn_solve_ms_p50": _median_over(windows, lambda dn, lib: p50(dn) * 1e3, "ms"),
            "dn_solve_ms_p90": _median_over(windows, lambda dn, lib: p90(dn) * 1e3, "ms"),
            "invocation_ms_p50": _median_over(windows, lambda dn, lib: p50(lib) * 1e3, "ms"),
            "peak_rss_mb": metric(peak_rss_mb(resource.RUSAGE_SELF), "MB"),
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
