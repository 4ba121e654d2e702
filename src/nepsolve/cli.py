"""Command-line front end.

Subcommands: `solve` runs one solver on one problem and writes a JSON report
plus a CSV trajectory; `table1` reproduces the five-example comparison;
`facility-bench` runs the 2-D facility location study over seeded random
starts; `diagnose` runs a solve and then the assumption/lemma certificates.

Exit codes: 0 converged, 2 diverged, 3 iteration cap, 4 line-search failure,
5 undefined step (status `undefined`: a singular system, failed inner solve
or overflowing Hessian shift), 64 usage error, 65 unknown problem id.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import solve_exact_jacobi, solve_newton_kkt
from .core import PointKind
from .diagnostics import (
    estimate_assumptions,
    monitor_stepsizes,
    partial_direction_sums,
    verify_lemma_bounds,
)
from .solver import SolveStatus, SolverConfig, solve
from .suite import UnknownProblemId, get_problem

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_MAX_ITERATIONS = 3
EXIT_LINE_SEARCH_FAILURE = 4
EXIT_UNDEFINED_STEP = 5
EXIT_USAGE = 64
EXIT_UNKNOWN_PROBLEM = 65

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.DIVERGED: EXIT_DIVERGED,
    SolveStatus.MAX_ITERATIONS: EXIT_MAX_ITERATIONS,
    SolveStatus.LINE_SEARCH_FAILURE: EXIT_LINE_SEARCH_FAILURE,
    SolveStatus.UNDEFINED_STEP: EXIT_UNDEFINED_STEP,
}

SOLVERS = ("descent-newton", "newton-kkt", "exact-jacobi")

#: start points of the published experiments
PAPER_STARTS = {
    "examp1": (-5.0, 1.0),
    "examp2": (-5.0, 1.0),
    "examp3": (-5.0, 1.0),
    "examp4": (-5.0, 1.0),
    "examp5": (-5.0, 1.0),
    "facility1d": (2.0, 1.0),
    "facility2d": (2.0, 3.0, -3.0, 2.0),
}


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunSpec:
    """One solver run: problem id, solver name, start point and overrides."""

    problem_id: str
    solver: str = "descent-newton"
    x0: str = "paper"
    config: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    out_dir: str = "."


def _fmt(value):
    return format(float(value), ".17g")


def resolve_x0(problem, problem_id, x0_text):
    if x0_text == "paper":
        coords = PAPER_STARTS.get(problem_id)
        if coords is None:
            coords = (0.0,) * (problem.n1 + problem.n2)
    else:
        try:
            coords = tuple(float(tok) for tok in x0_text.split(","))
        except ValueError:
            raise UsageError(f"cannot parse --x0 {x0_text!r}") from None
    if len(coords) != problem.n1 + problem.n2:
        raise UsageError(
            f"--x0 has {len(coords)} coordinates, problem needs {problem.n1 + problem.n2}"
        )
    x = np.asarray(coords, dtype=float)
    return x[: problem.n1], x[problem.n1 :]


def run_solver(problem, solver, x1, x2, config):
    if solver == "descent-newton":
        return solve(problem, x1, x2, config)
    if solver == "newton-kkt":
        return solve_newton_kkt(problem, x1, x2, config)
    if solver == "exact-jacobi":
        return solve_exact_jacobi(problem, x1, x2, config)
    raise UsageError(f"unknown solver {solver!r}")


def report_to_dict(report, problem_id, solver):
    cls = report.classification
    cfg = report.config
    return {
        "problem": problem_id,
        "solver": solver,
        "status": report.status.value,
        "config": {
            "alpha": cfg.alpha,
            "theta": cfg.theta,
            "gamma": cfg.gamma,
            "tau": cfg.tau,
            "grad_tol": cfg.grad_tol,
            "max_iter": cfg.max_iter,
            "divergence_radius": cfg.divergence_radius,
            "hessian_strategy": cfg.hessian_strategy.value,
        },
        "iterations": report.iterations,
        "final_x1": list(report.final_x1),
        "final_x2": list(report.final_x2),
        "final_residual": report.final_residual,
        "classification": None
        if cls is None
        else {
            "kind": cls.kind.value,
            "min_eig_1": cls.min_eig_1,
            "min_eig_2": cls.min_eig_2,
        },
        "trajectory": [
            {
                "k": rec.k,
                "x1": list(rec.x1),
                "x2": list(rec.x2),
                "g1": list(rec.g1),
                "g2": list(rec.g2),
                "t": rec.t,
                "d1": list(rec.d1),
                "d2": list(rec.d2),
                "certificate": None
                if rec.certificate is None
                else {
                    "t": rec.certificate.t,
                    "checks": list(rec.certificate.checks),
                    "backtracks": rec.certificate.backtracks,
                    "singular_halvings": rec.certificate.singular_halvings,
                },
            }
            for rec in report.trajectory
        ],
    }


def trajectory_csv_rows(problem, report):
    header = (
        ["k"]
        + [f"x1_{i}" for i in range(problem.n1)]
        + [f"x2_{i}" for i in range(problem.n2)]
        + ["g1_norm", "g2_norm", "t", "backtracks", "f1", "f2"]
    )
    rows = [header]
    for rec in report.trajectory:
        backtracks = 0 if rec.certificate is None else rec.certificate.backtracks
        rows.append(
            [str(rec.k)]
            + [_fmt(v) for v in rec.x1]
            + [_fmt(v) for v in rec.x2]
            + [
                _fmt(np.linalg.norm(rec.g1)),
                _fmt(np.linalg.norm(rec.g2)),
                _fmt(rec.t),
                str(backtracks),
                _fmt(problem.value1(rec.x1, rec.x2)),
                _fmt(problem.value2(rec.x1, rec.x2)),
            ]
        )
    return rows


def _write_csv(path, rows, comment=None):
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerows(rows)


def _out_dir(spec_out_dir):
    out = spec_out_dir or os.environ.get("NEP_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_solve(spec):
    """Run one solve, write report files, return the process exit code."""
    try:
        problem = get_problem(spec.problem_id)
    except UnknownProblemId as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNKNOWN_PROBLEM
    x1, x2 = resolve_x0(problem, spec.problem_id, spec.x0)
    report = run_solver(problem, spec.solver, x1, x2, spec.config)

    out = _out_dir(spec.out_dir)
    stem = f"{spec.problem_id}_{spec.solver}"
    with open(os.path.join(out, f"{stem}_report.json"), "w") as fh:
        json.dump(report_to_dict(report, spec.problem_id, spec.solver), fh, indent=2)
    _write_csv(
        os.path.join(out, f"{stem}_trajectory.csv"),
        trajectory_csv_rows(problem, report),
        comment=f"nepsolve trajectory problem={spec.problem_id} solver={spec.solver}",
    )

    point = ", ".join(_fmt(v) for v in np.concatenate([report.final_x1, report.final_x2]))
    print(
        f"{spec.problem_id}/{spec.solver}: {report.status.value} "
        f"at ({point}) residual {report.final_residual:.6e} "
        f"in {report.iterations} iteration(s)"
    )
    return _STATUS_EXIT[report.status]


def _table_cell(problem, solver, config):
    x0 = PAPER_STARTS[problem.name]
    x1 = np.asarray(x0[: problem.n1])
    x2 = np.asarray(x0[problem.n1 :])
    report = run_solver(problem, solver, x1, x2, config)
    if report.status is SolveStatus.UNDEFINED_STEP:
        return {"status": report.status.value, "point": "-", "residual": "-", "iterations": "-"}
    if report.status is SolveStatus.CONVERGED:
        point = "(" + ", ".join(f"{v:.5f}" for v in np.concatenate([report.final_x1, report.final_x2])) + ")"
    else:
        point = report.status.value
    resid = "inf" if not np.isfinite(report.final_residual) else f"{report.final_residual:.5e}"
    return {
        "status": report.status.value,
        "point": point,
        "residual": resid,
        "iterations": str(report.iterations),
    }


def cmd_table1(out_dir="."):
    """Run the five examples against all three solvers and tabulate."""
    config = SolverConfig()
    rows = [["problem", "solver", "status", "point", "grad_norm", "iterations"]]
    for pid in ("examp1", "examp2", "examp3", "examp4", "examp5"):
        problem = get_problem(pid)
        for solver in SOLVERS:
            cell = _table_cell(problem, solver, config)
            rows.append([pid, solver, cell["status"], cell["point"], cell["residual"], cell["iterations"]])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(val.ljust(w) for val, w in zip(r, widths)))
    out = _out_dir(out_dir)
    _write_csv(os.path.join(out, "table1.csv"), rows, comment="nepsolve table1")
    return EXIT_OK


def facility_bench(runs, seed, solvers, config):
    """Seeded random-start study on the 2-D facility problem.

    Returns per-solver outcome counts plus the average iteration count among
    converged runs. Starts are drawn once and shared across solvers, merged
    in seed order.
    """
    problem = get_problem("facility2d")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-2.0, 2.0, size=(runs, problem.n1 + problem.n2))
    results = {}
    for solver in solvers:
        counts = {"equilibrium": 0, "non_equilibrium_stationary": 0, "failed": 0}
        iters = []
        for row in starts:
            x1, x2 = row[: problem.n1], row[problem.n1 :]
            report = run_solver(problem, solver, x1, x2, config)
            if report.status is not SolveStatus.CONVERGED:
                counts["failed"] += 1
                continue
            iters.append(report.iterations)
            kind = report.classification.kind
            if kind is PointKind.EQUILIBRIUM_CANDIDATE:
                counts["equilibrium"] += 1
            else:
                counts["non_equilibrium_stationary"] += 1
        results[solver] = {
            "counts": counts,
            "avg_iterations_converged": float(np.mean(iters)) if iters else None,
        }
    return results


def cmd_facility_bench(runs, seed, solvers, config, out_dir="."):
    results = facility_bench(runs, seed, solvers, config)
    rows = [["solver", "equilibrium", "non_equilibrium_stationary", "failed", "avg_iterations_converged"]]
    for solver in solvers:
        r = results[solver]
        avg = r["avg_iterations_converged"]
        rows.append(
            [
                solver,
                str(r["counts"]["equilibrium"]),
                str(r["counts"]["non_equilibrium_stationary"]),
                str(r["counts"]["failed"]),
                "-" if avg is None else _fmt(avg),
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(val.ljust(w) for val, w in zip(r, widths)))
    out = _out_dir(out_dir)
    _write_csv(
        os.path.join(out, "facility_bench.csv"),
        rows,
        comment=f"nepsolve facility-bench runs={runs} seed={seed}",
    )
    return EXIT_OK


def cmd_diagnose(spec, box, samples):
    """Solve, then certify assumption constants and lemma bounds on the run."""
    try:
        problem = get_problem(spec.problem_id)
    except UnknownProblemId as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNKNOWN_PROBLEM
    x1, x2 = resolve_x0(problem, spec.problem_id, spec.x0)
    report = run_solver(problem, spec.solver, x1, x2, spec.config)

    estimates = estimate_assumptions(problem, box, samples, spec.seed)
    payload = {
        "problem": spec.problem_id,
        "solver": spec.solver,
        "status": report.status.value,
        "iterations": report.iterations,
        "box": [float(box[0]), float(box[1])],
        "samples": samples,
        "estimates": estimates.to_dict(),
        "converged_in_one_iteration": report.status is SolveStatus.CONVERGED
        and report.iterations == 1,
    }
    if report.trajectory:
        lemma_report = verify_lemma_bounds(report, estimates)
        steps = monitor_stepsizes(report)
        s1, s2 = partial_direction_sums(report)
        payload.update(
            {
                "lemma_report": lemma_report.to_dict(),
                "stepsizes": {
                    "t_min_observed": steps.t_min_observed,
                    "bounded_away_flag": steps.bounded_away_flag,
                },
                "partial_sum_d1": s1,
                "partial_sum_d2": s2,
            }
        )
        print(lemma_report)
    out = _out_dir(spec.out_dir)
    path = os.path.join(out, f"{spec.problem_id}_{spec.solver}_diagnose.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")
    return _STATUS_EXIT[report.status]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(p):
    p.add_argument("--grad-tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)


def _config_from_args(args, base=None):
    config = base or SolverConfig()
    overrides = {
        name: getattr(args, flag)
        for name, flag in (
            ("grad_tol", "grad_tol"),
            ("max_iter", "max_iter"),
            ("alpha", "alpha"),
            ("theta", "theta"),
            ("gamma", "gamma"),
            ("tau", "tau"),
        )
        if getattr(args, flag) is not None
    }
    return replace(config, **overrides) if overrides else config


def build_parser():
    parser = _Parser(prog="nepsolve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--solver", choices=SOLVERS, default="descent-newton")
    p_solve.add_argument("--x0", default="paper", help='comma-separated or "paper"')
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out-dir", default=None)
    _add_config_flags(p_solve)

    p_table = sub.add_parser("table1", help="five-example comparison table")
    p_table.add_argument("--out-dir", default=None)

    p_bench = sub.add_parser("facility-bench", help="random-start facility study")
    p_bench.add_argument("--runs", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--solvers", default="descent-newton,newton-kkt", help="comma-separated list"
    )
    p_bench.add_argument("--out-dir", default=None)
    _add_config_flags(p_bench)

    p_diag = sub.add_parser("diagnose", help="solve plus certificates")
    p_diag.add_argument("--problem", required=True)
    p_diag.add_argument("--solver", choices=SOLVERS, default="descent-newton")
    p_diag.add_argument("--x0", default="paper")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--box-low", type=float, default=-5.0)
    p_diag.add_argument("--box-high", type=float, default=5.0)
    p_diag.add_argument("--samples", type=int, default=50)
    p_diag.add_argument("--out-dir", default=None)
    _add_config_flags(p_diag)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            spec = RunSpec(
                problem_id=args.problem,
                solver=args.solver,
                x0=args.x0,
                config=_config_from_args(args),
                seed=args.seed,
                out_dir=args.out_dir,
            )
            return cmd_solve(spec)
        if args.command == "table1":
            return cmd_table1(out_dir=args.out_dir)
        if args.command == "facility-bench":
            solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
            for s in solvers:
                if s not in SOLVERS:
                    raise UsageError(f"unknown solver {s!r}")
            # The published study's tolerance, plus an escape radius: a
            # facility 100+ units from every client has walked off into the
            # flat tail where gradients vanish without any equilibrium.
            base = SolverConfig(grad_tol=1e-6, divergence_radius=100.0)
            return cmd_facility_bench(
                runs=args.runs,
                seed=args.seed,
                solvers=solvers,
                config=_config_from_args(args, base=base),
                out_dir=args.out_dir,
            )
        if args.command == "diagnose":
            spec = RunSpec(
                problem_id=args.problem,
                solver=args.solver,
                x0=args.x0,
                config=_config_from_args(args),
                seed=args.seed,
                out_dir=args.out_dir,
            )
            return cmd_diagnose(spec, (args.box_low, args.box_high), args.samples)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
