"""Command-line front end.

Subcommands: `solve` runs one solver on one problem and writes a JSON report
plus a CSV trajectory; `table1` reproduces the five-example comparison;
`facility-bench` runs the 2-D facility location study over seeded random
starts; `diagnose` runs a solve and then the assumption/lemma certificates.

Exit codes: 0 converged, 2 diverged, 3 iteration cap, 4 line-search failure,
5 undefined step (status `undefined`: a singular system, failed inner solve
or overflowing Hessian shift), 64 usage error (an unknown flag, a flag value
the config or the diagnostics reject, a diagnose box on which the problem's
values are not finite, a bad --x0), 65 unknown or malformed problem id.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .baselines import solve_exact_jacobi, solve_newton_kkt
from .core import NonFiniteEvaluation, PointKind, _Uniform
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
    if not np.all(np.isfinite(x)):
        raise UsageError(f"--x0 {x0_text!r} has non-finite coordinates")
    return x[: problem.n1], x[problem.n1 :]


def run_solver(problem, solver, x1, x2, config):
    # solver is one of SOLVERS: argparse and facility-bench check it first
    if solver == "newton-kkt":
        return solve_newton_kkt(problem, x1, x2, config)
    if solver == "exact-jacobi":
        return solve_exact_jacobi(problem, x1, x2, config)
    return solve(problem, x1, x2, config)


def _plain(value):
    """A dataclass as a dict of its fields in field order (vars() lists them
    in the order __init__ sets them), a tuple as a list and an ndarray as a
    list of floats, recursively; anything else as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {name: _plain(v) for name, v in vars(value).items()}
    return value


def report_to_dict(report, problem_id, solver):
    # record, certificate and config keys are the dataclasses' field names
    cls, cfg = report.classification, report.config
    config = _plain(cfg)
    del config["user_h1"], config["user_h2"]
    config["hessian_strategy"] = "modified-exact" if cfg.user_h1 is None else "user-supplied"
    return {
        "problem": problem_id,
        "solver": solver,
        "status": report.status.value,
        "config": config,
        "iterations": report.iterations,
        "final_x1": _plain(report.final_x1),
        "final_x2": _plain(report.final_x2),
        "final_residual": report.final_residual,
        "classification": None
        if cls is None
        else {
            "kind": cls.kind.value,
            "min_eig_1": cls.min_eig_1,
            "min_eig_2": cls.min_eig_2,
        },
        "trajectory": _plain(report.trajectory),
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
        point = problem.at(rec.x1, rec.x2)
        rows.append(
            [str(rec.k)]
            + [_fmt(v) for v in rec.x1]
            + [_fmt(v) for v in rec.x2]
            + [
                _fmt(np.linalg.norm(rec.g1)),
                _fmt(np.linalg.norm(rec.g2)),
                _fmt(rec.t),
                str(backtracks),
                _fmt(point.value1),
                _fmt(point.value2),
            ]
        )
    return rows


def _write_csv(path, rows, comment):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerows(rows)


def _out_dir(out_dir):
    out = out_dir or os.environ.get("NEP_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _print_and_write(rows, out_dir, filename, comment):
    """Print rows as an aligned table and write them as a commented CSV."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(val.ljust(w) for val, w in zip(r, widths)))
    _write_csv(os.path.join(_out_dir(out_dir), filename), rows, comment=comment)
    return EXIT_OK


def _run(args):
    """Run --solver on --problem from --x0 with the config flags."""
    config = _config_from_args(args, base=SolverConfig())
    problem = get_problem(args.problem)
    x1, x2 = resolve_x0(problem, args.problem, args.x0)
    return problem, run_solver(problem, args.solver, x1, x2, config)


def cmd_solve(args):
    """Run one solve, write report files, return the process exit code."""
    problem, report = _run(args)
    out = _out_dir(args.out_dir)
    stem = f"{args.problem}_{args.solver}"
    with open(os.path.join(out, f"{stem}_report.json"), "w") as fh:
        json.dump(report_to_dict(report, args.problem, args.solver), fh, indent=2)
    _write_csv(
        os.path.join(out, f"{stem}_trajectory.csv"),
        trajectory_csv_rows(problem, report),
        comment=f"nepsolve trajectory problem={args.problem} solver={args.solver}",
    )

    point = ", ".join(_fmt(v) for v in np.concatenate([report.final_x1, report.final_x2]))
    print(
        f"{args.problem}/{args.solver}: {report.status.value} "
        f"at ({point}) residual {report.final_residual:.6e} "
        f"in {report.iterations} iteration(s)"
    )
    return _STATUS_EXIT[report.status]


def _table_row(problem, solver, config):
    report = run_solver(problem, solver, *resolve_x0(problem, problem.name, "paper"), config)
    status = report.status.value
    if report.status is SolveStatus.UNDEFINED_STEP:
        return [problem.name, solver, status, "-", "-", "-"]
    if report.status is SolveStatus.CONVERGED:
        point = "(" + ", ".join(f"{v:.5f}" for v in np.concatenate([report.final_x1, report.final_x2])) + ")"
    else:
        point = status
    resid = "inf" if not np.isfinite(report.final_residual) else f"{report.final_residual:.5e}"
    return [problem.name, solver, status, point, resid, str(report.iterations)]


def cmd_table1(args):
    """Run the five examples against all three solvers and tabulate."""
    config = SolverConfig()
    rows = [["problem", "solver", "status", "point", "grad_norm", "iterations"]]
    for pid in ("examp1", "examp2", "examp3", "examp4", "examp5"):
        problem = get_problem(pid)
        rows += [_table_row(problem, solver, config) for solver in SOLVERS]
    return _print_and_write(rows, args.out_dir, "table1.csv", "nepsolve table1")


def cmd_facility_bench(args):
    """Seeded random-start study on the 2-D facility problem.

    Tabulates per-solver outcome counts plus the average iteration count
    among converged runs. Starts are drawn once and shared across solvers.
    """
    solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    if not solvers:
        raise UsageError(f"--solvers {args.solvers!r} names no solver")
    for s in solvers:
        if s not in SOLVERS:
            raise UsageError(f"unknown solver {s!r}")
    if args.runs < 0 or args.seed < 0:
        raise UsageError(f"--runs and --seed must be >= 0, got {args.runs} and {args.seed}")
    # the published study's tolerance
    config = _config_from_args(args, base=SolverConfig(grad_tol=1e-6))

    problem = get_problem("facility2d")
    starts = _Uniform(args.seed).uniform(-2.0, 2.0, size=(args.runs, problem.n1 + problem.n2))
    rows = [["solver", "equilibrium", "non_equilibrium_stationary", "failed", "avg_iterations_converged"]]
    for solver in solvers:
        equilibrium = stationary = failed = 0
        iters = []
        for row in starts:
            report = run_solver(problem, solver, row[: problem.n1], row[problem.n1 :], config)
            if report.status is not SolveStatus.CONVERGED:
                failed += 1
                continue
            iters.append(report.iterations)
            if report.classification.kind is PointKind.EQUILIBRIUM_CANDIDATE:
                equilibrium += 1
            else:
                stationary += 1
        avg = _fmt(np.mean(iters)) if iters else "-"
        rows.append([solver, str(equilibrium), str(stationary), str(failed), avg])
    return _print_and_write(
        rows, args.out_dir, "facility_bench.csv",
        f"nepsolve facility-bench runs={args.runs} seed={args.seed}",
    )


def cmd_diagnose(args):
    """Solve, then certify assumption constants and, for descent-newton, the
    lemma bounds on the run ("lemma_report" is null for the baselines)."""
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    problem, report = _run(args)
    box = (args.box_low, args.box_high)
    try:
        estimates = estimate_assumptions(problem, box, args.samples, args.seed)
    except (ValueError, NonFiniteEvaluation) as err:
        raise UsageError(str(err)) from None
    payload = {
        "problem": args.problem,
        "solver": args.solver,
        "status": report.status.value,
        "iterations": report.iterations,
        "box": [float(box[0]), float(box[1])],
        "samples": args.samples,
        "estimates": _plain(estimates),
        "converged_in_one_iteration": report.status is SolveStatus.CONVERGED
        and report.iterations == 1,
    }
    if report.trajectory:
        lemma_report = verify_lemma_bounds(report, estimates)
        payload["lemma_report"] = None if lemma_report is None else lemma_report.to_dict()
        payload["stepsizes"] = _plain(monitor_stepsizes(report))
        payload["partial_sum_d1"], payload["partial_sum_d2"] = partial_direction_sums(report)
        if lemma_report is None:
            print(
                f"lemma certificates: none, {report.solver} solves no surrogate system "
                "and runs no line search"
            )
        else:
            print(lemma_report)
    path = os.path.join(_out_dir(args.out_dir), f"{args.problem}_{args.solver}_diagnose.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")
    return _STATUS_EXIT[report.status]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

#: the SolverConfig fields settable from the command line, as --grad-tol etc.
_CONFIG_FLAGS = (
    ("grad_tol", float),
    ("max_iter", int),
    ("alpha", float),
    ("theta", float),
    ("gamma", float),
    ("tau", float),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _config_from_args(args, base):
    overrides = {
        name: getattr(args, name) for name, _ in _CONFIG_FLAGS if getattr(args, name) is not None
    }
    try:
        return replace(base, **overrides)
    except ValueError as err:
        raise UsageError(str(err)) from None


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None)
    config = argparse.ArgumentParser(add_help=False)
    for name, type_ in _CONFIG_FLAGS:
        config.add_argument("--" + name.replace("_", "-"), type=type_, default=None)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--problem", required=True)
    run.add_argument("--solver", choices=SOLVERS, default="descent-newton")
    run.add_argument("--x0", default="paper", help='comma-separated or "paper"')

    parser = _Parser(prog="nepsolve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[run, config, common], help="run one solver on one problem")
    p.set_defaults(cmd=cmd_solve)

    p = sub.add_parser("table1", parents=[common], help="five-example comparison table")
    p.set_defaults(cmd=cmd_table1)

    p = sub.add_parser("facility-bench", parents=[config, common], help="random-start facility study")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solvers", default="descent-newton,newton-kkt", help="comma-separated list")
    p.set_defaults(cmd=cmd_facility_bench)

    p = sub.add_parser("diagnose", parents=[run, config, common], help="solve plus certificates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box-low", type=float, default=-5.0)
    p.add_argument("--box-high", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(cmd=cmd_diagnose)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.cmd(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownProblemId as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNKNOWN_PROBLEM


if __name__ == "__main__":
    sys.exit(main())
