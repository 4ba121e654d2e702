"""Per-layer counters, attached to nepsolve from outside.

While a Tracer is installed, the names that the solver loops look up in
their module globals (evaluate_residual, build_surrogates, lu_solve, ...)
are replaced by wrappers that count calls and add up wall time, and
problems are rebuilt with dataclasses.replace so that their oracle
callables are counted too. The program's own code is not changed; leaving
the `installed` block restores every original object.

Timed keys (calls and seconds; nested keys overlap, e.g. core.fd includes
the gradient oracle calls it makes):

    core.value core.grad core.hess    oracle callables of the problem
    core.fd                           core.finite_diff_jacobian (one FD block)
    core.residual core.classify       evaluate_residual / classify_point
                                      as called by the solver loops
    solver.surrogate solver.direction solver.inequality
    linalg.lu linalg.chol linalg.assemble
    baselines.kkt_step baselines.jacobi_step
    suite.build                       one problem constructed
    cli.write                         report/CSV building and file writes
    diagnostics.estimate diagnostics.lemma
"""

import contextlib
import dataclasses
import json
import time
import types
from collections import defaultdict

from common import metric, per

import nepsolve.baselines as baselines_mod
import nepsolve.core as core_mod
import nepsolve.solver as solver_mod

DN, KKT, EJ = "descent-newton", "newton-kkt", "exact-jacobi"

_ORACLES = (
    ("f1", "core.value"),
    ("f2", "core.value"),
    ("grad1", "core.grad"),
    ("grad2", "core.grad"),
    ("hess11", "core.hess"),
    ("hess22", "core.hess"),
    ("hess12_f1", "core.hess"),
    ("hess21_f2", "core.hess"),
)

# (module, global name, key): the lookups the solver loops make
_LAYER_PATCHES = (
    (core_mod, "finite_diff_jacobian", "core.fd"),
    (solver_mod, "evaluate_residual", "core.residual"),
    (baselines_mod, "evaluate_residual", "core.residual"),
    (solver_mod, "classify_point", "core.classify"),
    (baselines_mod, "classify_point", "core.classify"),
    (solver_mod, "compute_direction", "solver.direction"),
    (solver_mod, "check_inequalities", "solver.inequality"),
    (solver_mod, "lu_solve", "linalg.lu"),
    (baselines_mod, "lu_solve", "linalg.lu"),
    (solver_mod, "modified_cholesky", "linalg.chol"),
    (solver_mod, "assemble_block_system", "linalg.assemble"),
    (baselines_mod, "newton_kkt_step", "baselines.kkt_step"),
    (baselines_mod, "exact_jacobi_step", "baselines.jacobi_step"),
)


class Tracer:
    """Call counts, busy seconds and solver-run tallies of one traced phase."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.secs = defaultdict(float)
        self.runs = defaultdict(int)  # solver runs attempted, by solver name
        self.dn_iterations = 0
        self.identity_fallbacks = 0
        self.invocations = 0

    def timed(self, key, fn):
        calls, secs, clock = self.calls, self.secs, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                secs[key] += clock() - t0
                calls[key] += 1

        return wrapper

    def record_run(self, solver, report):
        self.runs[solver] += 1
        if solver == DN and report is not None:
            self.dn_iterations += report.iterations

    def counted_problem(self, problem):
        """The same problem with every oracle callable counted."""
        fields = {
            name: self.timed(key, getattr(problem, name))
            for name, key in _ORACLES
            if getattr(problem, name) is not None
        }
        return dataclasses.replace(problem, **fields)

    def _surrogates(self, fn):
        timed = self.timed("solver.surrogate", fn)

        def wrapper(*args, **kwargs):
            chol_before = self.calls["linalg.chol"]
            pair = timed(*args, **kwargs)
            # a surrogate not built by modified_cholesky is the identity
            self.identity_fallbacks += len(pair) - (self.calls["linalg.chol"] - chol_before)
            return pair

        return wrapper

    def _solver_run(self, solver, fn):
        def wrapper(*args, **kwargs):
            report = None
            try:
                report = fn(*args, **kwargs)
                return report
            finally:
                self.record_run(solver, report)

        return wrapper

    def _cli_patches(self, cli):
        # nepsolve.cli writes its JSON files through its module-level name
        # `json`; a stand-in whose dump is timed counts those writes
        json_proxy = types.SimpleNamespace(
            **{k: v for k, v in vars(json).items() if not k.startswith("__")}
        )
        json_proxy.dump = self.timed("cli.write", json.dump)
        get_problem = self.timed("suite.build", cli.get_problem)
        return {
            "solve": self._solver_run(DN, cli.solve),
            "solve_newton_kkt": self._solver_run(KKT, cli.solve_newton_kkt),
            "solve_exact_jacobi": self._solver_run(EJ, cli.solve_exact_jacobi),
            "get_problem": lambda pid: self.counted_problem(get_problem(pid)),
            "report_to_dict": self.timed("cli.write", cli.report_to_dict),
            "trajectory_csv_rows": self.timed("cli.write", cli.trajectory_csv_rows),
            "_write_csv": self.timed("cli.write", cli._write_csv),
            "json": json_proxy,
            "estimate_assumptions": self.timed("diagnostics.estimate", cli.estimate_assumptions),
            "verify_lemma_bounds": self.timed("diagnostics.lemma", cli.verify_lemma_bounds),
        }

    @contextlib.contextmanager
    def installed(self, cli=None):
        """Swap the wrappers into the program's module globals (and into
        nepsolve.cli's, when given) for the duration of the block."""
        patches = [(mod, name, self.timed(key, getattr(mod, name)))
                   for mod, name, key in _LAYER_PATCHES]
        patches.append((solver_mod, "build_surrogates",
                        self._surrogates(solver_mod.build_surrogates)))
        if cli is not None:
            patches += [(cli, name, fn) for name, fn in self._cli_patches(cli).items()]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    # -- persistence for traced child processes ------------------------------

    def to_dict(self):
        return {
            "calls": dict(self.calls),
            "secs": dict(self.secs),
            "runs": dict(self.runs),
            "dn_iterations": self.dn_iterations,
            "identity_fallbacks": self.identity_fallbacks,
            "invocations": self.invocations,
        }

    def merge(self, data):
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["secs"].items():
            self.secs[key] += value
        for key, value in data["runs"].items():
            self.runs[key] += value
        for key in ("dn_iterations", "identity_fallbacks", "invocations"):
            setattr(self, key, getattr(self, key) + data[key])


def layer_metrics(tracer, import_ms, import_scipy_ms, overhead_pct):
    """The per-layer metrics of BENCHMARK.json from one traced phase.

    'per solve' divides by every solver run of the phase; solver.* metrics
    divide by descent-newton runs, baselines.* by runs of that baseline,
    cli.*/diagnostics.* by CLI invocations, and suite.problem_build_ms by
    problems constructed.
    """
    calls, secs = tracer.calls, tracer.secs
    solves = sum(tracer.runs.values())
    dn, kkt, ej = tracer.runs[DN], tracer.runs[KKT], tracer.runs[EJ]
    inv = tracer.invocations

    def ms(key, count):
        return metric(per(secs[key] * 1e3, count), "ms")

    def count(key, count_):
        return metric(per(calls[key], count_), "count")

    oracle_s = secs["core.value"] + secs["core.grad"] + secs["core.hess"]
    return {
        "core.grad_calls_per_solve": count("core.grad", solves),
        "core.value_calls_per_solve": count("core.value", solves),
        "core.fd_blocks_per_solve": count("core.fd", solves),
        "core.fd_ms_per_solve": ms("core.fd", solves),
        "core.oracle_ms_per_solve": metric(per(oracle_s * 1e3, solves), "ms"),
        "core.residual_ms_per_solve": ms("core.residual", solves),
        "core.classify_ms_per_solve": ms("core.classify", solves),
        "linalg.lu_calls_per_solve": count("linalg.lu", solves),
        "linalg.lu_ms_per_solve": ms("linalg.lu", solves),
        "linalg.chol_calls_per_solve": count("linalg.chol", solves),
        "linalg.chol_ms_per_solve": ms("linalg.chol", solves),
        "linalg.assemble_ms_per_solve": ms("linalg.assemble", solves),
        "solver.iterations_per_solve": metric(per(tracer.dn_iterations, dn), "count"),
        "solver.trials_per_iteration": count("solver.direction", tracer.dn_iterations),
        "solver.identity_fallbacks_per_solve": metric(per(tracer.identity_fallbacks, dn), "count"),
        "solver.surrogate_ms_per_solve": ms("solver.surrogate", dn),
        "solver.direction_ms_per_solve": ms("solver.direction", dn),
        "solver.inequality_ms_per_solve": ms("solver.inequality", dn),
        "baselines.kkt_step_ms_per_solve": ms("baselines.kkt_step", kkt),
        "baselines.jacobi_steps_per_solve": count("baselines.jacobi_step", ej),
        "baselines.jacobi_step_ms_per_solve": ms("baselines.jacobi_step", ej),
        "suite.problem_build_ms": ms("suite.build", calls["suite.build"]),
        "cli.import_ms": metric(import_ms, "ms"),
        "cli.import_scipy_ms": metric(import_scipy_ms, "ms"),
        "cli.write_ms_per_invocation": ms("cli.write", inv),
        "diagnostics.estimate_ms_per_invocation": ms("diagnostics.estimate", inv),
        "diagnostics.lemma_ms_per_invocation": ms("diagnostics.lemma", inv),
        "trace.overhead_pct": metric(overhead_pct, "%"),
    }
