#!/usr/bin/env python3
"""Shows that each workload's checker accepts the program's real outputs and
rejects wrong ones: an end point shifted off equilibrium, a flipped
classification label, and a CONVERGED status in place of DIVERGED.

    python3 bench/selfcheck.py

Exits 0 when every real output passes and every wrong one is caught.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

from common import BLAS_ENV, OUT, SRC, run_child

os.environ.update(BLAS_ENV)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import clioneshot  # noqa: E402
from inprocess import FacilityStudy, QuadraticDense  # noqa: E402
from nepsolve import (  # noqa: E402
    PointClass, PointKind, SolveStatus, get_problem, solve, solve_newton_kkt,
)

SHIFT = 1e-3
FLIP = {
    PointKind.EQUILIBRIUM_CANDIDATE: PointKind.NON_EQUILIBRIUM_STATIONARY,
    PointKind.NON_EQUILIBRIUM_STATIONARY: PointKind.EQUILIBRIUM_CANDIDATE,
}


def shifted(report):
    return dataclasses.replace(report, final_x1=report.final_x1 + SHIFT)


def flipped(report):
    cls = report.classification
    label = PointClass(FLIP[cls.kind], cls.min_eig_1, cls.min_eig_2)
    return dataclasses.replace(report, classification=label)


class Tally:
    def __init__(self):
        self.bad = 0

    def expect(self, label, errors, wrong):
        ok = bool(errors) == wrong
        self.bad += not ok
        if wrong:
            verdict = "caught" if errors else "MISSED"
        else:
            verdict = "REJECTED" if errors else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}" + (f" ({errors[0]})" if errors else ""))


def facility(tally):
    problem = get_problem("facility2d")
    cfg = FacilityStudy.config
    starts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(40, 4))
    reports = [solve(problem, s[:2], s[2:], cfg) for s in starts]
    reports += [solve_newton_kkt(problem, s[:2], s[2:], cfg) for s in starts]

    def check(r):
        return checks.check_facility(r, cfg.grad_tol, cfg.divergence_radius, cfg.max_iter)

    def first(status, kind=None):
        return next(r for r in reports if r.status is status
                    and (kind is None or r.classification.kind is kind))

    eq = first(SolveStatus.CONVERGED, PointKind.EQUILIBRIUM_CANDIDATE)
    nes = first(SolveStatus.CONVERGED, PointKind.NON_EQUILIBRIUM_STATIONARY)
    div = first(SolveStatus.DIVERGED)
    tally.expect("facility: every real report", [e for r in reports for e in check(r)], False)
    tally.expect("facility: equilibrium shifted", check(shifted(eq)), True)
    tally.expect("facility: equilibrium labelled stationary", check(flipped(eq)), True)
    tally.expect("facility: stationary point labelled equilibrium", check(flipped(nes)), True)
    claimed = dataclasses.replace(div, status=SolveStatus.CONVERGED, classification=eq.classification)
    tally.expect("facility: CONVERGED in place of DIVERGED", check(claimed), True)


def quadratic(tally):
    workload = QuadraticDense()
    plan = workload.plan(0)
    fixed = workload.fixed_ids[0]
    ref = plan["refs"][fixed]
    problem = get_problem(fixed)
    zero = np.zeros(problem.n1), np.zeros(problem.n2)
    dn = solve(problem, *zero)
    kkt = solve_newton_kkt(problem, *zero)
    diverged = dataclasses.replace(dn, status=SolveStatus.DIVERGED, classification=None)

    def check(report, solver):
        return checks.check_quadratic(report, ref, solver, workload.config.grad_tol)

    tally.expect(f"quadratic: descent-newton on {fixed}", check(dn, "descent-newton"), False)
    tally.expect(f"quadratic: newton-kkt on {fixed}", check(kkt, "newton-kkt"), False)
    tally.expect("quadratic: end point shifted", check(shifted(dn), "descent-newton"), True)
    tally.expect("quadratic: equilibrium labelled stationary", check(flipped(dn), "descent-newton"), True)
    tally.expect(f"quadratic: exact-jacobi DIVERGED with rho {ref.rho:.2f}",
                 check(diverged, "exact-jacobi"), False)
    tally.expect(f"quadratic: exact-jacobi CONVERGED in place of DIVERGED (rho {ref.rho:.2f})",
                 check(dn, "exact-jacobi"), True)


def cli(tally):
    base = OUT / "selfcheck"
    shutil.rmtree(base, ignore_errors=True)
    files = {}
    for tag, (args, _) in clioneshot.COMMANDS.items():
        out_dir = base / tag
        run_child([sys.executable, "-m", "nepsolve.cli", *args, "--out-dir", str(out_dir)],
                  stdout=subprocess.DEVNULL, check=True)
        files[tag] = {p.name: p.read_text() for p in out_dir.iterdir()}
        tally.expect(f"cli: {tag}", clioneshot.check_files(tag, files[tag]), False)
    shutil.rmtree(base)

    def mutated(tag, name, edit):
        return clioneshot.check_files(tag, dict(files[tag], **{name: edit(files[tag][name])}))

    def edit_json(fn):
        def edit(text):
            data = json.loads(text)
            fn(data)
            return json.dumps(data)
        return edit

    def shift(key):
        return edit_json(lambda d: d[key].__setitem__(0, d[key][0] + SHIFT))

    tally.expect("cli: examp1 end point shifted", mutated(
        "solve-examp1", "examp1_descent-newton_report.json", shift("final_x1")), True)
    tally.expect("cli: facility2d end point shifted", mutated(
        "solve-facility2d", "facility2d_descent-newton_report.json", shift("final_x2")), True)
    tally.expect("cli: table1 cell shifted", mutated(
        "table1", "table1.csv", lambda t: t.replace('"(2.00000, 1.00000)"', '"(2.00100, 1.00000)"', 1)), True)
    tally.expect("cli: table1 CONVERGED in place of DIVERGED", mutated(
        "table1", "table1.csv",
        lambda t: t.replace("examp2,exact-jacobi,diverged,diverged,inf",
                            'examp2,exact-jacobi,converged,"(5.00000, 3.00000)",5.0e-05')), True)
    tally.expect("cli: lemma report not OK", mutated(
        "diagnose-examp5", "examp5_descent-newton_diagnose.json",
        edit_json(lambda d: d["lemma_report"].__setitem__("ok", False))), True)


def main():
    tally = Tally()
    facility(tally)
    quadratic(tally)
    cli(tally)
    print("selfcheck:", "every check behaves" if not tally.bad else f"{tally.bad} case(s) wrong")
    return 1 if tally.bad else 0


if __name__ == "__main__":
    sys.exit(main())
