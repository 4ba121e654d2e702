import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

import nepsolve.cli as cli
from nepsolve import SolverConfig, get_problem, solve
from nepsolve.cli import main
from nepsolve.solver import IterateRecord, LineSearchCertificate


def run_cli(args, tmp_path, subdir="out"):
    out = tmp_path / subdir
    return main(args + ["--out-dir", str(out)]), out


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def test_solve_example1_paper_start(tmp_path):
    code, out = run_cli(
        ["solve", "--problem", "examp1", "--solver", "descent-newton", "--x0", "paper"],
        tmp_path,
    )
    assert code == 0
    report = json.loads((out / "examp1_descent-newton_report.json").read_text())
    assert report["status"] == "converged"
    assert report["iterations"] == 1
    assert abs(report["final_x1"][0] - 2.0) <= 1e-3
    assert abs(report["final_x2"][0] - 1.0) <= 1e-3
    assert report["classification"]["kind"] == "equilibrium-candidate"
    assert (out / "examp1_descent-newton_trajectory.csv").exists()


def test_solve_example3_diverges_exit_code(tmp_path):
    code, _ = run_cli(["solve", "--problem", "examp3", "--x0", "paper"], tmp_path)
    assert code == 2


def test_solve_starting_at_solution(tmp_path):
    code, out = run_cli(["solve", "--problem", "examp1", "--x0", "2,1"], tmp_path)
    assert code == 0
    report = json.loads((out / "examp1_descent-newton_report.json").read_text())
    assert report["iterations"] == 0


def test_solve_unknown_problem_exit_code(tmp_path):
    code, _ = run_cli(["solve", "--problem", "nosuch"], tmp_path)
    assert code == 65


def test_solve_bad_x0_exit_code(tmp_path):
    code, _ = run_cli(["solve", "--problem", "examp1", "--x0", "1,2,3"], tmp_path)
    assert code == 64


@pytest.mark.parametrize(
    "args, code",
    [
        (["solve", "--problem", "examp1", "--alpha", "2"], 64),
        (["solve", "--problem", "examp1", "--max-iter", "0"], 64),
        (["solve", "--problem", "examp1", "--grad-tol", "nan"], 64),
        (["solve", "--problem", "examp1", "--x0", "nan,1"], 64),
        (["solve", "--problem", "examp1", "--x0", "inf,1"], 64),
        (["solve", "--problem", "quadratic:0:0x3"], 65),
        (["solve", "--problem", "quadratic:-1:2x2"], 65),
        (["facility-bench", "--runs", "-1"], 64),
        (["facility-bench", "--runs", "1", "--seed", "-1"], 64),
        (["facility-bench", "--runs", "1", "--tau", "0"], 64),
        (["diagnose", "--problem", "examp1", "--samples", "1"], 64),
        (["diagnose", "--problem", "examp1", "--box-low", "5", "--box-high", "5"], 64),
        (["diagnose", "--problem", "examp1", "--box-low", "nan"], 64),
        (["diagnose", "--problem", "examp1", "--box-high", "inf"], 64),
        (["diagnose", "--problem", "examp1", "--seed", "-1"], 64),
        (["diagnose", "--problem", "examp1", "--alpha", "2"], 64),
        (["facility-bench", "--runs", "1", "--solvers", ","], 64),
        (["solve", "--problem", "examp1", "--x0", "a,1"], 64),
        (["solve", "--problem", "quadratic:+3:5x5"], 65),
    ],
)
def test_bad_input_exit_code_writes_nothing(tmp_path, capsys, args, code):
    assert run_cli(args, tmp_path)[0] == code
    assert not (tmp_path / "out").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_diagnose_negative_seed_names_the_flag(tmp_path, capsys):
    code, out = run_cli(["diagnose", "--problem", "examp1", "--seed", "-1"], tmp_path)
    assert code == 64
    assert not out.exists()
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err


def test_diagnose_one_sample_fails_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "solve", no_solve)
    code, out = run_cli(["diagnose", "--problem", "examp1", "--samples", "1"], tmp_path)
    assert code == 64
    assert not out.exists()
    assert "--samples must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "box, message",
    [
        (["--box-low", "5", "--box-high", "5"], "box upper bounds must exceed lower bounds"),
        (["--box-low", "nan"], "box bounds must be finite"),
        (["--box-high", "inf"], "box bounds must be finite"),
    ],
)
def test_diagnose_bad_box_fails_before_the_solve(tmp_path, capsys, monkeypatch, box, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "solve", no_solve)
    code, out = run_cli(["diagnose", "--problem", "examp1"] + box, tmp_path)
    assert code == 64
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_cli_commands_leave_numpy_random_unimported(tmp_path):
    # in a fresh interpreter: pytest's own process has loaded numpy.random
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    commands = [
        ["diagnose", "--problem", "examp5"],
        ["facility-bench", "--runs", "2"],
        ["solve", "--problem", "facility2d"],
        ["table1"],
    ]
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {src!r}); from nepsolve.cli import main; "
            f"codes = [main(args + ['--out-dir', {str(tmp_path)!r}]) for args in {commands!r}]; "
            "print(codes, 'numpy.random' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


@pytest.mark.parametrize("bound, code", [("1e100", 64), ("1e60", 0)])
def test_diagnose_huge_box_ends_without_traceback(tmp_path, bound, code):
    # in a fresh interpreter: pytest's filterwarnings would turn the overflow
    # warnings of examp5's oracles on such a box into errors
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "out"
    args = ["diagnose", "--problem", "examp5", f"--box-low=-{bound}", f"--box-high={bound}"]
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {src!r}); "
            "from nepsolve.cli import main; sys.exit(main(sys.argv[1:]))",
            *args,
            "--out-dir",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 64:
        # examp5's values overflow on a 1e100 box
        assert "inside the sample box" in proc.stderr
        assert not out.exists()
    else:
        # the run-level mu_max overflows and reads Infinity
        payload = json.loads((out / "examp5_descent-newton_diagnose.json").read_text())
        assert payload["lemma_report"]["estimates"]["mu_max"] == float("inf")


#: nepsolve.cli module globals that bench/tracing.py replaces while tracing;
#: the CLI must look each of them up by name when it calls it
TRACED_GLOBALS = (
    "solve",
    "solve_newton_kkt",
    "solve_exact_jacobi",
    "get_problem",
    "report_to_dict",
    "trajectory_csv_rows",
    "_write_csv",
    "json",
    "estimate_assumptions",
    "verify_lemma_bounds",
)


def test_solve_json_keys_are_the_dataclass_fields(tmp_path):
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    config_keys = [n for n in names(SolverConfig) if n not in ("user_h1", "user_h2")]
    _, out = run_cli(["solve", "--problem", "examp5"], tmp_path)
    report = json.loads((out / "examp5_descent-newton_report.json").read_text())
    assert list(report["config"]) == config_keys + ["hessian_strategy"]
    assert report["trajectory"]
    for rec in report["trajectory"]:
        assert list(rec) == names(IterateRecord)
        assert list(rec["certificate"]) == names(LineSearchCertificate)
    # user-supplied surrogates are named by the strategy, not written out
    config = SolverConfig(user_h1=np.eye(1), user_h2=np.eye(1))
    run = solve(get_problem("examp1"), [-5.0], [1.0], config)
    payload = json.loads(json.dumps(cli.report_to_dict(run, "examp1", "descent-newton")))
    assert list(payload["config"]) == config_keys + ["hessian_strategy"]
    assert payload["config"]["hessian_strategy"] == "user-supplied"


def test_traced_globals_exist():
    for name in TRACED_GLOBALS:
        assert hasattr(cli, name), name


def test_solve_looks_up_patched_globals(tmp_path, monkeypatch):
    seen = []

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    def dump(*args, **kwargs):
        seen.append("json")
        return json.dump(*args, **kwargs)

    for name in TRACED_GLOBALS:
        if name != "json":
            spy(name)
    # the tracer swaps the json module for a namespace with a timed dump
    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dump=dump))
    run_cli(["solve", "--problem", "examp1"], tmp_path)
    run_cli(["diagnose", "--problem", "examp1", "--samples", "2"], tmp_path)
    run_cli(["solve", "--problem", "examp1", "--solver", "newton-kkt"], tmp_path)
    run_cli(["solve", "--problem", "examp1", "--solver", "exact-jacobi"], tmp_path)
    assert set(seen) == set(TRACED_GLOBALS)
    assert seen[:2] == ["get_problem", "solve"]


def test_bench_tracer_hooks_count_and_restore(monkeypatch):
    # bench/tracing.py's Tracer swaps counting wrappers into the module
    # globals of nepsolve.core, .solver and .baselines; each name must still
    # exist where it looks and be called through it, and leaving the block
    # must restore every original
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import tracing
    from nepsolve import get_problem, solve, solve_exact_jacobi, solve_newton_kkt

    patched = [(mod, name) for mod, name, _ in tracing._LAYER_PATCHES]
    patched.append((tracing.solver_mod, "build_surrogates"))
    originals = [getattr(mod, name) for mod, name in patched]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(mod, name) is not fn for (mod, name), fn in zip(patched, originals))
        for problem_id in ("examp1", "quadratic:0:5x5"):
            problem = get_problem(problem_id)
            x1, x2 = np.full(problem.n1, -1.0), np.full(problem.n2, 1.0)
            for run in (solve, solve_newton_kkt, solve_exact_jacobi):
                assert run(problem, x1, x2).status.value == "converged"
    for key in ("solver.direction", "linalg.chol", "linalg.lu", "linalg.assemble",
                "core.classify", "baselines.kkt_step", "baselines.jacobi_step"):
        assert tracer.calls[key] > 0, key
    assert all(getattr(mod, name) is fn for (mod, name), fn in zip(patched, originals))


def test_bench_tracer_counts_identity_fallbacks(monkeypatch):
    # the tracer counts a surrogate as an identity fallback when building it
    # made no modified_cholesky call; on descent-newton solves of facility2d
    # from the first 20 starts of `facility-bench --seed 0` that count must
    # equal the Hessian blocks, at the iterates, whose symmetric part has an
    # eigenvalue below -1e-8
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import tracing
    from nepsolve import SolverConfig, get_problem, solve

    problem = get_problem("facility2d")
    starts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(20, 4))
    config = SolverConfig(grad_tol=1e-6)
    tracer = tracing.Tracer()
    with tracer.installed():
        reports = [solve(problem, row[:2], row[2:], config) for row in starts]
    assert all(report.status.value == "converged" for report in reports)
    iterates = [(rec.x1, rec.x2) for report in reports for rec in report.trajectory]
    assert tracer.calls["solver.surrogate"] == len(iterates)
    indefinite = 0
    for x1, x2 in iterates:
        point = problem.at(x1, x2)
        for h in (point.hess11, point.hess22):
            indefinite += np.linalg.eigvalsh(0.5 * (h + h.T))[0] < -1e-8
    assert indefinite > 0
    assert tracer.identity_fallbacks == indefinite


def test_bench_selfcheck_passes():
    # the benchmark's checkers accept the program's real outputs and catch
    # wrong ones; run here, they meet every change to the program too
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "selfcheck.py")],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selfcheck: every check behaves")


def test_usage_error_exit_code():
    # solve has no --seed: its runs use no randomness
    for args in (["solve", "--no-such-flag"], ["solve", "--problem", "examp1", "--seed", "1"]):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 64


def test_jacobi_undefined_exit_code(tmp_path):
    code, out = run_cli(
        ["solve", "--problem", "examp4", "--solver", "exact-jacobi", "--x0", "paper"],
        tmp_path,
    )
    assert code == 5
    report = json.loads((out / "examp4_exact-jacobi_report.json").read_text())
    assert report["status"] == "undefined"
    assert report["iterations"] == 0


def test_trajectory_csv_round_trip(tmp_path):
    code, out = run_cli(
        ["solve", "--problem", "examp5", "--x0", "paper"], tmp_path
    )
    assert code == 0
    report = json.loads((out / "examp5_descent-newton_report.json").read_text())
    rows = read_csv(out / "examp5_descent-newton_trajectory.csv")
    header, body = rows[0], rows[1:]
    assert header == ["k", "x1_0", "x2_0", "g1_norm", "g2_norm", "t", "backtracks", "f1", "f2"]
    assert len(body) == report["iterations"]
    for row, rec in zip(body, report["trajectory"]):
        assert int(row[0]) == rec["k"]
        assert float(row[1]) == pytest.approx(rec["x1"][0], abs=1e-12)
        assert float(row[2]) == pytest.approx(rec["x2"][0], abs=1e-12)
        assert float(row[3]) == pytest.approx(np.linalg.norm(rec["g1"]), abs=1e-12)
        assert float(row[5]) == rec["t"]
        assert int(row[6]) == rec["certificate"]["backtracks"]


def test_csv_outputs_are_byte_identical(tmp_path):
    _, out_a = run_cli(["solve", "--problem", "examp5", "--x0", "paper"], tmp_path, "a")
    _, out_b = run_cli(["solve", "--problem", "examp5", "--x0", "paper"], tmp_path, "b")
    a = (out_a / "examp5_descent-newton_trajectory.csv").read_bytes()
    b = (out_b / "examp5_descent-newton_trajectory.csv").read_bytes()
    assert a == b


def test_out_dir_env_fallback(tmp_path, monkeypatch, capsys):
    target = tmp_path / "env-out"
    monkeypatch.setenv("NEP_OUT_DIR", str(target))
    code = main(["solve", "--problem", "examp1", "--x0", "paper"])
    assert code == 0
    assert (target / "examp1_descent-newton_report.json").exists()


#: the full text of table1.csv; csv.writer ends each row with \r\n
TABLE1_CSV = "# nepsolve table1\n" + "".join(
    row + "\r\n"
    for row in (
        "problem,solver,status,point,grad_norm,iterations",
        'examp1,descent-newton,converged,"(2.00000, 1.00000)",0.00000e+00,1',
        'examp1,newton-kkt,converged,"(2.00000, 1.00000)",0.00000e+00,1',
        'examp1,exact-jacobi,converged,"(2.00003, 1.00000)",5.59145e-05,14',
        'examp2,descent-newton,converged,"(0.57143, 4.71429)",2.22045e-16,1',
        'examp2,newton-kkt,converged,"(0.57143, 4.71429)",2.22045e-16,1',
        "examp2,exact-jacobi,diverged,diverged,inf,19",
        "examp3,descent-newton,diverged,diverged,inf,18",
        'examp3,newton-kkt,converged,"(3.20000, -1.40000)",1.77636e-15,1',
        'examp3,exact-jacobi,converged,"(3.19997, -1.39999)",5.01388e-05,14',
        'examp4,descent-newton,converged,"(0.70000, 0.60000)",5.71402e-08,1',
        'examp4,newton-kkt,converged,"(0.70000, 0.60000)",2.22045e-16,1',
        "examp4,exact-jacobi,undefined,-,-,-",
        'examp5,descent-newton,converged,"(0.00000, 0.00000)",7.37982e-15,8',
        'examp5,newton-kkt,converged,"(0.00000, 0.00000)",6.65622e-13,7',
        'examp5,exact-jacobi,converged,"(0.00000, 0.00000)",7.60309e-11,2',
    )
)


def test_table1_command(tmp_path, capsys):
    code, out = run_cli(["table1"], tmp_path)
    assert code == 0
    assert (out / "table1.csv").read_bytes() == TABLE1_CSV.encode()
    printed = capsys.readouterr().out
    assert "examp5" in printed


def test_facility_bench_single_run(tmp_path, capsys):
    code, out = run_cli(
        ["facility-bench", "--runs", "1", "--seed", "0", "--solvers", "descent-newton"],
        tmp_path,
    )
    assert code == 0
    rows = read_csv(out / "facility_bench.csv")
    assert rows[0][0] == "solver"
    assert rows[1][0] == "descent-newton"
    counts = [int(v) for v in rows[1][1:4]]
    assert sum(counts) == 1
    assert counts[0] == 1  # this seed's start converges to an equilibrium


def test_facility_bench_study_answer(tmp_path):
    # the paper's random-start study: the outcome histogram and the average
    # iteration counts are pinned, so any change to them shows here
    code, out = run_cli(["facility-bench", "--runs", "100", "--seed", "0"], tmp_path)
    assert code == 0
    rows = read_csv(out / "facility_bench.csv")
    assert [r[:4] for r in rows[1:]] == [
        ["descent-newton", "98", "2", "0"],
        ["newton-kkt", "4", "0", "96"],
    ]
    assert float(rows[1][4]) == pytest.approx(7.36, abs=1e-12)
    assert float(rows[2][4]) == pytest.approx(5.75, abs=1e-12)


@pytest.mark.parametrize(
    "problem_id, solver, code, status, iterations",
    [
        ("facility2d", "newton-kkt", 2, "diverged", 5),
        ("facility2d", "exact-jacobi", 2, "diverged", 1),
        ("facility1d", "exact-jacobi", 2, "diverged", 1),
        ("facility1d", "newton-kkt", 0, "converged", 6),
    ],
)
def test_facility_escape_radius(tmp_path, problem_id, solver, code, status, iterations):
    # from the paper starts the first three runs walk off into the flat tail,
    # where the gradients vanish; every facility run has escape radius 100,
    # and the facility1d Newton end point x1 = -54.2 lies inside it
    assert run_cli(["solve", "--problem", problem_id, "--solver", solver], tmp_path)[0] == code
    report = json.loads((tmp_path / "out" / f"{problem_id}_{solver}_report.json").read_text())
    assert report["status"] == status
    assert report["iterations"] == iterations
    assert report["config"]["divergence_radius"] == 100.0


def test_facility_bench_unknown_solver(tmp_path):
    code, _ = run_cli(
        ["facility-bench", "--runs", "1", "--solvers", "nosuch"], tmp_path
    )
    assert code == 64


def test_diagnose_example1(tmp_path, capsys):
    code, out = run_cli(
        ["diagnose", "--problem", "examp1", "--x0", "paper", "--samples", "20"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads((out / "examp1_descent-newton_diagnose.json").read_text())
    assert payload["lemma_report"]["ok"] is True
    assert payload["stepsizes"]["t_min_observed"] == 1.0
    assert payload["estimates"]["c_h"] == pytest.approx(1.0)
    assert payload["converged_in_one_iteration"] is True


def test_diagnose_quadratic_one_iteration_flag(tmp_path):
    code, out = run_cli(
        ["diagnose", "--problem", "quadratic:7:2x2", "--samples", "10"], tmp_path
    )
    assert code == 0
    payload = json.loads((out / "quadratic:7:2x2_descent-newton_diagnose.json").read_text())
    assert payload["converged_in_one_iteration"] is True
    assert payload["lemma_report"]["ok"] is True


def test_diagnose_example5_partial_sums(tmp_path):
    code, out = run_cli(
        ["diagnose", "--problem", "examp5", "--x0", "paper", "--samples", "10"], tmp_path
    )
    assert code == 0
    payload = json.loads((out / "examp5_descent-newton_diagnose.json").read_text())
    assert payload["partial_sum_d2"] > 0
    assert payload["stepsizes"]["t_min_observed"] >= 0.5


@pytest.mark.parametrize("solver", ["newton-kkt", "exact-jacobi"])
def test_diagnose_baselines_certify_no_lemmas(tmp_path, capsys, solver):
    # the lemmas are about descent-newton's surrogate system and line search
    code, out = run_cli(
        ["diagnose", "--problem", "examp1", "--solver", solver, "--samples", "10"], tmp_path
    )
    assert code == 0
    payload = json.loads((out / f"examp1_{solver}_diagnose.json").read_text())
    assert payload["iterations"] >= 1
    assert payload["lemma_report"] is None
    assert payload["stepsizes"]["t_min_observed"] == 1.0
    stdout = capsys.readouterr().out
    assert f"lemma certificates: none, {solver} solves no surrogate system" in stdout
    assert "checked" not in stdout
