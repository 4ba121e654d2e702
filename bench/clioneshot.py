"""The cli-oneshot workload: one-shot `nepsolve` invocations, each in a
fresh interpreter, run one after another.

A round runs the four commands once, in an order drawn from the seed.
Every invocation must exit 0; its files are checked the first time and
must be byte-identical in every later round. The traced run starts each
invocation through cli_child.py, which installs the layer counters first.
"""

import hashlib
import json
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
from common import (
    OUT, import_profile_ms, median_cold_import_seconds, metric, p50, p90, peak_rss_mb,
    per, run_child,
)
from tracing import Tracer, layer_metrics

name = "cli-oneshot"

#: tag -> (arguments, descent-newton + newton-kkt runs the command makes)
COMMANDS = {
    "solve-examp1": (["solve", "--problem", "examp1"], 1),
    "solve-facility2d": (["solve", "--problem", "facility2d"], 1),
    "table1": (["table1"], 10),
    "diagnose-examp5": (["diagnose", "--problem", "examp5"], 1),
}
#: invocations that are exactly one descent-newton solve
DN_SOLVES = ("solve-examp1", "solve-facility2d")
#: the solver configuration every command runs with (SolverConfig defaults)
GRAD_TOL = 1e-4
IMPORT_REPEATS = 5
CHILD = Path(__file__).resolve().parent / "cli_child.py"


def check_files(tag, files):
    if tag == "table1":
        return checks.check_table1(files["table1.csv"], GRAD_TOL)
    if tag == "diagnose-examp5":
        return checks.check_diagnose_json(files["examp5_descent-newton_diagnose.json"])
    problem = tag.split("-", 1)[1]
    return checks.check_report_json(files[f"{problem}_descent-newton_report.json"], problem)


def _invoke(tag, out_dir, counters=None):
    args = COMMANDS[tag][0] + ["--out-dir", str(out_dir)]
    if counters is None:
        argv = [sys.executable, "-m", "nepsolve.cli"] + args
    else:
        argv = [sys.executable, str(CHILD), str(counters)] + args
    t0 = time.perf_counter()
    proc = run_child(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - t0, proc


def run(seed, seconds, trace):
    shutil.rmtree(OUT / "cli", ignore_errors=True)
    setup_s = median_cold_import_seconds(IMPORT_REPEATS)
    tracer = Tracer() if trace else None
    if trace:
        import_ms, import_scipy_ms = import_profile_ms(IMPORT_REPEATS)

    rng = random.Random(seed)
    tags = list(COMMANDS)
    digests, errors, failures = {}, [], []
    attempted = failed = 0
    times = {tag: [] for tag in tags}
    solves = 0
    phase_s = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        for traced in ((False, True) if trace else (False,)):
            rng.shuffle(tags)
            for tag in tags:
                out_dir = OUT / "cli" / tag
                out_dir.mkdir(parents=True, exist_ok=True)
                counters = OUT / "cli" / "counters.json" if traced else None
                elapsed, proc = _invoke(tag, out_dir, counters)
                attempted += 1
                phase_s[traced] += elapsed
                if proc.returncode != 0:
                    failed += 1
                    failures.append(f"{tag} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                    continue
                if traced:
                    tracer.merge(json.loads(counters.read_text()))
                    counters.unlink()
                else:
                    times[tag].append(elapsed)
                    solves += COMMANDS[tag][1]
                files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
                digest = hashlib.sha256(repr(sorted(files.items())).encode()).hexdigest()
                if tag not in digests:
                    digests[tag] = digest
                    errors += [f"{tag}: {e}" for e in check_files(tag, files)]
                elif digests[tag] != digest:
                    errors.append(f"{tag}: files differ from the first invocation")
        rounds += 1

    for line in failures[:4] + errors[:20]:
        print(f"{name}: {line}", file=sys.stderr)

    if trace:
        overhead_pct = 100.0 * (phase_s[True] / phase_s[False] - 1.0)
        metrics = layer_metrics(tracer, import_ms, import_scipy_ms, overhead_pct)
    else:
        every = [t for tag in tags for t in times[tag]]
        dn = [t for tag in DN_SOLVES for t in times[tag]]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "solves_per_s": metric(per(solves, sum(every)), "1/s"),
            "dn_solve_ms_p50": metric(p50(dn) * 1e3, "ms"),
            "dn_solve_ms_p90": metric(p90(dn) * 1e3, "ms"),
            "invocation_ms_p50": metric(p50(every) * 1e3, "ms"),
            "peak_rss_mb": metric(peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
