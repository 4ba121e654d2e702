"""Shared pieces of the benchmark: paths, the child-process environment,
statistics, memory and cold-import probes.

BLAS_ENV pins every BLAS/OpenMP pool to one thread. On a 2-core machine
OpenBLAS's default of two threads makes the dense O(n^3) kernels both slower
and far less steady (see README.md), so the benchmark fixes one thread for
itself and for every process it starts.
"""

import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: every child process is killed after this many seconds
CHILD_TIMEOUT_S = 120

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nepsolve; "
    "print(repr(time.perf_counter() - t))"
)


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv, **kwargs):
    """Run one child process to its end; kill it if it outlives the timeout."""
    kwargs.setdefault("env", child_env())
    kwargs.setdefault("cwd", ROOT)
    return subprocess.run(argv, timeout=CHILD_TIMEOUT_S, **kwargs)


def cold_import_seconds():
    """Wall time of `import nepsolve` inside a fresh interpreter."""
    proc = run_child(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def median_cold_import_seconds(repeats):
    # the first import in a fresh checkout also compiles the bytecode cache;
    # users pay that once, so it is run and discarded before measuring
    cold_import_seconds()
    return statistics.median(cold_import_seconds() for _ in range(repeats))


def import_profile_ms(repeats):
    """Median cumulative import times (ms) of nepsolve and of scipy.linalg,
    read from `python -X importtime` in fresh interpreters. scipy.linalg
    reads 0 once nepsolve no longer imports it."""
    nep, scipy_linalg = [], []
    for _ in range(repeats):
        proc = run_child(
            [sys.executable, "-X", "importtime", "-c", "import nepsolve"],
            capture_output=True, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e3
                except ValueError:
                    continue  # the header line
        nep.append(cumulative["nepsolve"])
        scipy_linalg.append(cumulative.get("scipy.linalg", 0.0))
    return statistics.median(nep), statistics.median(scipy_linalg)


def peak_rss_mb(who):
    """Peak resident set size in MB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def p50(values):
    return statistics.median(values)


def p90(values):
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def per(total, count):
    return total / count if count else 0.0
