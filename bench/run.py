#!/usr/bin/env python3
"""nepsolve benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload facility-study --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. `--workload all` runs every
workload untraced and traced, prints a table, and ends with one JSON object
whose metric names are prefixed by the workload. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

from common import BLAS_ENV, SRC

WORKLOAD_NAMES = ("facility-study", "quadratic-dense", "cli-oneshot")


def run_workload(name, seed, seconds, trace):
    if name == "cli-oneshot":
        import clioneshot

        return clioneshot.run(seed, seconds, trace)
    import inprocess

    return inprocess.run(inprocess.WORKLOADS[name], seed, seconds, trace)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nepsolve" / "__init__.py").is_file():
        print(f"error: no nepsolve sources under {SRC}", file=sys.stderr)
        return 2
    # the thread pools are sized when numpy is first imported
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0

    # each workload runs in its own process, exactly as when named alone
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True, timeout=args.seconds + 150,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"== {name} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for metric_name, m in result["metrics"].items():
                print(f"   {metric_name:40s} {m['value']:14.6g} {m['unit']}")
                combined["metrics"][f"{name}/{metric_name}"] = m
            if trace == 0:
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
