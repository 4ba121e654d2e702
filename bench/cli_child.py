"""One `nepsolve` CLI invocation with the benchmark's layer counters
installed; the counters are written as JSON when the command returns.

    python3 bench/cli_child.py <counters.json> <nepsolve arguments...>
"""

import json
import sys

import nepsolve.cli as cli

from tracing import Tracer


def main():
    counters_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.invocations = 1
    with tracer.installed(cli=cli):
        code = cli.main(argv)
    with open(counters_path, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
