"""Run one kitealg CLI invocation under the tracer.

    python3 perfbench/traced_cli.py TRACE_OUT -- <kitealg arguments>

The tracer is installed before `kitealg.cli.main` runs, so every kite the
CLI builds already sees the wrapped methods. The report goes to stdout as
usual; the tracer dump is written to TRACE_OUT as JSON, also when the CLI
raises. The exit code is the CLI's.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, argv = sys.argv[1], sys.argv[3:]
    import kitealg.cli

    tracer = Tracer()
    tracer.install()
    missed = tracer.unpatched()
    if missed:
        print(f"tracer left bindings unwrapped: {missed}", file=sys.stderr)
        return 3
    try:
        code = kitealg.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
