"""Child process of the benchmark: a traced CLI call in a fresh interpreter.

    python cli_child.py OUT.json [regraph arguments...]

Times the `regraph.cli` import, then, given arguments, runs
`regraph.cli.main(arguments)` with every layer traced.  Writes the spans,
counts, import time and script time to OUT.json; stdout is the call's own.
With no arguments it only imports, which times interpreter start-up plus
import for the benchmark's set-up.
"""

import time

SCRIPT_START = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.span("startup.import"):
        import regraph.cli
    rc = 0
    if argv:
        tracer.install()
        with tracer.span("bench.child"):
            rc = regraph.cli.main(argv)
    sys.stdout.flush()
    doc = tracer.dump()
    doc["script_ns"] = time.perf_counter_ns() - SCRIPT_START
    out_path.write_text(json.dumps(doc, separators=(",", ":")))
    return rc


if __name__ == "__main__":
    sys.exit(main())
