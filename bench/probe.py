"""Peak memory of the program, measured in a fresh interpreter.

    python probe.py OUT.json WORKLOAD SEED TMP_DIR            # sweep, ladder, query
    python probe.py OUT.json cli SEED TMP_DIR ARGS...         # python -m regraph ARGS

For an in-process workload, runs the program calls of one unit of the
workload (see `Workload.program_unit`), without output checks, references
or timing samples.  For `cli`, runs `regraph` as `python -m regraph ARGS`
would.  Writes the peak resident set of this process to OUT.json.

The peak is VmHWM from /proc/self/status: the high-water mark of this
process's own memory.  `ru_maxrss` is not used where VmHWM exists, because
on Linux a child inherits its parent's peak at exec, and the parent here is
the benchmark, which holds numpy, the references and the samples.
"""

import json
import resource
import runpy
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    out, workload, seed, tmp = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    rc = 0
    if workload == "cli":
        sys.argv = ["regraph", *sys.argv[5:]]
        try:
            runpy.run_module("regraph", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    else:
        from workloads import WORKLOADS

        wl = WORKLOADS[workload](seed, tmp)
        wl.prepare()
        wl.program_unit()
    sys.stdout.flush()
    out.write_text(json.dumps({"peak_rss_mb": peak_rss_mb(), "rc": rc}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
