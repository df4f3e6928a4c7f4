"""Record one point of the benchmark trajectory.

    python3 bench/record.py TAG

Runs every workload once per seed in SEEDS, untraced and traced, for
BENCHMARK.json's run_seconds, and writes the result files of all runs to
bench/trajectory/TAG.json.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "ladder", "query", "cli")
SEEDS = (1, 2)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tag = sys.argv[1]
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            for trace in (0, 1):
                subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                                "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", str(trace)], cwd=BENCH.parent, check=True,
                               stdout=subprocess.DEVNULL, timeout=180)
                result = BENCH / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
                runs.append(json.loads(result.read_text()))
    out = BENCH / "trajectory" / f"{tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"tag": tag, "seconds": seconds, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
