"""Benchmark of regraph, run from the root of a checkout.

    python3 bench/run.py --workload {sweep,ladder,query,cli} --seed N \
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed, measures for S seconds and
checks every output.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The full result, with the
environment, sample counts, check verdicts and stage metrics, is written
to bench/out/results/.  Exits 2 without a result when the checkout has no
regraph sources.
"""

import os

#: BLAS/OpenMP pools pinned to one thread here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: set-ups per untraced run: one before the measured units, the others
#: spread evenly over them
SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "ladder", "query", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:  # not the commit of an enclosing repository
            commit = head
    except (OSError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def measure(workload, seconds: float, tracer=None, units=None, setups=None):
    """Run units until they have taken `seconds` (or exactly `units` units).

    Given the list `setups` of set-up times, a fresh copy of the workload is
    set up, outside the measured time, at evenly spaced points of the run
    until the list holds SETUP_REPEATS times.  The copies are discarded.
    """
    from workloads import Recorder

    rec = Recorder()
    spent, i = 0.0, 0
    while (i < units) if units is not None else (spent < seconds):
        while setups is not None and len(setups) < SETUP_REPEATS \
                and spent >= seconds * len(setups) / SETUP_REPEATS:
            setups.append(timed_setup(type(workload)(workload.seed, workload.tmp)))
        gc.collect()  # every unit starts from a collected heap
        t0 = time.perf_counter()
        workload.unit(i, rec, tracer)
        spent += time.perf_counter() - t0
        i += 1
    return rec, i


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "regraph" / "__init__.py").is_file():
        print(f"error: no regraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import metrics
    from tracing import Tracer
    from workloads import WORKLOADS, Recorder

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        setup_times = [timed_setup(workload)]
        workload.references()
        warm = Recorder()
        workload.warmup(warm)

        doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": environment(args.seed),
               "setup_samples_s": setup_times}
        if args.trace == 0:
            rec, units = measure(workload, args.seconds, setups=setup_times)
            ops = rec.samples[workload.op_key]
            if not ops:
                print(f"error: no op completed: {rec.failures[:3]}", file=sys.stderr)
                return 1
            setup_s = statistics.median(setup_times)
            rss = workload.peak_rss_mb()
            # informational: this process, with the references and samples
            doc["bench_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result = metrics.end_to_end(ops, setup_s, rss)
            units_of = {name: metrics.END_TO_END[name][0] for name in result}
            doc["stage_metrics"] = metrics.workload_metrics(
                rec.samples, workload.op_key, setup_s, rss, rec.attempted + warm.attempted,
                rec.failed + warm.failed)
        else:
            # the same units twice: untraced for the baseline, then traced
            base, units = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            rec, _ = measure(workload, 0, tracer, units=units)
            tracer.uninstall()
            traced_ops = rec.samples[workload.op_key]
            if not traced_ops or not base.samples[workload.op_key]:
                print(f"error: no op completed: {(base.failures + rec.failures)[:3]}",
                      file=sys.stderr)
                return 1
            ratio = sum(traced_ops) / sum(base.samples[workload.op_key])
            result = metrics.per_layer(tracer.spans, tracer.counts, len(traced_ops),
                                       workload.children, rec.verdicts, rec.export_bytes,
                                       ratio)
            units_of = metrics.PER_LAYER
            doc["absent"] = tracer.absent
            doc["unaccounted_limit"] = metrics.UNACCOUNTED_LIMIT
            if args.workload == "ladder":  # informational, not a failed op
                doc["accounting_ok"] = (result["trace.unaccounted_ratio"]
                                        <= metrics.UNACCOUNTED_LIMIT)
            trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            doc["trace_file"] = str(trace_path.relative_to(ROOT))
            rec.attempted += base.attempted
            rec.failed += base.failed
            rec.failures += base.failures
        attempted = rec.attempted + warm.attempted
        failed = rec.failed + warm.failed
        doc.update(units=units, ops=len(rec.samples[workload.op_key]),
                   samples={k: len(v) for k, v in rec.samples.items()},
                   verdicts=dict(rec.verdicts), attempted=attempted, failed=failed,
                   failures=warm.failures + rec.failures)
        line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": value, "unit": units_of[name]}
                            for name, value in result.items()}}
        doc["result"] = line
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1))
    print(f"env: {json.dumps(doc['env'])}")
    print(f"result file: {path.relative_to(ROOT)}")
    for failure in doc["failures"]:
        print(f"failed: {failure}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
