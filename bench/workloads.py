"""The four benchmark workloads and the inputs they generate.

All loads are closed loops from one client: one op at a time, at most one
child process.  Ops reach the program only through stable surfaces:
`regraph.cli.main([...])` in-process with JSON-text configs, `evaluate` on
a graph built during set-up, and `python -m regraph` child processes run
against the checkout's `src`.  The program receives only generated configs.

Workload     op (the unit behind ops_per_s and op_ms_*)
sweep        one pass over 100 random small instances, each through
             `build` then `check`
ladder       one pass over the five ladder instances, each through
             `build`, `check`, `export` and `plot`
query        one `evaluate(g, q)` call on the prebuilt (13,11) ladder graph
cli          one `python -m regraph` call (5 subcommands x 4 configs)
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from math import lcm
from pathlib import Path

import numpy as np

import regraph
import regraph.cli as cli
from regraph.construct import ExpansionSchedule, solve_uv_oracle
from regraph.graph import component_functions
from regraph.weights import validate_weights

import outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "cli_child.py"
PROBE = BENCH / "probe.py"

#: the ladder is fixed: its instances never depend on --seed, which only
#: permutes the order of each pass
LADDER_SEED = 20081025
LADDER_RHO = (1.05, 1.15)
LADDER_SHAPES = (("l7m5", 7, 5), ("l13m11", 13, 11), ("l6m4", 6, 4), ("l20m15", 20, 15))
#: configs/l3m2_cuberoot.json at the seed commit
L3M2_CUBEROOT = {
    "l": 3, "m": 2, "alpha": [0.5, 1.0, 1.5], "beta": [2.0, 1.0],
    "rho": [{"base": 2, "num": 1, "den": 3}] * 6,
    "window": {"t_min": 0, "t_max": 2}, "tolerance": 1e-9, "samples_per_piece": 8,
}
QUERY_INSTANCE = "l13m11"
SWEEP_RHO = (1.05, 3.0)
SWEEP_DRAWS = 4  # instances of each of the 25 (l, m) shapes in one pass
SWEEP_PASSES = 30  # distinct passes generated; later passes repeat them
QUERY_POOL = 40000
QUERY_BATCH = 2000
QUERY_PERIODS = 12  # q spans tau^-12 .. tau^12
QUERY_GRID_SHARE = 0.1  # share of exact grid abscissae tau^t sigma_j
QUERY_PROBE = 10000  # evaluate calls in the memory probe's unit
CLI_CONFIGS = ("l1m1_classical", "l2m2_interleaved", "l3m2_cuberoot", "l4m2_interleaved")
CLI_COMMANDS = ("build", "check", "eval", "plot", "export")


def child_env() -> dict:
    """Environment of child processes: the checkout's src comes first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def random_config(rng, l: int, m: int, rho_lo: float, rho_hi: float) -> dict:
    """Positive weights balanced onto sum(alpha), factors ~ U[rho_lo, rho_hi]."""
    alpha = rng.uniform(0.05, 3.0, size=l)
    beta = rng.uniform(0.05, 3.0, size=m)
    beta *= alpha.sum() / beta.sum()
    rho = rng.uniform(rho_lo, rho_hi, size=lcm(l, m))
    return {"l": l, "m": m, "alpha": alpha.tolist(), "beta": beta.tolist(),
            "rho": rho.tolist(), "window": {"t_min": 0, "t_max": 2}}


def ladder_configs() -> dict[str, dict]:
    """The fixed ladder.  `check` always spans three periods; `export` and
    `plot` of the random instances view the one period [1, tau)."""
    rng = np.random.default_rng(LADDER_SEED)
    out = {"l3m2_cuberoot": L3M2_CUBEROOT}
    for name, l, m in LADDER_SHAPES:
        out[name] = random_config(rng, l, m, *LADDER_RHO)
        out[name]["window"] = {"t_min": 0, "t_max": 0}
    return out


class Reference:
    """What the outputs of one config are checked against."""

    def __init__(self, config, with_rows: bool = True):
        cfg = cli.load_config(config)
        w = validate_weights(cfg.l, cfg.m, cfg.alpha, cfg.beta)
        schedule = ExpansionSchedule.from_factors(cfg.rho)
        self.u, self.v = solve_uv_oracle(w, schedule)
        self.tau = schedule.tau
        self.n = w.n
        self.cfg = cfg
        if with_rows:
            system = component_functions(cfg.graph(), cfg.t_min, cfg.t_max)
            self.rows = len(system.pieces) * (cfg.samples_per_piece + 1) + 1


class Recorder:
    """Samples, call outcomes and check verdicts of one measured phase."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts: Counter = Counter()
        self.export_bytes: list[int] = []

    def outcome(self, reason) -> bool:
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)
        return False


def call(rec: Recorder, argv: list[str], tracer):
    """`regraph.cli.main(argv)` in-process: (exit code, stdout, seconds).

    Returns None, counting a failed call, when the program raises or exits 2.
    """
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("bench.op") if tracer is not None else nullcontext()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                with span:
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # any raise from the program is a failed op
        rec.outcome(f"{argv[0]}: raised {type(exc).__name__}: {exc}")
        return None
    if rc == 2:
        rec.outcome(f"{argv[0]}: exit code 2")
        return None
    return rc, out.getvalue(), elapsed


class Workload:
    name = ""
    #: sample key of the op behind ops_per_s and op_ms_*
    op_key = ""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.children: list[dict] = []  # fresh-interpreter timings

    def setup(self) -> None:
        """Start a fresh interpreter that imports regraph, then prepare inputs."""
        self.children.append(run_child([], self.tmp / "setup-child.json"))
        self.prepare()

    def prepare(self) -> None:
        """Make the inputs the program receives (timed as set-up)."""
        raise NotImplementedError

    def references(self) -> None:
        """Make what the outputs are checked against (not timed)."""

    def program_unit(self) -> None:
        """The program calls of one unit, unchecked: the memory probe's work."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident set (MiB) of a fresh interpreter running program_unit."""
        return run_probe([self.name, str(self.seed), str(self.tmp)], self.tmp / "probe.json")

    def warmup(self, rec: Recorder) -> None:
        raise NotImplementedError

    def unit(self, i: int, rec: Recorder, tracer) -> None:
        """Run unit i of the workload, recording into rec; traced if tracer."""
        raise NotImplementedError

    def run_pass(self, items, rec: Recorder, tracer) -> None:
        """One op over several instances, sampled only if every one completed."""
        done = len(rec.samples["instance"])
        if all([self.instance(item, rec, tracer) for item in items]):
            rec.samples["pass"].append(sum(rec.samples["instance"][done:]))


class Sweep(Workload):
    """Random small instances: l, m in 1..5, rho ~ U[1.05, 3].

    One op is a pass over SWEEP_DRAWS fresh instances of every (l, m) shape,
    so every pass does nearly the same amount of work.
    """

    name = "sweep"
    op_key = "pass"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.passes = [[json.dumps(random_config(rng, l, m, *SWEEP_RHO))
                        for l in range(1, 6) for m in range(1, 6) for _ in range(SWEEP_DRAWS)]
                       for _ in range(SWEEP_PASSES)]

    def warmup(self, rec: Recorder) -> None:
        for text in self.passes[0][:3]:
            self.instance(text, rec, None)

    def unit(self, i, rec, tracer) -> None:
        self.run_pass(self.passes[i % SWEEP_PASSES], rec, tracer)

    def program_unit(self) -> None:
        for text in self.passes[0]:
            quiet(["build", text])
            quiet(["check", text])

    def instance(self, text: str, rec: Recorder, tracer) -> bool:
        built = call(rec, ["build", text], tracer)
        checked = call(rec, ["check", text], tracer) if built else None
        if checked is None:
            return False
        ref = Reference(text, with_rows=False)
        rec.outcome(outputs.check_build(built[1], ref.u, ref.v))
        if rec.outcome(outputs.check_check(checked[0], checked[1])):
            rec.verdicts.update(outputs.verdicts(checked[1]))
        rec.samples["build"].append(built[2])
        rec.samples["check"].append(checked[2])
        rec.samples["instance"].append(built[2] + checked[2])
        return True


class Ladder(Workload):
    """The fixed ladder, each instance through build, check, export, plot."""

    name = "ladder"
    op_key = "pass"

    def prepare(self) -> None:
        self.configs = {name: json.dumps(c) for name, c in ladder_configs().items()}

    def references(self) -> None:
        self.refs = {name: Reference(text) for name, text in self.configs.items()}

    def warmup(self, rec: Recorder) -> None:
        self.instance("l3m2_cuberoot", rec, None)

    def unit(self, i, rec, tracer) -> None:
        names = sorted(self.configs)
        order = np.random.default_rng([self.seed, i]).permutation(len(names))
        self.run_pass([names[j] for j in order], rec, tracer)

    def program_unit(self) -> None:
        csv, svg = self.tmp / "probe.csv", self.tmp / "probe.svg"
        for text in self.configs.values():
            for argv in (["build", text], ["check", text],
                         ["export", text, "--out", str(csv)], ["plot", text, "--out", str(svg)]):
                quiet(argv)

    def instance(self, name: str, rec: Recorder, tracer) -> bool:
        text, ref = self.configs[name], self.refs[name]
        csv, svg = self.tmp / "ladder.csv", self.tmp / "ladder.svg"
        stages = {}
        for argv in (["build", text], ["check", text],
                     ["export", text, "--out", str(csv)], ["plot", text, "--out", str(svg)]):
            result = call(rec, argv, tracer)
            if result is None:
                return False
            stages[argv[0]] = result
        rec.outcome(outputs.check_build(stages["build"][1], ref.u, ref.v))
        rc, out, _ = stages["check"]
        if rec.outcome(outputs.check_check(rc, out)):
            rec.verdicts.update(outputs.verdicts(out))
        data = csv.read_text()
        rec.export_bytes.append(len(data.encode()))
        rec.outcome(outputs.check_csv(data, ref.n, ref.rows))
        rec.outcome(outputs.check_svg(svg.read_text()))
        for stage, (_, _, elapsed) in stages.items():
            rec.samples[stage].append(elapsed)
        rec.samples["instance"].append(sum(s[2] for s in stages.values()))
        return True


class Query(Workload):
    """A stream of evaluate(g, q) calls on the prebuilt (13,11) ladder graph.

    q is log-uniform over periods on both sides of 1; a share of the stream
    hits grid abscissae tau^t sigma_j exactly, exercising the boundary snap.
    """

    name = "query"
    op_key = "eval"

    def prepare(self) -> None:
        cfg = cli.load_config(json.dumps(ladder_configs()[QUERY_INSTANCE]))
        self.g = cfg.graph()
        self.max_slope = max(cfg.alpha + cfg.beta)
        tau, sigmas = self.g.schedule.tau, self.g.schedule.sigmas
        rng = np.random.default_rng(self.seed)
        span = QUERY_PERIODS * math.log(tau)
        qs = np.exp(rng.uniform(-span, span, size=QUERY_POOL)).tolist()
        for i in np.flatnonzero(rng.random(QUERY_POOL) < QUERY_GRID_SHARE):
            t = int(rng.integers(-QUERY_PERIODS, QUERY_PERIODS))
            qs[i] = tau**t * sigmas[int(rng.integers(len(sigmas)))]
        self.qs = qs

    def references(self) -> None:
        self.system = component_functions(self.g, 0, 2)

    def program_unit(self) -> None:
        for q in self.qs[:QUERY_PROBE]:
            regraph.evaluate(self.g, q)

    def reference(self, q: float) -> np.ndarray:
        tau = self.g.schedule.tau
        t = math.floor(math.log(q) / math.log(tau))
        return tau**t * self.system.values_at(q / tau**t)

    def warmup(self, rec: Recorder) -> None:
        for q in self.qs[:200]:
            regraph.evaluate(self.g, q)

    def unit(self, i, rec, tracer) -> None:
        start = i * QUERY_BATCH
        qs = [self.qs[j % len(self.qs)] for j in range(start, start + QUERY_BATCH)]
        results, times = [], []
        clock = time.perf_counter_ns
        for q in qs:
            span = tracer.span("bench.op") if tracer is not None else nullcontext()
            try:
                t0 = clock()
                with span:
                    values = regraph.evaluate(self.g, q)
                t1 = clock()
            except Exception as exc:  # any raise from the program is a failed op
                rec.outcome(f"evaluate: q={q!r} raised {type(exc).__name__}: {exc}")
                continue
            results.append((q, values))
            times.append((t1 - t0) * 1e-9)
        for (q, values), elapsed in zip(results, times):
            rec.outcome(outputs.check_evaluate(values, q, self.reference(q), self.max_slope))
            rec.samples["eval"].append(elapsed)


def quiet(argv: list[str]) -> None:
    """`regraph.cli.main(argv)` with its output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(argv)


def run_probe(args: list[str], out_path: Path) -> float:
    """Run probe.py in a fresh interpreter; returns its peak RSS (MiB)."""
    proc = subprocess.run([sys.executable, str(PROBE), str(out_path), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe {args[:2]} failed: {proc.stderr.strip()[-300:]}")
    peak = json.loads(out_path.read_text())["peak_rss_mb"]
    out_path.unlink()
    return peak


def run_child(argv: list[str], spans_path: Path) -> dict:
    """Run the tracing child; returns wall, script and import times (s)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), str(spans_path), *argv],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - t0
    try:
        doc = json.loads(spans_path.read_text())
        spans_path.unlink()
    except (OSError, ValueError):  # the child died before writing its spans
        doc = {"spans": [], "counts": {}, "script_ns": 0}
    doc.update(wall=wall, rc=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)
    return doc


class Cli(Workload):
    """The 5 subcommands x the 4 shipped configs as `python -m regraph` calls."""

    name = "cli"
    op_key = "call"

    def prepare(self) -> None:
        self.paths = {name: ROOT / "configs" / f"{name}.json" for name in CLI_CONFIGS}
        self.plan = [(cmd, name) for name in CLI_CONFIGS for cmd in CLI_COMMANDS]

    def references(self) -> None:
        self.refs = {name: Reference(path) for name, path in self.paths.items()}

    def peak_rss_mb(self) -> float:
        """The largest peak RSS over one `python -m regraph` call per plan entry."""
        return max(run_probe(["cli", str(self.seed), str(self.tmp), *self.argv_of(cmd, name, 0.5)],
                             self.tmp / "probe.json")
                   for cmd, name in self.plan)

    def warmup(self, rec: Recorder) -> None:
        self.unit(0, rec, None)

    def argv(self, i: int) -> tuple[list[str], str]:
        rnd, pos = divmod(i, len(self.plan))
        rng = np.random.default_rng([self.seed, rnd])
        cmd, name = self.plan[rng.permutation(len(self.plan))[pos]]
        return self.argv_of(cmd, name, rng.uniform()), name

    def argv_of(self, cmd: str, name: str, x: float) -> list[str]:
        """Arguments of one call; `eval` takes q at the share x of the window."""
        argv = [cmd, os.path.relpath(self.paths[name], ROOT)]
        if cmd == "eval":
            cfg, log_tau = self.refs[name].cfg, math.log(self.refs[name].tau)
            q = math.exp((cfg.t_min + x * (cfg.t_max + 1 - cfg.t_min)) * log_tau)
            argv += ["--q", repr(q)]
        elif cmd in ("plot", "export"):
            argv += ["--out", os.path.relpath(self.tmp / f"cli.{'svg' if cmd == 'plot' else 'csv'}", ROOT)]
        return argv

    def unit(self, i, rec, tracer) -> None:
        argv, name = self.argv(i)
        span = tracer.span("bench.op") if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        with span as sid:
            if tracer is None:
                proc = subprocess.run([sys.executable, "-m", "regraph", *argv], cwd=ROOT,
                                      env=child_env(), capture_output=True, text=True,
                                      timeout=120)
                rc, stdout = proc.returncode, proc.stdout
            else:
                doc = run_child(argv, self.tmp / "child.json")
                tracer.adopt(doc["spans"], doc["counts"], sid)
                self.children.append(doc)
                rc, stdout = doc["rc"], doc["stdout"]
        elapsed = time.perf_counter() - t0
        if rc == 2 or rc < 0:
            rec.outcome(f"{argv[0]} {name}: exit code {rc}")
            return
        ref, cmd = self.refs[name], argv[0]
        if cmd == "build":
            reason = outputs.check_build(stdout, ref.u, ref.v)
        elif cmd == "check":
            reason = outputs.check_check(rc, stdout)
            if reason is None:
                rec.verdicts.update(outputs.verdicts(stdout))
        elif rc != 0:
            reason = f"{cmd} {name}: exit code {rc}"
        elif cmd == "eval":
            reason = outputs.check_eval_line(stdout, ref.n)
        elif cmd == "plot":
            reason = outputs.check_svg((ROOT / argv[-1]).read_text())
        else:
            data = (ROOT / argv[-1]).read_text()
            rec.export_bytes.append(len(data.encode()))
            reason = outputs.check_csv(data, ref.n, ref.rows)
        rec.outcome(reason)
        rec.samples["call"].append(elapsed)


WORKLOADS = {cls.name: cls for cls in (Sweep, Ladder, Query, Cli)}
