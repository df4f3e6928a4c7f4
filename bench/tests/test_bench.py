"""Tests of the benchmark itself: tiny runs, the output check, the report.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import metrics
import regraph.construct
import run
import workloads
from tracing import Tracer

SMALL_LADDER = ("l3m2_cuberoot", "l6m4")


def tiny(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    wl.prepare()
    if name == "ladder":
        wl.configs = {k: wl.configs[k] for k in SMALL_LADDER}
    wl.references()
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_every_workload(name, tmp_path):
    wl = tiny(name, tmp_path)
    tracer = Tracer()
    rec, units = run.measure(wl, 0, units=2)
    tracer.install()
    try:
        traced, _ = run.measure(wl, 0, tracer, units=2)
    finally:
        tracer.uninstall()
    assert units == 2 and rec.attempted > 0
    assert rec.failed == 0 and traced.failed == 0, rec.failures + traced.failures
    assert len(rec.samples[wl.op_key]) == len(traced.samples[wl.op_key]) > 0
    assert any(span[2] == "bench.op" for span in tracer.spans)


def test_perturbed_u_is_a_failed_op(tmp_path, monkeypatch):
    wl = tiny("ladder", tmp_path)
    solve = regraph.construct.solve_uv

    def perturbed(weights, schedule):
        u, v = solve(weights, schedule)
        return u + 1e-6, v

    monkeypatch.setattr(regraph.construct, "solve_uv", perturbed)
    rec = workloads.Recorder()
    wl.instance("l3m2_cuberoot", rec, None)
    assert rec.failed == 1
    assert rec.failures[0].startswith("build: u, v differ from the oracle")


def test_absent_names_are_reported_not_raised(monkeypatch):
    monkeypatch.delattr(regraph.construct, "chi")
    monkeypatch.delattr(regraph.construct.ExpansionSchedule, "psi")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert {"construct.chi", "construct.ExpansionSchedule.psi"} <= set(tracer.absent)


def test_self_times_telescope():
    from tracing import summarize
    spans = [[0, -1, "bench.op", 0, 100], [1, 0, "cli.main", 10, 90],
             [2, 1, "graph.component_functions", 20, 50]]
    s = summarize(spans)
    assert s["bench.op"]["self_ns"] == 20 and s["cli.main"]["self_ns"] == 50
    assert sum(e["self_ns"] for e in s.values()) == 100


def bench_command(*args):
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


def test_one_command_prints_every_metric_by_name_and_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    line = bench_command("--workload", "cli", "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


def test_traced_command_prints_every_per_layer_metric():
    line = bench_command("--workload", "query", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == metrics.PER_LAYER
    assert line["metrics"]["graph.evaluate_calls"]["value"] == 1.0


def test_no_program_means_no_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in run.BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "sweep"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_probe_peak_excludes_the_benchmark_process(tmp_path):
    held = bytearray(128 << 20)
    held[::4096] = b"\1" * len(held[::4096])  # resident in this process
    wl = workloads.WORKLOADS["cli"](7, tmp_path)
    wl.prepare()
    wl.references()
    peak = workloads.run_probe(["cli", "7", str(tmp_path), *wl.argv_of("eval", "l1m1_classical", 0.5)],
                               tmp_path / "probe.json")
    assert 0 < peak < 100, peak
    del held
