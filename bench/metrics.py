"""Metric definitions and their computation from samples and spans.

End-to-end metrics are printed by untraced runs and are the same three on
every workload; their op is the workload's unit (see workloads.py).  The
per-workload metrics named after the op stages (build, check, export,
plot, eval, cli call) go to the result file, with sample counts, and are
N/A on workloads without that stage.  Per-layer metrics come from traced
runs and are normalised per op unless the name says otherwise.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, layer_of, summarize

#: name -> (unit, better); mirrored by BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

CHECKS = ("system", "regular", "proper_direct", "proper_nodes", "proper_sufficient",
          "proper_termwise", "proper_m1", "subgraphs")
STATUSES = ("pass", "fail", "not-sufficient", "not-applicable", "error")

#: name -> unit; mirrored by BENCHMARK.json
PER_LAYER = {
    "weights.validate_ms": "ms",
    "construct.schedule_ms": "ms",
    "construct.build_graph_ms": "ms",
    "construct.solve_ms": "ms",
    "construct.psi_calls": "count",
    "graph.extract_ms": "ms",
    "graph.extract_calls": "count",
    "graph.pieces": "count",
    "graph.extract_us_per_piece": "us",
    "graph.evaluate_us": "us",
    "graph.evaluate_calls": "count",
    "graph.segments_ms": "ms",
    "render.svg_ms": "ms",
    "render.svg_bytes": "bytes",
    "analyze.run_all_ms": "ms",
    **{f"analyze.{c}_ms": "ms" for c in CHECKS},
    **{f"analyze.verdicts.{s}": "count" for s in STATUSES},
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.load_config_ms": "ms",
    "cli.main_ms": "ms",
    "cli.export_bytes": "bytes",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.op_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_ratio": "ratio",
}

#: layers whose self time counts as accounted for: every layer but the
#: cli, whose self time holds whatever runs untraced under `cli.main`
ACCOUNTED = tuple(layer for layer in LAYERS if layer != "cli")
#: the largest share of traced op time the accounted layers may leave
#: uncovered on the ladder workload (informational, not gated)
UNACCOUNTED_LIMIT = 0.40


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(op_seconds: list[float], setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "op_ms_p90": 1e3 * percentile(op_seconds, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def workload_metrics(samples: dict, op_key: str, setup_s: float, peak_rss_mb: float,
                     attempted: int, failed: int) -> dict:
    """The stage metrics named by the benchmark's plan, N/A where absent."""
    def ms(key, p):
        vals = samples.get(key)
        return {"value": 1e3 * percentile(vals, p), "unit": "ms", "samples": len(vals)} if vals else "N/A"

    def rate(key):
        vals = samples.get(key)
        return ({"value": len(vals) / sum(vals), "unit": "1/s", "samples": len(vals)}
                if vals else "N/A")

    evals = samples.get("eval")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": rate(op_key),
        "op_ms_p10": ms(op_key, 10),
        "op_ms_p50": ms(op_key, 50),
        "op_ms_p90": ms(op_key, 90),
        "instances_per_s": rate("instance"),
        "build_ms_p50": ms("build", 50),
        "check_ms_p50": ms("check", 50),
        "check_ms_p90": ms("check", 90),
        "export_ms_p50": ms("export", 50),
        "plot_ms_p50": ms("plot", 50),
        "eval_qps": rate("eval"),
        "eval_us_p99": ({"value": 1e6 * percentile(evals, 99), "unit": "us",
                         "samples": len(evals)} if evals else "N/A"),
        "cli_ms_p50": ms("call", 50),
        "cli_ms_p90": ms("call", 90),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "failed_ratio": {"value": failed / attempted, "unit": "ratio", "samples": attempted},
    }


def per_layer(spans: list, counts: dict, n_ops: int, children: list[dict],
              verdicts: dict, export_bytes: list[int], overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced phase of n_ops ops."""
    summary = summarize(spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per_op_ms(ns):
        return ns / 1e6 / n_ops

    layer_self = {layer: 0 for layer in LAYERS + ("bench",)}
    for name, entry in summary.items():
        if layer_of(name) in layer_self:
            layer_self[layer_of(name)] += entry["self_ns"]
    pieces = counts.get("graph.pieces", 0)
    extract_ns = get("graph.component_functions", "self_ns")
    evals = get("graph.evaluate", "calls")
    renders = get("render.render_svg", "calls")
    op_ns = get("bench.op", "incl_ns")
    starts = [c for c in children if c.get("script_ns")]
    out = {
        "weights.validate_ms": per_op_ms(get("weights.validate_weights", "self_ns")),
        "construct.schedule_ms": per_op_ms(get("construct.ExpansionSchedule.from_factors", "self_ns")),
        "construct.build_graph_ms": per_op_ms(get("construct.build_graph", "incl_ns")),
        "construct.solve_ms": per_op_ms(sum(e["self_ns"] for n, e in summary.items()
                                            if n.startswith("construct.solve_uv"))),
        "construct.psi_calls": counts.get("construct.ExpansionSchedule.psi.calls", 0) / n_ops,
        "graph.extract_ms": per_op_ms(extract_ns),
        "graph.extract_calls": get("graph.component_functions", "calls") / n_ops,
        "graph.pieces": pieces / n_ops,
        "graph.extract_us_per_piece": extract_ns / 1e3 / pieces if pieces else 0.0,
        "graph.evaluate_us": get("graph.evaluate", "self_ns") / 1e3 / evals if evals else 0.0,
        "graph.evaluate_calls": evals / n_ops,
        "graph.segments_ms": per_op_ms(get("graph.segments_in_window", "self_ns")),
        "render.svg_ms": per_op_ms(get("render.render_svg", "self_ns")),
        "render.svg_bytes": counts.get("render.svg_bytes", 0) / renders if renders else 0.0,
        "analyze.run_all_ms": per_op_ms(get("analyze.run_all_checks", "incl_ns")),
        **{f"analyze.{c}_ms": per_op_ms(get(f"analyze.check_{c}", "self_ns")) for c in CHECKS},
        **{f"analyze.verdicts.{s}": verdicts.get(s, 0) for s in STATUSES},
        "cli.interpreter_ms": (1e3 * statistics.mean(c["wall"] - c["script_ns"] / 1e9 for c in starts)
                               if starts else 0.0),
        "cli.import_ms": (statistics.mean(_import_ns(c) for c in starts) / 1e6 if starts else 0.0),
        "cli.load_config_ms": per_op_ms(get("cli.load_config", "self_ns")),
        "cli.main_ms": per_op_ms(get("cli.main", "incl_ns")),
        "cli.export_bytes": statistics.mean(export_bytes) if export_bytes else 0.0,
        **{f"{layer}.self_ms": per_op_ms(layer_self[layer]) for layer in LAYERS},
        "trace.op_ms": per_op_ms(op_ns),
        "trace.overhead_ratio": overhead_ratio,
        "trace.unaccounted_ratio": (1 - sum(layer_self[layer] for layer in ACCOUNTED) / op_ns
                                    if op_ns else 0.0),
    }
    assert set(out) == set(PER_LAYER)
    return out


def _import_ns(child: dict) -> int:
    return sum(end - start for _, _, name, start, end in child["spans"] if name == "startup.import")
