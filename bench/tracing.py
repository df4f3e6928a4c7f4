"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each regraph layer, in every
`regraph` module namespace that binds them (so `analyze.component_functions`
is traced as well as `graph.component_functions`).  While an op is active
each wrapped call records a span (id, parent, name, start, end); spans stay
in memory and are written out when the run ends.  Self times come from the
spans: a span's duration minus the time its direct children cover.

A listed name that the program no longer defines is reported as absent,
not as an error, so internals can be refactored without editing the
benchmark.  This module imports neither numpy nor regraph, so the traced
CLI child can load it before timing the regraph import.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("weights", "construct", "graph", "analyze", "render", "cli")

#: public functions that get a span per call; "Class.method" wraps a method
SPANNED = {
    "weights": ("validate_weights",),
    "construct": (
        "ExpansionSchedule.from_factors", "chi", "compute_U", "compute_V",
        "solve_uv", "solve_uv_coprime", "solve_uv_accumulated", "solve_uv_oracle",
        "propagate_v_from_u", "build_graph",
    ),
    "graph": ("segments_in_window", "evaluate", "component_functions"),
    "analyze": (
        "run_all_checks", "check_system", "check_regular", "check_proper_direct",
        "check_proper_nodes", "check_proper_sufficient", "check_proper_termwise",
        "check_proper_m1", "check_subgraphs",
    ),
    "render": ("render_svg",),
    "cli": ("load_config", "main", "cmd_build", "cmd_check", "cmd_eval",
            "cmd_plot", "cmd_export"),
}

#: called tens of thousands of times per solve: counted, never spanned, so
#: their time stays in the caller's self time
COUNTED = {"construct": ("ExpansionSchedule.psi",)}


def _piece_count(system) -> int:
    pieces = getattr(system, "pieces", None)
    return len(pieces) if pieces is not None else len(system.breakpoints) - 1


#: sizes read off a wrapped call's result: span name -> (counter, function)
SIZES = {
    "graph.component_functions": ("graph.pieces", _piece_count),
    "render.render_svg": ("render.svg_bytes", lambda svg: len(svg.encode())),
}


class Tracer:
    """Spans and counts for one process.  Single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list = []  # [id, parent, name, start_ns, end_ns]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function in every loaded regraph module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "regraph" or name.startswith("regraph."))]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, names in table.items():
                home = sys.modules.get(f"regraph.{layer}")
                for qualname in names:
                    name = f"{layer}.{qualname}"
                    if home is None or not self._wrap(home, qualname, name, make, modules):
                        self.absent.append(name)

    def _wrap(self, home, qualname, name, make, modules) -> bool:
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(home, cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(meth)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(name, raw.__func__))
            else:
                wrapped = make(name, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            return True
        original = getattr(home, qualname, None)
        if not callable(original):
            return False
        wrapped = make(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _spanned(self, name: str, fn):
        size = SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0, 0]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if size is not None:
                self.counts[size[0]] += size[1](out)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself (an op, an import)."""
        was = self.active
        self.active = True
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else -1, name, 0, 0]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = time.perf_counter_ns()
        try:
            yield sid
        finally:
            span[4] = time.perf_counter_ns()
            self._stack.pop()
            self.active = was

    def adopt(self, spans: list, counts: dict, parent: int) -> None:
        """Append spans recorded in a child process under span `parent`."""
        base = len(self.spans)
        for sid, par, name, start, end in spans:
            self.spans.append([base + sid, parent if par < 0 else base + par, name, start, end])
        self.counts.update(counts)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.dump(), separators=(",", ":")))


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive ns and self ns."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for sid, _, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["incl_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[sid]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
