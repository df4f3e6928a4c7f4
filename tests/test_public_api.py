"""The package's top-level names, and the README's library sketch.

`regraph` exports the pipeline weights -> schedule -> solve ->
extract/evaluate -> check/render and nothing else; the typed errors,
the check statuses and result records, the piece table and the config
record are imported from their submodules.  `run_all_checks` is the only check:
`regraph.analyze` has no single-check functions.  The records store only
what nothing else fixes, and read the rest off their fields.
"""

import dataclasses
import importlib
import math
import re
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest

import regraph
from regraph.cli import load_config
from regraph.construct import LineTable
from regraph.graph import PiecewiseLinearSystem
from regraph.weights import Weights, WeightError

PUBLIC = {
    "validate_weights",
    "PowerForm", "ExpansionSchedule", "growth_terms",
    "solve_uv", "solve_uv_oracle",
    "build_graph", "ConstructError",
    "evaluate", "component_functions",
    "run_all_checks",
    "render_svg",
    "__version__",
}

HOME = {
    "weights": ("Weights", "WeightError"),
    "construct": ("chi", "RegularGraph"),
    "graph": ("PiecewiseLinearSystem",),
    "analyze": ("PASS", "FAIL", "NOT_SUFFICIENT", "NOT_APPLICABLE", "CheckResult",
                "CheckReport"),
    "cli": ("InstanceConfig", "ValidationError", "load_config"),
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_exactly_the_pipeline():
    assert len(regraph.__all__) == len(set(regraph.__all__))
    assert set(regraph.__all__) == PUBLIC
    assert sum(map(len, HOME.values())) == 14
    for name in PUBLIC:
        assert hasattr(regraph, name), name


def test_analyze_has_one_check_entry():
    analyze = importlib.import_module("regraph.analyze")
    assert analyze.__all__ == ["PASS", "FAIL", "NOT_SUFFICIENT", "NOT_APPLICABLE",
                               "CheckResult", "CheckReport", "run_all_checks"]
    assert [name for name in vars(analyze) if name.startswith("check_")] == []


def test_one_error_class_per_layer():
    # weights raises WeightError, construct, graph and render raise
    # ConstructError, and cli raises ValidationError, for every fault; a bad
    # argument (tol, q) is a plain ValueError: no module subclasses either
    # base or defines another exception class
    bases = (WeightError, regraph.ConstructError)
    defined = set()
    for module in ("weights", "construct", "graph", "analyze", "render", "cli"):
        home = vars(importlib.import_module(f"regraph.{module}"))
        assert [name for name, value in home.items() if isinstance(value, type)
                and issubclass(value, bases) and value not in bases] == [], module
        defined |= {f"{module}.{name}" for name, value in home.items()
                    if isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == f"regraph.{module}"}
    assert defined == {"weights.WeightError", "construct.ConstructError",
                       "cli.ValidationError"}


@pytest.mark.parametrize("module", sorted(HOME))
def test_other_names_live_in_their_module(module):
    home = importlib.import_module(f"regraph.{module}")
    for name in HOME[module]:
        assert not hasattr(regraph, name), name
        assert hasattr(home, name), name


def test_readme_states_the_pipeline_count():
    text = README.read_text()
    counts = re.findall(r"`regraph\.__all__`, (\d+) names", text)
    counts += re.findall(r"the (\d+) pipeline names of regraph\.__all__", text)
    assert len(counts) == 2
    assert {int(c) for c in counts} == {len(regraph.__all__)}


def test_readme_library_block_runs():
    text = README.read_text()
    match = re.search(r"^## Library at a glance\n.*?^```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no 'Library at a glance' python block"
    block = match.group(1)
    assert "import regraph as rg" in block
    exec(compile(block, str(README), "exec"), {})


def test_records_store_only_what_nothing_else_fixes():
    fields = {cls: tuple(f.name for f in dataclasses.fields(cls))
              for cls in (Weights, LineTable, PiecewiseLinearSystem)}
    assert fields == {
        Weights: ("l", "m", "alpha", "beta"),
        LineTable: ("r", "x0", "y0", "slope"),
        PiecewiseLinearSystem: ("breakpoints", "values0", "slopes0", "labels0", "power",
                                "alphabet"),
    }
    w = regraph.validate_weights(4, 6, [1.5] * 4, [1.0] * 6)
    g = regraph.build_graph(w, regraph.ExpansionSchedule.from_factors([1.2] * 12))
    sys1 = regraph.component_functions(g, -1, 1)
    assert (sys1.n, sys1.q_lo, sys1.q_hi) == (
        10, sys1.breakpoints[0], sys1.breakpoints[-1])
    # replacing l and alpha together keeps n, k and d in step with them
    for w in (w, dataclasses.replace(w, l=3, alpha=(2.0,) * 3)):
        assert (w.n, w.k, w.d) == (w.l + w.m, lcm(w.l, w.m), gcd(w.l, w.m))
    assert (w.n, w.k, w.d) == (9, 6, 3)
    # the line table's bound, a cached property and no field, is read off its
    # arrays: inf where a y0 overflows
    near_top = load_config({"l": 3, "m": 4, "alpha": [1e306] * 3, "beta": [7.5e305] * 4,
                            "rho": [2] * 12, "window": {"t_min": 0, "t_max": 0}}).graph()
    for lines in (g.lines, near_top.lines):
        assert lines.bound == (float(np.max(np.abs(lines.y0 / lines.x0)))
                               + float(np.max(np.abs(lines.slope))))
    assert math.isfinite(g.lines.bound) and near_top.lines.bound == math.inf
