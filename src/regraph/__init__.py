"""Regular self-similar piecewise-linear graphs for balanced weight systems.

Exports the one pipeline: validate the weights, build the expansion
schedule, solve the node data in closed form, evaluate or extract the
sorted component functions, then check and render.  The typed errors,
the check statuses and result records, the piece and config records and
the command line (see the README) stay in their submodules.
"""

from .weights import validate_weights
from .construct import (
    ConstructError,
    PowerForm,
    ExpansionSchedule,
    growth_terms,
    solve_uv,
    solve_uv_oracle,
    build_graph,
)
from .graph import evaluate, component_functions
from .analyze import run_all_checks
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "validate_weights",
    "PowerForm", "ExpansionSchedule", "growth_terms",
    "solve_uv", "solve_uv_oracle",
    "build_graph", "ConstructError",
    "evaluate", "component_functions",
    "run_all_checks",
    "render_svg",
    "__version__",
]
