"""Regular self-similar piecewise-linear graphs for balanced weight systems.

Construct the node data in closed form, materialize and evaluate the
graph, extract sorted component functions, and verify structural and
properness properties.  See the README for the command-line interface.
"""

from .weights import (
    Weights,
    WeightError,
    NegativeWeight,
    AllZero,
    BalanceViolated,
    LengthMismatch,
    IndexOutOfRange,
    validate_weights,
)
from .construct import (
    ConstructError,
    InvalidFactor,
    ScheduleMismatch,
    SingularSystem,
    PowerForm,
    ExpansionSchedule,
    chi,
    growth_terms,
    solve_uv,
    solve_uv_oracle,
    propagate_v_from_u,
    Subgraph,
    RegularGraph,
    build_graph,
)
from .graph import (
    NegativeAbscissa,
    NonFiniteAbscissa,
    EmptyWindow,
    Segment,
    lower_node,
    upper_node,
    segments_in_window,
    evaluate,
    Piece,
    PiecewiseLinearSystem,
    component_functions,
)
from .analyze import (
    PASS,
    FAIL,
    NOT_SUFFICIENT,
    NOT_APPLICABLE,
    ERROR,
    CheckResult,
    CheckReport,
    check_system,
    check_regular,
    check_proper_direct,
    check_proper_nodes,
    check_proper_sufficient,
    check_proper_termwise,
    check_proper_m1,
    check_subgraphs,
    run_all_checks,
)
from .render import render_svg
from .cli import InstanceConfig, ParseError, ValidationError, load_config

__version__ = "0.1.0"

__all__ = [
    "Weights", "WeightError", "NegativeWeight", "AllZero", "BalanceViolated",
    "LengthMismatch", "IndexOutOfRange", "validate_weights",
    "ConstructError", "InvalidFactor", "ScheduleMismatch", "SingularSystem",
    "PowerForm", "ExpansionSchedule", "chi", "growth_terms",
    "solve_uv", "solve_uv_oracle", "propagate_v_from_u", "Subgraph",
    "RegularGraph", "build_graph",
    "NegativeAbscissa", "NonFiniteAbscissa", "EmptyWindow", "Segment",
    "lower_node", "upper_node", "segments_in_window", "evaluate", "Piece",
    "PiecewiseLinearSystem", "component_functions",
    "PASS", "FAIL", "NOT_SUFFICIENT", "NOT_APPLICABLE", "ERROR",
    "CheckResult", "CheckReport", "check_system", "check_regular",
    "check_proper_direct", "check_proper_nodes", "check_proper_sufficient",
    "check_proper_termwise", "check_proper_m1", "check_subgraphs",
    "run_all_checks",
    "render_svg",
    "InstanceConfig", "ParseError", "ValidationError", "load_config",
    "__version__",
]
