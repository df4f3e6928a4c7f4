"""Command-line front end: build, check, eval, plot, export.

All commands take a JSON config describing one instance.  Exit codes
are stable for scripting: 0 success / all checks pass, 1 a check
failed, 2 bad input (unparseable config, invalid values, bad usage).
Errors print a single machine-readable line `error: <category>: <msg>`
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .analyze import run_all_checks
from .construct import (
    ConstructError,
    ExpansionSchedule,
    FactorLike,
    PowerForm,
    RegularGraph,
    build_graph,
)
from .graph import component_functions, evaluate
from .render import render_svg
from .weights import WeightError, Weights, validate_weights


class ParseError(ValueError):
    """Config text is not well-formed JSON."""


class ValidationError(ValueError):
    """Config is structurally valid JSON but violates the schema.

    The message starts with the offending field path, e.g. "rho[2]".
    """


@dataclass(frozen=True)
class InstanceConfig:
    l: int
    m: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    rho: tuple[FactorLike, ...]
    t_min: int
    t_max: int
    tolerance: float
    samples_per_piece: int

    def weights(self) -> Weights:
        return validate_weights(self.l, self.m, self.alpha, self.beta)

    def schedule(self) -> ExpansionSchedule:
        return ExpansionSchedule.from_factors(self.rho)

    def graph(self) -> RegularGraph:
        return build_graph(self.weights(), self.schedule())


def _require(raw: dict, field: str, kinds, path: str):
    if field not in raw:
        raise ValidationError(f"{path}: missing required field")
    value = raw[field]
    if not isinstance(value, kinds):
        raise ValidationError(f"{path}: wrong type {type(value).__name__}")
    if isinstance(value, bool):  # bool is an int subclass; never wanted here
        raise ValidationError(f"{path}: wrong type bool")
    return value


def _number_list(raw: dict, field: str) -> tuple[float, ...]:
    value = _require(raw, field, list, field)
    out = []
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValidationError(f"{field}[{i}]: expected a number")
        out.append(float(entry))
    return tuple(out)


def _rho_entry(entry, i: int) -> FactorLike:
    if isinstance(entry, bool):
        raise ValidationError(f"rho[{i}]: expected a number or power object")
    if isinstance(entry, (int, float)):
        if not entry > 1:
            raise ValidationError(f"rho[{i}]: factor {entry} must exceed 1")
        return float(entry)
    if isinstance(entry, dict):
        for key in ("base", "num", "den"):
            if key not in entry:
                raise ValidationError(f"rho[{i}].{key}: missing")
        base, num, den = entry["base"], entry["num"], entry["den"]
        if isinstance(base, bool) or not isinstance(base, (int, float)) or base <= 0:
            raise ValidationError(f"rho[{i}].base: must be a positive number")
        if not isinstance(num, int) or isinstance(num, bool):
            raise ValidationError(f"rho[{i}].num: must be an integer")
        if not isinstance(den, int) or isinstance(den, bool) or den <= 0:
            raise ValidationError(f"rho[{i}].den: must be a positive integer")
        form = PowerForm(base=float(base), num=num, den=den)
        if not form.value > 1:
            raise ValidationError(f"rho[{i}]: power evaluates to {form.value}, must exceed 1")
        return form
    raise ValidationError(f"rho[{i}]: expected a number or power object")


def load_config(source: Union[str, Path, dict]) -> InstanceConfig:
    """Parse and validate an instance description.

    Accepts a dict, a JSON text (anything starting with '{'), or a
    path to a JSON file.  Raises ParseError for malformed JSON,
    ValidationError (with a field path in the message) for schema
    violations (including everything the weight validator rejects and
    windows outside the float range), and ConstructError when tau overflows.
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                text = Path(source).read_text()
            except OSError as exc:
                raise ParseError(f"cannot read config: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config root must be an object")

    l = _require(raw, "l", int, "l")
    m = _require(raw, "m", int, "m")
    alpha = _number_list(raw, "alpha")
    beta = _number_list(raw, "beta")
    try:
        w = validate_weights(l, m, alpha, beta)
    except WeightError as exc:
        raise ValidationError(f"alpha/beta: {exc}") from exc

    rho_raw = _require(raw, "rho", list, "rho")
    if len(rho_raw) != w.k:
        raise ValidationError(
            f"rho: expected lcm(l, m) = {w.k} factors, got {len(rho_raw)}"
        )
    rho = tuple(_rho_entry(entry, i) for i, entry in enumerate(rho_raw))
    tau = ExpansionSchedule.from_factors(rho).tau

    window = _require(raw, "window", dict, "window")
    t_min = _require(window, "t_min", int, "window.t_min")
    t_max = _require(window, "t_max", int, "window.t_max")
    if t_min > t_max:
        raise ValidationError(f"window: t_min={t_min} exceeds t_max={t_max}")
    try:
        in_range = tau**t_min >= _sys.float_info.min and np.isfinite(tau ** (t_max + 1))
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValidationError(
            f"window: tau^{t_min} .. tau^{t_max + 1} leave the float range (tau={tau:g})")

    tolerance = raw.get("tolerance", 1e-9)
    # the chained comparison is false for NaN, and bounds integers too
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)) or not (
            0 < tolerance <= _sys.float_info.max):
        raise ValidationError("tolerance: must be a finite positive number")
    spp = raw.get("samples_per_piece", 8)
    if isinstance(spp, bool) or not isinstance(spp, int) or spp < 0:
        raise ValidationError("samples_per_piece: must be a non-negative integer")

    return InstanceConfig(
        l=l, m=m, alpha=alpha, beta=beta, rho=rho,
        t_min=t_min, t_max=t_max,
        tolerance=float(tolerance), samples_per_piece=spp,
    )


def cmd_build(cfg: InstanceConfig) -> int:
    g = cfg.graph()
    doc = {
        "k": g.weights.k,
        "d": g.weights.d,
        "tau": g.schedule.tau,
        "u": [float(x) for x in g.u],
        "v": [float(x) for x in g.v],
    }
    if g.weights.d > 1:
        doc["subgraphs"] = [{"f": f, "gamma": g.weights.class_gamma(f)}
                            for f in range(g.weights.d)]
    print(json.dumps(doc, indent=2))
    return 0


def cmd_check(cfg: InstanceConfig, tolerance: Optional[float]) -> int:
    g = cfg.graph()
    tol = tolerance if tolerance is not None else cfg.tolerance
    report = run_all_checks(g, tol=tol, t_base=cfg.t_min)
    for line in report.lines():
        print(line)
    print("all applicable checks passed" if report.ok else "CHECK FAILURES")
    return 0 if report.ok else 1


def cmd_eval(cfg: InstanceConfig, q: float) -> int:
    values = evaluate(cfg.graph(), q)
    print(" ".join(f"{v:.12g}" for v in values))
    return 0


def cmd_plot(cfg: InstanceConfig, out_path: str) -> int:
    svg = render_svg(cfg.graph(), cfg.t_min, cfg.t_max)
    Path(out_path).write_text(svg)
    print(f"wrote {out_path}")
    return 0


def cmd_export(cfg: InstanceConfig, out_path: str) -> int:
    sys_ = component_functions(cfg.graph(), cfg.t_min, cfg.t_max)
    # per piece: its left breakpoint (s = 0), then samples_per_piece interior samples
    spp = cfg.samples_per_piece
    lo, hi = sys_.breakpoints[:-1, None], sys_.breakpoints[1:, None]
    try:
        s = np.arange(spp + 1)
        with np.errstate(over="ignore"):
            offset = (hi - lo) * s / (spp + 1)
        # (hi - lo) * s overflows near the largest float: divide first only there,
        # as dividing first elsewhere moves some printed digits
        offset = np.where(np.isinf(offset), (hi - lo) / (spp + 1) * s, offset)
        qs = np.append(lo + offset, sys_.q_hi)
        table = np.column_stack([qs, sys_.values_at(qs)])
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        print(f"error: input: samples_per_piece: {spp} samples per piece do not fit"
              f" in memory ({exc})", file=_sys.stderr)
        return 2
    header = "q," + ",".join(f"P_{i + 1}" for i in range(sys_.n))
    with open(out_path, "w", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.12g", delimiter=",", header=header, comments="")
    print(f"wrote {out_path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="regraph",
        description="Build, verify and export regular self-similar piecewise-linear graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "build": "solve an instance and print the node data",
        "check": "run the verification suite (exit 0 iff all applicable checks pass)",
        "eval": "print the sorted component values at an abscissa",
        "plot": "write an SVG drawing of the windowed graph",
        "export": "write the component functions as CSV samples",
    }
    for name, help_ in specs.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to a JSON instance config")
        if name == "check":
            p.add_argument("--tolerance", type=float, default=None,
                           help="override the config tolerance")
        if name == "eval":
            p.add_argument("--q", type=float, required=True,
                           help="abscissa to evaluate at (finite, non-negative)")
        if name in ("plot", "export"):
            p.add_argument("--out", required=True, help="output file path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ParseError, ValidationError, ConstructError) as exc:
        print(f"error: input: {exc}", file=_sys.stderr)
        return 2
    try:
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "check":
            if args.tolerance is not None and not 0 < args.tolerance <= _sys.float_info.max:
                print("error: usage: --tolerance must be finite and positive", file=_sys.stderr)
                return 2
            return cmd_check(cfg, args.tolerance)
        if args.command == "eval":
            if not (np.isfinite(args.q) and args.q >= 0):
                print("error: usage: --q must be finite and non-negative", file=_sys.stderr)
                return 2
            return cmd_eval(cfg, args.q)
        if args.command == "plot":
            return cmd_plot(cfg, args.out)
        if args.command == "export":
            return cmd_export(cfg, args.out)
    except (WeightError, ConstructError) as exc:
        print(f"error: input: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=_sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


def run() -> None:
    raise SystemExit(main())


__all__ = [
    "ParseError",
    "ValidationError",
    "InstanceConfig",
    "load_config",
    "main",
    "run",
]


if __name__ == "__main__":
    run()
