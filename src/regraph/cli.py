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
import shutil
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
from .graph import _check_window, component_functions, evaluate
from .render import render_svg
from .weights import WeightError, Weights, _int_text, validate_weights


class ValidationError(ValueError):
    """A config that cannot be read, is not a JSON object or violates the schema.

    A schema message starts with the offending field path, e.g. "rho[2]".
    """


@dataclass(frozen=True)
class InstanceConfig:
    """One instance, its weights validated and schedule built once by load_config;
    rho keeps the factors as given, power forms included."""

    weights: Weights
    rho: tuple[FactorLike, ...]
    schedule: ExpansionSchedule
    t_min: int
    t_max: int
    tolerance: float
    samples_per_piece: int
    # read, outside the tests, only by bench/workloads.py; they go with the benchmark's
    # next change (ROADMAP item 14)
    l = property(lambda self: self.weights.l)
    m = property(lambda self: self.weights.m)
    alpha = property(lambda self: self.weights.alpha)
    beta = property(lambda self: self.weights.beta)

    def graph(self) -> RegularGraph:
        return build_graph(self.weights, self.schedule)


def _require(raw: dict, field: str, kinds, path: str):
    if field not in raw:
        raise ValidationError(f"{path}: missing required field")
    value = raw[field]
    if not isinstance(value, kinds):
        raise ValidationError(f"{path}: wrong type {type(value).__name__}")
    if isinstance(value, bool):  # bool is an int subclass; never wanted here
        raise ValidationError(f"{path}: wrong type bool")
    return value


def _float(value: Union[int, float], path: str) -> float:
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValidationError(f"{path}: integer too large for a float") from None


def _number_list(raw: dict, field: str) -> tuple[float, ...]:
    value = _require(raw, field, list, field)
    out = []
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValidationError(f"{field}[{i}]: expected a number")
        out.append(_float(entry, f"{field}[{i}]"))
    return tuple(out)


def _rho_entry(entry, i: int) -> FactorLike:
    if isinstance(entry, bool):
        raise ValidationError(f"rho[{i}]: expected a number or power object")
    if isinstance(entry, (int, float)):
        if not entry > 1:
            shown = _int_text(entry) if isinstance(entry, int) else entry
            raise ValidationError(f"rho[{i}]: factor {shown} must exceed 1")
        return _float(entry, f"rho[{i}]")
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
        form = PowerForm(base=_float(base, f"rho[{i}].base"), num=num, den=den)
        if not form.value > 1:
            raise ValidationError(f"rho[{i}]: power evaluates to {form.value}, must exceed 1")
        return form
    raise ValidationError(f"rho[{i}]: expected a number or power object")


def load_config(source: Union[str, Path, dict]) -> InstanceConfig:
    """Parse and validate an instance description.

    Accepts a dict, a JSON text (anything starting with '{' or '['), or
    a path to a JSON file.  Raises ValidationError for an unreadable file,
    malformed JSON, a root that is not an object and schema violations
    (with a field path in the message), including everything the weight
    validator rejects and windows outside the float range, and
    ConstructError when tau overflows.
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if not text.lstrip().startswith(("{", "[")):
            try:
                text = Path(source).read_text()
            except OSError as exc:
                raise ValidationError(f"cannot read config: {exc}") from exc
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
            raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be an object")

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
    schedule = ExpansionSchedule.from_factors(rho)

    window = _require(raw, "window", dict, "window")
    t_min = _require(window, "t_min", int, "window.t_min")
    t_max = _require(window, "t_max", int, "window.t_max")
    if t_min > t_max:
        raise ValidationError(
            f"window: t_min={_int_text(t_min)} exceeds t_max={_int_text(t_max)}")
    try:
        _check_window(schedule.tau, t_min, t_max + 1)
    except ConstructError as exc:
        raise ValidationError(str(exc)) from exc

    tolerance = raw.get("tolerance", 1e-9)
    # the chained comparison is false for NaN, and bounds integers too
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)) or not (
            0 < tolerance <= _sys.float_info.max):
        raise ValidationError("tolerance: must be a finite positive number")
    spp = raw.get("samples_per_piece", 8)
    if isinstance(spp, bool) or not isinstance(spp, int) or spp < 0:
        raise ValidationError("samples_per_piece: must be a non-negative integer")

    return InstanceConfig(
        weights=w, rho=rho, schedule=schedule,
        t_min=t_min, t_max=t_max,
        tolerance=float(tolerance), samples_per_piece=spp,
    )


def cmd_build(cfg: InstanceConfig) -> int:
    w, g = cfg.weights, cfg.graph()  # the solve alone: build reads no line table
    doc = {"k": w.k, "d": w.d, "tau": cfg.schedule.tau, "u": g.u.tolist(), "v": g.v.tolist()}
    if w.d > 1:
        doc["subgraphs"] = [{"f": f, "gamma": w.class_gamma(f)} for f in range(w.d)]
    print(json.dumps(doc, indent=2))
    return 0


def cmd_check(cfg: InstanceConfig) -> int:
    report = run_all_checks(cfg.graph(), tol=cfg.tolerance, t_base=cfg.t_min)
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


# The CSV writer formats a table as np.savetxt(fmt="%.12g", delimiter=",") does,
# byte for byte, from array arithmetic instead of one Python `%` per value.
#
# Digits: for x != 0 with e = floor(log10|x|), m = |x| * 10^k1 * 10^k2 with
# k1 + k2 = 11 - e and both powers correctly rounded floats inside the float range.
# Two products and two powers are four roundings of relative error <= 2^-53; the
# last is at most ulp(m)/2 <= 2^-14 absolute, as m < 2^40.  So m is within
# 3 * 2^-53 * 1e12 + 2^-14 < 4e-4 of M = |x| * 10^(11 - e), and r = rint(m) is M
# rounded to the nearest integer, that is |x| correctly rounded to 12 significant
# digits, whenever |m - r| < 1/2 - _TIE_GUARD, m >= 1e11 and r < 1e12 (this holds
# even where log10 puts e one off).  All other values (zero, near-ties, a carry to
# 1e12, inf, nan) are formatted by Python's own b"%.12g".
#
# Layout: each value fills a 40-byte row with every character its %.12g text
# can use, and a mask row, looked up by (form, trailing zeros of r, sign),
# keeps the ones it prints:
#   0: "-"   1-5: "0.000"   8-31: d0 "." d1 "." ... d11 "."
#   32-36: "e", exponent sign, 3 exponent digits   39: "," or, ending a row, "\n"
# Forms 0-15 are fixed notation with exponent e = form - 4 (%.12g's -4 <= e < 12),
# 16 and 17 exponent notation with 2 and 3 exponent digits.
_CSV_CHUNK = 8192  # values export formats at once; bounds its memory
_TIE_GUARD = 5e-4  # above the 4e-4 error bound of m
_E_MIN = -324  # floor(log10|x|) of the smallest subnormal
_K_MIN = -149  # (11 - 308) // 2, the smallest k1


@functools.cache
def _csv_tables():
    """The writer's lookup tables, built on first use."""
    v = np.arange(10_000)
    pairs = np.full((len(v), 8), ord("."), dtype=np.uint8)  # "d.d.d.d." of v
    pairs[:, ::2] = v[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    trailing_zeros = (v % [[10], [100], [1000], [10_000]] == 0).sum(axis=0)
    # k1 = (11 - e) // 2 and k2 = 11 - e - k1 for e in -324 .. 308
    pow10 = np.array([float(f"1e{k}") for k in range(_K_MIN, 169)])
    e = np.arange(_E_MIN, 309)
    exponent = np.zeros((len(e), 8), dtype=np.uint8)  # "e+XXX"
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exponent[:, 2:5] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    form_of_e = np.select([(e >= -4) & (e < 12), abs(e) > 99], [e + 4, 17], 16)

    slot = np.arange(40)
    j = (slot - 8) // 2  # slots 8-31: digit j, then the point after it
    digit = (slot >= 8) & (slot < 32) & (slot % 2 == 0)
    point = (slot >= 8) & (slot < 32) & (slot % 2 == 1)
    n = 12 - np.arange(12)[:, None]  # digits left once z trailing zeros go, by z
    x = np.arange(-4, 12)[:, None, None]  # the exponent of each fixed form
    fixed = (digit & ((j < n) | (j <= x))  # all integer digits, then the fraction's
             | point & (j == x) & (x + 1 < n)  # the point, when a digit follows it
             | (x < 0) & (slot >= 1) & (slot <= 1 - x))  # "0." and -x - 1 zeros
    expo = digit & (j < n) | point & (j == 0) & (1 < n) | (slot >= 32) & (slot <= 36)
    keep = np.stack([*fixed, expo & (slot != 34), expo])  # (form, z, slot)
    keep = np.repeat(keep[:, :, None], 2, axis=2)  # (form, z, sign, slot)
    keep[..., 0] = [False, True]
    keep[..., 39] = True
    prefix = np.frombuffer(b"-0.000\0\0", dtype=np.uint64)[0]
    return (prefix, pairs.view(np.uint64).ravel(), trailing_zeros, pow10,
            exponent.view(np.uint64).ravel(), form_of_e, keep.reshape(-1, 40))


def _csv_text(table: np.ndarray) -> np.ndarray:
    """The rows of a 2-D table as %.12g CSV lines, as one byte array."""
    prefix, pairs, trailing_zeros, pow10, exponent, form_of_e, keep_rows = _csv_tables()
    x = table.ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        finite = np.isfinite(e)  # false for 0, inf and nan
        e = np.where(finite, e, 0).astype(np.intp)
        k1 = (11 - e) // 2
        m = a * pow10[k1 - _K_MIN] * pow10[11 - e - k1 - _K_MIN]
        r = np.rint(m)
        ok = finite & (np.abs(m - r) < 0.5 - _TIE_GUARD) & (m >= 1e11) & (r < 1e12)
    hi, rest = np.divmod(np.where(ok, r, 1e11).astype(np.int64), 10**8)
    mid, lo = np.divmod(rest, 10**4)
    z = trailing_zeros[lo] + (lo == 0) * (trailing_zeros[mid] + (mid == 0) * trailing_zeros[hi])
    row = np.empty((len(x), 5), dtype=np.uint64)
    row[:, 0] = prefix
    row[:, 1:4] = np.take(pairs, np.stack([hi, mid, lo], axis=1))
    row[:, 4] = np.take(exponent, e - _E_MIN)
    text = row.view(np.uint8)
    text[:, 39] = ord(",")
    text.reshape(*table.shape, 40)[:, -1, 39] = ord("\n")
    form = np.take(form_of_e, e - _E_MIN)
    keep = np.take(keep_rows, (form * 12 + z) * 2 + np.signbit(x), axis=0)
    for i in np.flatnonzero(~ok):
        s = b"%.12g" % x[i]
        text[i, :len(s)] = np.frombuffer(s, dtype=np.uint8)
        keep[i, :39] = np.arange(39) < len(s)
    return np.take(text, np.flatnonzero(keep))


def cmd_export(cfg: InstanceConfig, out_path: str) -> int:
    system = component_functions(cfg.graph(), cfg.t_min, cfg.t_max)
    breakpoints, n = system.breakpoints, system.n
    # per piece: its left breakpoint (s = 0), then samples_per_piece interior
    # samples; the final right endpoint closes the table
    spp = cfg.samples_per_piece
    rows = (len(breakpoints) - 1) * (spp + 1) + 1
    folder = Path(out_path).absolute().parent
    need, free = 2 * rows * (n + 1), shutil.disk_usage(folder).free
    if need > free:  # each value prints as at least one character and a separator
        raise ValidationError(
            f"samples_per_piece: {_int_text(spp)} samples per piece need at least"
            f" {_int_text(need)} bytes, more than the {free} free in {folder}")
    block = max(1, _CSV_CHUNK // (n + 1))  # rows formatted and written at once
    last = len(breakpoints) - 1
    with open(out_path, "wb") as fh:
        fh.write(("q," + ",".join(f"P_{i + 1}" for i in range(n)) + "\n").encode())
        for r in range(0, rows, block):
            piece, s = np.divmod(np.arange(r, min(r + block, rows)), spp + 1)
            lo = breakpoints[piece]
            width = breakpoints[np.minimum(piece + 1, last)] - lo
            with np.errstate(over="ignore"):
                offset = width * s / (spp + 1)
            inf = np.isinf(offset)
            if inf.any():
                # width * s overflows near the largest float: divide first only there,
                # as dividing first elsewhere moves some printed digits
                offset[inf] = width[inf] / (spp + 1) * s[inf]
            q = lo + offset
            # values_at reads the piece holding q (q >= lo), which may be the next
            # one where q rounds onto its end
            fh.write(_csv_text(np.column_stack([q, system.values_at(q)])))
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
        if name == "eval":
            p.add_argument("--q", type=float, required=True,
                           help="abscissa to evaluate at (finite, non-negative)")
        if name in ("plot", "export"):
            p.add_argument("--out", required=True, help="output file path")
    return parser


def _error(category: str, message) -> int:
    """Print the one line `error: <category>: <message>` and return exit code 2."""
    print(f"error: {category}: {message}", file=_sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "eval":
            if not (np.isfinite(args.q) and args.q >= 0):
                return _error("usage", "--q must be finite and non-negative")
            return cmd_eval(cfg, args.q)
        if args.command == "plot":
            return cmd_plot(cfg, args.out)
        if args.command == "export":
            return cmd_export(cfg, args.out)
    except (ValidationError, ConstructError) as exc:
        return _error("input", exc)
    except OSError as exc:
        return _error("io", exc)
    raise AssertionError("unreachable command dispatch")


def run() -> None:
    raise SystemExit(main())


__all__ = [
    "ValidationError",
    "InstanceConfig",
    "load_config",
    "main",
    "run",
]
