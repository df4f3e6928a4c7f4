"""Output checks, run outside the timed region.

Each check returns None when the output is correct and a one-line reason
otherwise.  Check verdicts are not gated on: the `check` subcommand may
report FAIL for known defects, and only the agreement between its last
line and its exit code is required here.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from typing import Optional

import numpy as np

#: relative agreement required between `build` and the dense-solve oracle
ORACLE_RTOL = 1e-8
#: agreement of `evaluate` with the extracted system, relative to q * max|slope|
EVAL_RTOL = 1e-8

CHECK_LAST_LINE = {0: "all applicable checks passed", 1: "CHECK FAILURES"}


def check_build(stdout: str, u_ref: np.ndarray, v_ref: np.ndarray) -> Optional[str]:
    """u, v printed by `build` agree with the oracle's node heights."""
    try:
        doc = json.loads(stdout)
        u = np.asarray(doc["u"], dtype=float)
        v = np.asarray(doc["v"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return f"build: unreadable output ({exc})"
    if u.shape != u_ref.shape or v.shape != v_ref.shape:
        return f"build: {len(u)}/{len(v)} heights, expected {len(u_ref)}"
    got = np.concatenate([u, v])
    ref = np.concatenate([u_ref, v_ref])
    err = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
    if not err <= ORACLE_RTOL:
        return f"build: u, v differ from the oracle by {err:.3g} (relative)"
    return None


def check_check(rc: int, stdout: str) -> Optional[str]:
    """The last line of `check` matches its exit code (0 or 1)."""
    if rc not in CHECK_LAST_LINE:
        return f"check: exit code {rc}"
    lines = stdout.rstrip("\n").split("\n")
    if lines[-1] != CHECK_LAST_LINE[rc]:
        return f"check: last line {lines[-1]!r} does not match exit code {rc}"
    return None


def verdicts(stdout: str) -> list[str]:
    """Statuses of the per-check lines `name: STATUS (...)` of `check`."""
    out = []
    for line in stdout.split("\n"):
        head, sep, rest = line.partition(": ")
        if sep and rest[:1].isupper() and " (margin=" in rest:
            out.append(rest.split(" ", 1)[0].lower())
    return out


def check_eval_line(stdout: str, n: int) -> Optional[str]:
    """`eval` prints n finite numbers on one line."""
    fields = stdout.split()
    try:
        values = [float(x) for x in fields]
    except ValueError:
        return f"eval: non-numeric output {stdout.strip()[:60]!r}"
    if len(values) != n or not all(math.isfinite(x) for x in values):
        return f"eval: expected {n} finite numbers, got {fields[:4]}..."
    return None


def check_evaluate(values, q: float, ref: np.ndarray, max_slope: float) -> Optional[str]:
    """`evaluate(g, q)` agrees with the reference values at q."""
    err = float(np.max(np.abs(np.asarray(values) - ref))) / (q * max_slope)
    if not err <= EVAL_RTOL:
        return f"evaluate: q={q!r} differs from the extracted system by {err:.3g}"
    return None


def check_csv(text: str, n: int, rows: int) -> Optional[str]:
    """Export CSV: documented header, strictly increasing q, row count."""
    lines = text.split("\n")
    header = "q," + ",".join(f"P_{i + 1}" for i in range(n))
    if lines[0] != header:
        return f"export: header {lines[0][:60]!r}"
    if lines[-1] != "":
        return "export: missing final newline"
    body = lines[1:-1]
    if len(body) != rows:
        return f"export: {len(body)} rows, expected {rows}"
    q = np.array([float(line.split(",", 1)[0]) for line in body])
    if not np.all(np.diff(q) > 0):
        i = int(np.argmin(np.diff(q)))
        return f"export: q not strictly increasing at row {i + 2} (q={q[i]!r})"
    if any(line.count(",") != n for line in body):
        return "export: row with the wrong number of fields"
    return None


def check_svg(text: str) -> Optional[str]:
    """Plot output parses as XML with an svg root."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"plot: SVG does not parse ({exc})"
    if not root.tag.endswith("svg"):
        return f"plot: root element {root.tag}"
    return None
