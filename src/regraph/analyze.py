"""Verification suite: structural validity, regularity, properness.

Each check returns a CheckResult with a status, the tolerance it used,
a numeric margin (worst slack observed; negative means violated) and a
witness locating the worst spot.  Statuses:

    pass            check holds
    fail            check violated — the graph is structurally wrong
    not-sufficient  a one-sided sufficient condition does not hold;
                    says nothing negative about the graph itself
    not-applicable  hypothesis of the check not met by this instance

The distinction between fail and not-sufficient matters for exit
codes: the ratio test and the per-factor bound for a single falling
weight only ever certify properness, so their inequality failing must
not flag an otherwise healthy instance.

Two rules decide, and NaN passes neither: system, regular and subgraphs
pass when their first largest relative residual is at most tol
(_worst_residual), and the proper-* checks when their first least slack is
at least -tol for proper-direct and 0 otherwise (_least_slack).  A slack
past the float range reads +-inf with its sign; sums are formed in a power
of two in which none overflows.

The graph is proper when, wherever P_i < P_{i+1}, the slope sum of the
bottom i components never falls.  Between grid abscissae the active lines
are fixed, and at a crossing the order changes only among lines tied
there, whose gaps are exempt; so only the sigma_j can fail.  At sigma_j
only the lines through the two nodes of index j change: at the lower node
the falling line of slope -beta_{j mod m} ends and the rising line of
slope alpha_{j mod l} starts, at the upper node the reverse, and the line
that ends at a node meets the one that starts there.  So the sorted values
left and right of sigma_j are the same, and with c_j = alpha_{j mod l} +
beta_{j mod m} the bottom-i slack is +c_j where only the lower node is
among the bottom i, -c_j where only the upper node is, and 0 otherwise.
A -c_j at an open gap occurs exactly when v_j < u_j and c_j > 0, so
proper-direct is the node test at the nodes that bend the graph: it reads
u, v and the weights alone, in O(k).

run_all_checks is the one public check: it runs every check below on one
graph, in a fixed order, and extracts no piece table.  system and (when
d > 1) subgraphs read the graph's line table once, at the k grid
abscissae of one period and its closing point, in O(k n log n).
Thresholds scale with W, the largest |slope|, and proper-m1 normalises
the weights to beta_1 = l, so weights times c, which give the graph times
c, move no verdict.  A period whose values leave the float range makes
run_all_checks raise ConstructError before any check runs, by the rule
export and plot share (graph._window_ends); the non-finite FAIL paths of
_regular and _subgraphs are kept as safety code.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import frexp, ldexp
from typing import Optional

import numpy as np

from .construct import ExpansionSchedule, RegularGraph, growth_terms
from .graph import _window_ends
from .weights import Weights

PASS = "pass"
FAIL = "fail"
NOT_SUFFICIENT = "not-sufficient"
NOT_APPLICABLE = "not-applicable"

#: statuses that do not flag a broken instance
_BENIGN = frozenset({PASS, NOT_SUFFICIENT, NOT_APPLICABLE})


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    tolerance: float
    margin: float
    witness: Optional[dict] = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status in _BENIGN


@dataclass(frozen=True)
class CheckReport:
    """Bundle of check results; ok iff nothing failed."""

    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def entry(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            line = f"{r.name}: {r.status.upper()} (margin={r.margin:.6g}, tol={r.tolerance:.3g})"
            if r.witness:
                parts = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in r.witness.items())
                line += f" [{parts}]"
            if r.note:
                line += f" -- {r.note}"
            out.append(line)
        return out


def _rel(x, q, w):
    """x / (w q), the margin of a test x > tol * w * q; 0 where x is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x / q / w)


def _worst_residual(name: str, rel: np.ndarray, tol: float, witness_at, notes) -> CheckResult:
    """PASS or FAIL on the first largest relative residual in rel, inf where a
    term is non-finite or it is NaN; witness_at maps its index to the witness,
    and notes says why a finite and a non-finite residual fail."""
    rel[np.isnan(rel)] = np.inf
    at = tuple(int(i) for i in np.unravel_index(np.argmax(rel), rel.shape))
    worst = float(rel[at])
    witness = witness_at(*at) if worst > 0.0 else None
    if worst > tol:
        return CheckResult(name, FAIL, tol, worst, witness, note=notes[worst == np.inf])
    return CheckResult(name, PASS, tol, worst, witness)


def _least_slack(name: str, slack: np.ndarray, witness_at, below: str = FAIL,
                 tol: float = 0.0) -> CheckResult:
    """PASS if the first least entry of slack is at or above -tol, status
    below otherwise (NaN included); witness_at maps its index to the witness."""
    at = tuple(int(i) for i in np.unravel_index(np.argmin(slack), slack.shape))
    least = float(slack[at])
    return CheckResult(name, PASS if least >= -tol else below, tol, least, witness_at(*at))


def _regular(g: RegularGraph, terms, tol: float) -> CheckResult:
    """Self-similarity at its source: the heights solve the node system.

    Windows are tau^t tiles of period 0, so P(tau q) = tau P(q) holds by
    construction; this tests the period-0 data.  For (h, H) = (u, U) and
    (v, V), terms the growth_terms arrays of g, at the worst r, the residual
    |h_r - chi_r h_{(r+n) mod k} + H_r| relative to the largest of its three
    terms (0 when exactly 0) must not exceed tol; a non-finite term fails."""
    w = g.weights
    _, _, chi, U, V = terms
    h, H = np.stack([g.u, g.v]), np.stack([U, V])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = chi * h[:, (np.arange(w.k) + w.n) % w.k]
        terms = np.abs([h, step, H])
        resid = np.abs(h - step + H)
        rel = np.where(resid == 0.0, 0.0, resid / terms.max(axis=0))
    rel[~np.isfinite(terms).all(axis=0)] = np.inf
    return _worst_residual("regular", rel, tol, lambda kind, r: {"r": r, "kind": "uv"[kind]},
                           ("node heights off the node system", "non-finite node height or term"))


def _proper_direct(g: RegularGraph, w_max: float, tol: float) -> CheckResult:
    """Properness at the nodes that bend the graph (module docstring): at
    every r with c_r = alpha_{r mod l} + beta_{r mod m} > 0, v_r - u_r is at
    or above -tol * W, a node that close counting as tied.  The margin is the
    least (v_r - u_r) / W over them, scale-free, and the witness its r."""
    w = g.weights
    r = np.arange(w.k)
    bending = np.asarray(w.alpha)[r % w.l] + np.asarray(w.beta)[r % w.m] > 0
    return _least_slack("proper-direct", np.where(bending, g.v / w_max - g.u / w_max, np.inf),
                        lambda i: {"r": i}, tol=tol)


def _proper_sufficient(w: Weights, terms) -> CheckResult:
    """Ratio form of the sufficient properness condition.

    Requires every pair sum alpha_i + beta_j to be positive; then
    properness is guaranteed when (psi_r^n + 1)/(psi_r^l + psi_r^m), read
    off the growth_terms arrays, dominates the extremal pair-sum ratio at
    every r.  One-sided: when the inequality fails the result is
    'not-sufficient', not 'fail'.
    """
    # the extremal pair sums, bit for bit, as float addition rounds monotonically
    pair_min = min(w.alpha) + min(w.beta)
    if pair_min <= 0:
        return CheckResult("proper-sufficient", NOT_APPLICABLE, 0.0, 0.0, None,
                           note="some pair sum alpha_i + beta_j is zero")
    rhs = (max(w.alpha) + max(w.beta)) / pair_min
    pl, pm, pn, _, _ = terms
    lhs = (pn + 1.0) / (pl + pm)
    return _least_slack("proper-sufficient", lhs - rhs,
                        lambda r: {"r": r, "lhs": float(lhs[r]), "rhs": rhs}, NOT_SUFFICIENT)


def _proper_termwise(terms) -> CheckResult:
    """Termwise sufficient condition: V_r - U_r >= 0 for every r.

    This is the inequality the ratio condition actually bounds; it is
    weaker (closer to necessary) than the ratio form and likewise only
    certifies, never refutes.
    """
    _, _, _, U, V = terms
    return _least_slack("proper-termwise", V - U, lambda r: {"r": r}, NOT_SUFFICIENT)


def _proper_m1(w: Weights, schedule: ExpansionSchedule) -> CheckResult:
    """Per-factor bound for a single falling weight.

    Applies when m = 1.  The paper's bound rho_r >= (alpha_r + l) /
    (alpha_{r+1} + l) for r = 1..l assumes beta_1 = l; weights times c
    give the graph times c, so normalising to beta_1 = l makes it
    rho_r >= (alpha_r + beta_1) / (alpha_{r+1} + beta_1), which certifies
    properness at any scale.
    """
    if w.m != 1:
        return CheckResult("proper-m1", NOT_APPLICABLE, 0.0, 0.0, None,
                           note="requires m = 1 and beta_1 = l")
    alpha = np.array(w.alpha + w.alpha[:1])  # alpha_1 .. alpha_{l+1}
    bound = (alpha[:-1] + w.beta[0]) / (alpha[1:] + w.beta[0])
    return _least_slack("proper-m1", np.asarray(schedule.factors[:w.l]) - bound,
                        lambda i: {"r": i + 1, "bound": float(bound[i])}, NOT_SUFFICIENT)


def _subgraphs(g: RegularGraph, x: np.ndarray, ends: np.ndarray, w_max: float,
               tol: float, unit: float) -> CheckResult:
    """Residue-class decomposition consistency for non-coprime sizes (d > 1).

    The class drifts gamma_f must cancel to tol * W, W the largest
    |slope|, and above every subinterval j of the line table the lines of
    class f (r = f mod d) must sum to gamma_f * x at both ends x of its
    subinterval (graph._window_ends).
    A residual fails above tol * W * x, with margin residual / (W x); a
    non-finite term fails.  ends, w_max and gamma are in units of unit.
    """
    w = g.weights
    gamma = unit * np.array([w.class_gamma(f) for f in range(w.d)])
    gamma_sum = float(sum(gamma))
    if abs(gamma_sum) > tol * w_max:
        return CheckResult("subgraphs", FAIL, tol, gamma_sum / w_max, None,
                           note="class drifts do not cancel")
    x = x[:, None]  # (end, 1, j)
    in_class = g.lines.r % w.d == np.arange(w.d)[:, None, None]  # (f, j, line)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(in_class, ends[:, None], 0.0)
        resid = np.abs(terms.sum(axis=-1) - gamma[:, None] * x)
    rel = _rel(resid, x, w_max)
    rel[~np.isfinite(terms).all(axis=-1)] = np.inf
    return _worst_residual("subgraphs", rel, tol, lambda _, f, j: {"f": f, "j": j},
                           ("class lines off the class drift", "non-finite class line value"))


def _grid_system(g: RegularGraph, x: np.ndarray, ends: np.ndarray, scale: float,
                 w_max: float, tol: float) -> CheckResult:
    """system on the line table: each row's labels are a permutation of the
    alphabet, its lines sum to 0 * x at both ends x of its subinterval
    (failing above tol * W * x, margin the largest residual / (W x)), and row
    0 at x = 1 is consistent with vanishing at 0, |P_i(1)| <= W (1 + tol).
    ends and w_max may be in any power-of-two unit.  Witness abscissae are
    scale * x."""
    bad = np.any(np.sort(g.lines.label, axis=1) != np.arange(g.weights.n), axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        return CheckResult("system", FAIL, tol, -1.0, {"j": j, "q": float(scale * x[0, j])},
                           note="slope labels are not a permutation of the alphabet")
    sums = _worst_residual("system", _rel(np.abs(ends.sum(axis=-1)), x, w_max), tol,
                           lambda e, j: {"q": float(scale * x[e, j])},
                           ("component sum off the expected line", "non-finite component value"))
    over = float(np.max(np.abs(ends[0, 0]))) - w_max
    if sums.ok and over > tol * w_max:
        return CheckResult("system", FAIL, tol, over / w_max, {"q": scale},
                           note="first-period values inconsistent with vanishing at 0")
    return sums


def run_all_checks(g: RegularGraph, tol: float = 1e-9, t_base: int = 0) -> CheckReport:
    """Run the full verification suite, the one public check of this module.

    system and, when d > 1, subgraphs read the line table at the grid
    abscissae of period t_base and its closing point tau^(t_base+1); t_base
    only places witnesses and sets the float range.  No piece table is
    extracted.  Raises ConstructError where exporting the window (t_base,
    t_base) would (graph._window_ends), and ValueError unless 0 < tol <= the
    largest float.
    """
    if not 0 < tol <= sys.float_info.max:
        raise ValueError(f"tol: must be a finite positive number, got {tol!r}")
    x, ends, power = _window_ends(g, t_base, t_base)
    scale, w_max = float(power[0]), float(np.max(np.abs(g.lines.slope)))
    w = g.weights
    terms = growth_terms(w, g.schedule)
    # system and subgraphs sum in units of 2^-e, e = 0 unless n values of the
    # largest |end| could overflow; the scaling is exact, so margins keep their bits
    e = frexp(float(np.max(np.abs(ends))))[1] + w.n.bit_length() - 1023
    unit = ldexp(1.0, -max(e, 0))
    in_unit = ends * unit
    with np.errstate(over="ignore", invalid="ignore"):  # a slack past the float range is +-inf
        results = [
            _grid_system(g, x, in_unit, scale, w_max * unit, tol),
            _regular(g, terms, tol),
            _proper_direct(g, w_max, tol),
            _proper_sufficient(w, terms),
            _proper_termwise(terms),
            _proper_m1(w, g.schedule),
        ]
        if w.d > 1:
            results.append(_subgraphs(g, x, in_unit, w_max * unit, tol, unit))
    return CheckReport(results=tuple(results))


__all__ = [
    "PASS", "FAIL", "NOT_SUFFICIENT", "NOT_APPLICABLE",
    "CheckResult", "CheckReport", "run_all_checks",
]
