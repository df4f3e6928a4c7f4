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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .construct import ConstructError, ExpansionSchedule, RegularGraph, growth_terms
from .graph import PiecewiseLinearSystem, component_functions
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


def _non_finite(name: str, sys: PiecewiseLinearSystem, tol: float) -> Optional[CheckResult]:
    """FAIL at the first piece whose ends, values or slopes hold NaN or +-inf."""
    bp = sys.breakpoints
    ok = np.isfinite(sys.values).all(axis=1) & np.isfinite(sys.slopes).all(axis=1)
    ok &= np.isfinite(bp[:-1]) & np.isfinite(bp[1:])
    if ok.all():
        return None
    p = int(np.argmin(ok))
    return CheckResult(name, FAIL, tol, -np.inf, {"piece": p, "q": float(bp[p])},
                       note="non-finite value in the piece table")


def _rel(x, q, w):
    """x / (w q), the margin of a test x > tol * w * q; 0 where x is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x / q / w)


def _worst_residual(name: str, rel: np.ndarray, tol: float, witness_at, notes) -> CheckResult:
    """PASS or FAIL on the first largest relative residual in rel, inf where a
    term is non-finite; witness_at maps its index to the witness, and notes
    says why a finite and a non-finite residual fail."""
    at = tuple(int(i) for i in np.unravel_index(np.argmax(rel), rel.shape))
    worst = float(rel[at])
    witness = witness_at(*at) if worst > 0.0 else None
    if worst > tol:
        return CheckResult(name, FAIL, tol, worst, witness, note=notes[worst == np.inf])
    return CheckResult(name, PASS, tol, worst, witness)


def check_system(sys: PiecewiseLinearSystem, tol: float = 1e-9) -> CheckResult:
    """Structural validity of an extracted component system.

    Verifies, piece by piece: the slope labels form exactly the
    expected alphabet (as a multiset, label-level equality); the
    components are sorted; the component sum vanishes; then
    components are continuous across breakpoints; and the first-period
    values are consistent with all components vanishing at the origin
    (|P_i(q_lo)| <= W q_lo).  A deviation x at abscissa q fails above
    tol * W * q, W the largest |slope| in the table, and its margin is
    x / (W q), so neither depends on the window.  A failure reports the
    first violated test in that order; a pass reports the largest sum
    residual or jump margin.  Any non-finite entry fails.
    """
    failed = _non_finite("system", sys, tol)
    if failed is not None:
        return failed
    vals, slopes = sys.values, sys.slopes
    lo, hi = sys.breakpoints[:-1], sys.breakpoints[1:]
    w_max = float(np.max(np.abs(slopes)))
    bound = tol * w_max

    gaps = np.diff(vals, axis=1)
    qs = np.stack([lo, 0.5 * (lo + hi), hi], axis=1)  # left end, midpoint, right end
    sums = (vals[:, None, :] + slopes[:, None, :] * (qs - lo[:, None])[..., None]).sum(axis=2)
    resid = np.abs(sums)
    bad = np.column_stack([
        np.any(np.sort(sys.labels, axis=1) != np.arange(len(sys.alphabet)), axis=1),
        np.any(-gaps > bound * lo[:, None], axis=1),
        resid > bound * qs,
    ])
    if bad.any():
        p, test = divmod(int(np.argmax(bad)), bad.shape[1])
        if test == 0:
            return CheckResult("system", FAIL, tol, -1.0, {"piece": p, "q": float(lo[p])},
                               note="slope labels are not a permutation of the alphabet")
        if test == 1:
            return CheckResult("system", FAIL, tol, float(_rel(gaps[p].min(), lo[p], w_max)),
                               {"piece": p, "q": float(lo[p])}, note="components out of order")
        q = qs[p, test - 2]
        return CheckResult("system", FAIL, tol, float(_rel(resid[p, test - 2], q, w_max)),
                           {"q": float(q)}, note="component sum off the expected line")

    # row b compares the right end of piece b with the left end of piece b + 1
    jump = np.abs(vals[:-1] + slopes[:-1] * (hi[:-1] - lo[:-1])[:, None] - vals[1:])
    j, i = jump.max(axis=1), jump.argmax(axis=1) + 1
    bad = j > bound * lo[1:]
    if bad.any():
        b = int(np.argmax(bad))
        return CheckResult("system", FAIL, tol, float(_rel(j[b], lo[b + 1], w_max)),
                           {"q": float(lo[b + 1]), "i": int(i[b])},
                           note="component discontinuous across breakpoint")

    # every component must vanish at 0, so |P_i(q)| <= W * q
    over = float(np.max(np.abs(vals[0]))) - w_max * sys.q_lo
    if over > bound * sys.q_lo:
        return CheckResult("system", FAIL, tol, float(_rel(over, sys.q_lo, w_max)),
                           {"q": sys.q_lo},
                           note="first-period values inconsistent with vanishing at 0")

    # the first largest of the sum residuals (piece by piece) and then the jumps
    seen = np.concatenate([_rel(resid, qs, w_max).ravel(), _rel(j, lo[1:], w_max)])
    p = int(np.argmax(seen))
    if not seen[p] > 0.0:
        return CheckResult("system", PASS, tol, 0.0, None)
    if p < resid.size:
        witness = {"q": float(qs.flat[p]), "kind": "sum"}
    else:
        b = p - resid.size
        witness = {"q": float(lo[b + 1]), "kind": "jump", "i": int(i[b])}
    return CheckResult("system", PASS, tol, float(seen[p]), witness)


def check_regular(g: RegularGraph, tol: float = 1e-9) -> CheckResult:
    """Self-similarity at its source: the heights solve the node system.

    Windows are tau^t tiles of period 0, so P(tau q) = tau P(q) holds by
    construction; this tests the period-0 data.  For (h, H) = (u, U) and
    (v, V), at the worst r, the residual |h_r - chi_r h_{(r+n) mod k} + H_r|
    relative to the largest of its three terms (0 when exactly 0) must
    not exceed tol; a non-finite term fails."""
    w = g.weights
    _, _, chi, U, V = growth_terms(w, g.schedule)
    h, H = np.stack([g.u, g.v]), np.stack([U, V])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = chi * h[:, (np.arange(w.k) + w.n) % w.k]
        terms = np.abs([h, step, H])
        resid = np.abs(h - step + H)
        rel = np.where(resid == 0.0, 0.0, resid / terms.max(axis=0))
    rel[~np.isfinite(terms).all(axis=0)] = np.inf
    return _worst_residual("regular", rel, tol, lambda kind, r: {"r": r, "kind": "uv"[kind]},
                           ("node heights off the node system", "non-finite node height or term"))


def check_proper_direct(sys: PiecewiseLinearSystem, tol: float = 1e-9) -> CheckResult:
    """The definitional properness test on the extracted system.

    At every interior breakpoint q and every index i where the gap
    P_{i+1}(q) - P_i(q) is open (above tol * W * q, W the largest
    |slope| in the table), the slope-sum of the bottom i components
    just left of q must not exceed the one just right.  Margin is the
    minimal right-minus-left slack over all tested (q, i).
    """
    failed = _non_finite("proper-direct", sys, tol)
    if failed is not None:
        return failed
    # row b - 1 is interior breakpoint b, where P = the right piece's left values
    vals = sys.values[1:]
    w_max = float(np.max(np.abs(sys.slopes)))
    csum = np.cumsum(sys.slopes, axis=1)
    slack = csum[1:, :-1] - csum[:-1, :-1]
    gap = vals[:, 1:] - vals[:, :-1]
    # components tied at q are exempt; a NaN gap is not tied, so it counts
    open_gap = ~(gap <= tol * w_max * sys.breakpoints[1:-1, None])
    if open_gap.any():
        b, i = np.unravel_index(np.argmin(np.where(open_gap, slack, np.inf)), slack.shape)
        best, witness = float(slack[b, i]), {"q": float(sys.breakpoints[b + 1]), "i": int(i) + 1}
    else:
        best, witness = 0.0, None  # no open gaps anywhere: vacuously proper
    status = PASS if best >= -tol else FAIL
    return CheckResult("proper-direct", status, tol, float(best), witness)


def check_proper_nodes(g: RegularGraph) -> CheckResult:
    """Node-ordering properness test: every upper node at or above the
    lower node of the same index (v_r >= u_r)."""
    diff = np.asarray(g.v) - np.asarray(g.u)
    r = int(diff.argmin())
    margin = float(diff[r])
    return CheckResult(
        "proper-nodes", PASS if margin >= 0 else FAIL, 0.0, margin, {"r": r}
    )


def check_proper_sufficient(w: Weights, schedule: ExpansionSchedule) -> CheckResult:
    """Ratio form of the sufficient properness condition.

    Requires every pair sum alpha_i + beta_j to be positive; then
    properness is guaranteed when (psi_r^n + 1)/(psi_r^l + psi_r^m)
    dominates the extremal pair-sum ratio at every r.  One-sided: when
    the inequality fails the result is 'not-sufficient', not 'fail'.
    """
    if w.pair_sum_min <= 0:
        return CheckResult("proper-sufficient", NOT_APPLICABLE, 0.0, 0.0, None,
                           note="some pair sum alpha_i + beta_j is zero")
    rhs = w.pair_sum_max / w.pair_sum_min
    pl, pm, pn, _, _ = growth_terms(w, schedule)
    lhs = (pn + 1.0) / (pl + pm)
    r = int((lhs - rhs).argmin())
    return _one_sided("proper-sufficient", lhs[r] - rhs,
                      {"r": r, "lhs": float(lhs[r]), "rhs": rhs})


def check_proper_termwise(w: Weights, schedule: ExpansionSchedule) -> CheckResult:
    """Termwise sufficient condition: V_r - U_r >= 0 for every r.

    This is the inequality the ratio condition actually bounds; it is
    weaker (closer to necessary) than the ratio form and likewise only
    certifies, never refutes.
    """
    _, _, _, U, V = growth_terms(w, schedule)
    slack = V - U
    r = int(slack.argmin())
    return _one_sided("proper-termwise", slack[r], {"r": r})


def check_proper_m1(w: Weights, schedule: ExpansionSchedule) -> CheckResult:
    """Per-factor bound for a single falling weight equal to the rising
    count.

    Applies when m = 1 and beta_1 = l; then rho_r >= (alpha_r + l) /
    (alpha_{r+1} + l) for r = 1..l certifies properness.
    """
    if w.m != 1 or abs(w.beta[0] - w.l) > 1e-12:
        return CheckResult("proper-m1", NOT_APPLICABLE, 0.0, 0.0, None,
                           note="requires m = 1 and beta_1 = l")
    alpha = np.array(w.alpha + w.alpha[:1])  # alpha_1 .. alpha_{l+1}
    bound = (alpha[:-1] + w.l) / (alpha[1:] + w.l)
    slack = np.asarray(schedule.factors[:w.l]) - bound
    i = int(slack.argmin())
    return _one_sided("proper-m1", slack[i], {"r": i + 1, "bound": float(bound[i])})


def _one_sided(name: str, margin: float, witness: dict) -> CheckResult:
    """A sufficient condition's result: its worst slack (the first minimum)
    certifies properness when non-negative, and is 'not-sufficient' otherwise."""
    status = PASS if margin >= 0.0 else NOT_SUFFICIENT
    return CheckResult(name, status, 0.0, float(margin), witness)


def check_subgraphs(g: RegularGraph, tol: float = 1e-9) -> CheckResult:
    """Residue-class decomposition consistency for non-coprime sizes.

    The class drifts gamma_f must cancel, and above every subinterval j of
    the line table the lines of class f (r = f mod d) must sum to
    gamma_f * x at both ends x.  A residual fails above tol * W * x, W the
    largest |slope|, with margin residual / (W x); a non-finite term fails.
    """
    w, lines, tau = g.weights, g.lines, g.schedule.tau
    if w.d == 1:
        return CheckResult("subgraphs", NOT_APPLICABLE, tol, 0.0, None,
                           note="group sizes are coprime; single class")
    gamma = np.array([w.class_gamma(f) for f in range(w.d)])
    gamma_sum = float(sum(gamma))
    if abs(gamma_sum) > 1e-12:
        return CheckResult("subgraphs", FAIL, tol, gamma_sum, None,
                           note="class drifts do not cancel")
    sig = np.asarray(g.schedule.sigmas)
    x = np.stack([sig, np.append(sig[1:], tau)])[:, None, :]  # (end, 1, j)
    x0 = np.where(lines.wrapped, tau**-1, 1.0) * lines.sigma
    in_class = lines.r % w.d == np.arange(w.d)[:, None, None]  # (f, j, line)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(in_class, x0 * lines.height + lines.slope * (x[..., None] - x0), 0.0)
        resid = np.abs(terms.sum(axis=-1) - gamma[:, None] * x)
    rel = _rel(resid, x, np.max(np.abs(lines.slope)))
    rel[~np.isfinite(terms).all(axis=-1)] = np.inf
    return _worst_residual("subgraphs", rel, tol, lambda _, f, j: {"f": f, "j": j},
                           ("class lines off the class drift", "non-finite class line value"))


def _close_period(sys: PiecewiseLinearSystem, tau: float) -> PiecewiseLinearSystem:
    """The table with the next period's first piece appended: row 0 times tau,
    as P(tau q) = tau P(q), so the period's end is an interior breakpoint.
    Raises ConstructError when that piece leaves the float range."""
    with np.errstate(over="ignore"):
        end, values = tau * sys.breakpoints[1], tau * sys.values[0]
    if not np.isfinite([end, *values]).all():
        raise ConstructError(f"window: the piece after q = {sys.q_hi:g} leaves the float range")
    return replace(
        sys, q_hi=float(end), breakpoints=np.append(sys.breakpoints, end),
        values=np.vstack([sys.values, values]), slopes=np.vstack([sys.slopes, sys.slopes[:1]]),
        labels=np.vstack([sys.labels, sys.labels[:1]]))


def run_all_checks(g: RegularGraph, tol: float = 1e-9, t_base: int = 0) -> CheckReport:
    """Run the full verification suite.  The table checks read period t_base
    closed by the next period's first piece; t_base only places witnesses."""
    sys1 = _close_period(component_functions(g, t_base, t_base), g.schedule.tau)
    results = [
        check_system(sys1, tol),
        check_regular(g, tol),
        check_proper_direct(sys1, tol),
        check_proper_nodes(g),
        check_proper_sufficient(g.weights, g.schedule),
        check_proper_termwise(g.weights, g.schedule),
        check_proper_m1(g.weights, g.schedule),
    ]
    if g.weights.d > 1:
        results.append(check_subgraphs(g, tol))
    return CheckReport(results=tuple(results))


__all__ = [
    "PASS", "FAIL", "NOT_SUFFICIENT", "NOT_APPLICABLE",
    "CheckResult", "CheckReport",
    "check_system", "check_regular", "check_proper_direct",
    "check_proper_nodes", "check_proper_sufficient", "check_proper_termwise",
    "check_proper_m1", "check_subgraphs", "run_all_checks",
]
