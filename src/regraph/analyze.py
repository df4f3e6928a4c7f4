"""Verification suite: structural validity, regularity, properness.

Each check returns a CheckResult with a status, the tolerance it used,
a numeric margin (worst slack observed; negative means violated) and a
witness locating the worst spot.  Statuses:

    pass            check holds
    fail            check violated — the graph is structurally wrong
    not-sufficient  a one-sided sufficient condition does not hold;
                    says nothing negative about the graph itself
    not-applicable  hypothesis of the check not met by this instance
    error           check could not run (e.g. window too small)

The distinction between fail and not-sufficient matters for exit
codes: the ratio test and the per-factor bound for a single falling
weight only ever certify properness, so their inequality failing must
not flag an otherwise healthy instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .construct import ExpansionSchedule, RegularGraph, growth_terms
from .graph import PiecewiseLinearSystem, component_functions
from .weights import Weights

PASS = "pass"
FAIL = "fail"
NOT_SUFFICIENT = "not-sufficient"
NOT_APPLICABLE = "not-applicable"
ERROR = "error"

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
    """Bundle of check results; ok iff nothing failed or errored."""

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


def check_system(sys: PiecewiseLinearSystem, tol: float = 1e-9) -> CheckResult:
    """Structural validity of an extracted component system.

    Verifies, piece by piece: the slope labels form exactly the
    expected alphabet (as a multiset, label-level equality); the
    components are sorted; the component sum stays on gamma * q; then
    components are continuous across breakpoints; and the first-period
    values are consistent with all components vanishing at the origin
    (|P_i(q_lo)| bounded by the largest slope times q_lo).  A failure
    reports the first violated test in that order; a pass reports the
    largest sum residual or jump.  Any non-finite entry fails.
    """
    failed = _non_finite("system", sys, tol)
    if failed is not None:
        return failed
    vals, slopes = sys.values, sys.slopes
    lo, hi = sys.breakpoints[:-1], sys.breakpoints[1:]
    scale_tol = lambda v: tol * np.maximum(1.0, np.abs(v))

    gaps = np.diff(vals, axis=1)
    qs = np.stack([lo, 0.5 * (lo + hi), hi], axis=1)  # left end, midpoint, right end
    sums = (vals[:, None, :] + slopes[:, None, :] * (qs - lo[:, None])[..., None]).sum(axis=2)
    resid = np.abs(sums - sys.gamma * qs)
    bad = np.column_stack([
        np.any(np.sort(sys.labels, axis=1) != np.arange(len(sys.alphabet)), axis=1),
        np.any(gaps < -scale_tol(lo)[:, None], axis=1),
        resid > scale_tol(sys.gamma * qs),
    ])
    if bad.any():
        p, test = divmod(int(np.argmax(bad)), bad.shape[1])
        if test == 0:
            return CheckResult("system", FAIL, tol, -1.0, {"piece": p, "q": float(lo[p])},
                               note="slope labels are not a permutation of the alphabet")
        if test == 1:
            return CheckResult("system", FAIL, tol, float(gaps[p].min()),
                               {"piece": p, "q": float(lo[p])}, note="components out of order")
        return CheckResult("system", FAIL, tol, float(resid[p, test - 2]),
                           {"q": float(qs[p, test - 2])},
                           note="component sum off the expected line")

    # row b compares the right end of piece b with the left end of piece b + 1
    jump = np.abs(vals[:-1] + slopes[:-1] * (hi[:-1] - lo[:-1])[:, None] - vals[1:])
    j, i = jump.max(axis=1), jump.argmax(axis=1) + 1
    bad = j > scale_tol(lo[1:])
    if bad.any():
        b = int(np.argmax(bad))
        return CheckResult("system", FAIL, tol, float(j[b]),
                           {"q": float(lo[b + 1]), "i": int(i[b])},
                           note="component discontinuous across breakpoint")

    w_max = float(np.max(np.abs(slopes[0])))
    # every component must vanish at 0, so |P_i(q)| <= max|slope| * q
    over = float(np.max(np.abs(vals[0]))) - w_max * sys.q_lo
    if over > scale_tol(w_max * sys.q_lo):
        return CheckResult("system", FAIL, tol, over, {"q": sys.q_lo},
                           note="first-period values inconsistent with vanishing at 0")

    # the first largest of the sum residuals (piece by piece) and then the jumps
    seen = np.concatenate([resid.ravel(), j])
    p = int(np.argmax(seen))
    if not seen[p] > 0.0:
        return CheckResult("system", PASS, tol, 0.0, None)
    if p < resid.size:
        witness = {"q": float(qs.flat[p]), "kind": "sum"}
    else:
        b = p - resid.size
        witness = {"q": float(lo[b + 1]), "kind": "jump", "i": int(i[b])}
    return CheckResult("system", PASS, tol, float(seen[p]), witness)


def check_regular(
    g: RegularGraph, sys: PiecewiseLinearSystem, tol: float = 1e-9
) -> CheckResult:
    """Scale invariance: consecutive periods match under scaling by tau.

    Needs a window of at least two periods; compares both the crossing
    pattern (breakpoints, relatively) and the component values at
    breakpoints and piece midpoints.
    """
    if sys.t_hi - sys.t_lo < 1:
        return CheckResult("regular", ERROR, tol, 0.0, None,
                           note="InsufficientWindow: need at least two periods")
    failed = _non_finite("regular", sys, tol)
    if failed is not None:
        return failed
    tau = g.schedule.tau
    bp = sys.breakpoints
    worst = 0.0
    witness = None
    for t in range(sys.t_lo, sys.t_hi):
        lo, hi = tau**t, tau ** (t + 1)
        cur = bp[(bp >= lo * (1 - 1e-12)) & (bp < hi * (1 - 1e-12))]
        nxt = bp[(bp >= hi * (1 - 1e-12)) & (bp < hi * tau * (1 - 1e-12))]
        if len(cur) != len(nxt):
            return CheckResult("regular", FAIL, tol, float(len(nxt) - len(cur)),
                               {"t": t}, note="breakpoint count differs between periods")
        rel_bp = float(np.max(np.abs(nxt / (tau * cur) - 1.0))) if len(cur) else 0.0
        if rel_bp > worst:
            worst, witness = rel_bp, {"t": t, "kind": "breakpoint"}
        if rel_bp > tol:
            return CheckResult("regular", FAIL, tol, rel_bp, {"t": t},
                               note="breakpoints do not scale by tau")
        probes = np.concatenate([cur, 0.5 * (cur[:-1] + cur[1:])])
        a, b = np.split(sys.values_at(np.concatenate([probes, probes * tau])), 2)
        a = a * tau
        rel = np.max(np.abs(b - a) / np.maximum(1.0, np.abs(a)), axis=1)
        i = int(np.argmax(rel > tol))  # the first failing probe, if any
        if rel[i] > tol:
            return CheckResult("regular", FAIL, tol, float(rel[i]), {"q": float(probes[i])},
                               note="values do not scale by tau")
        i = int(np.argmax(rel))
        if rel[i] > worst:
            worst, witness = float(rel[i]), {"q": float(probes[i]), "t": t}
    return CheckResult("regular", PASS, tol, worst, witness)


def check_proper_direct(sys: PiecewiseLinearSystem, tol: float = 1e-9) -> CheckResult:
    """The definitional properness test on the extracted system.

    At every interior breakpoint q and every index i where the gap
    P_{i+1}(q) - P_i(q) is genuinely open (beyond a relative
    threshold), the slope-sum of the bottom i components just left of
    q must not exceed the one just right.  Margin is the minimal
    right-minus-left slack over all tested (q, i).
    """
    failed = _non_finite("proper-direct", sys, tol)
    if failed is not None:
        return failed
    # row b - 1 is interior breakpoint b, where P = the right piece's left values
    vals = sys.values[1:]
    csum = np.cumsum(sys.slopes, axis=1)
    slack = csum[1:, :-1] - csum[:-1, :-1]
    gap = vals[:, 1:] - vals[:, :-1]
    # components tied at q are exempt; a NaN gap is not tied, so it counts
    open_gap = ~(gap <= tol * np.maximum(1.0, np.abs(vals[:, 1:])))
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


def check_subgraphs(
    g: RegularGraph, t_lo: int = 0, t_hi: int = 2, tol: float = 1e-9
) -> CheckResult:
    """Residue-class decomposition consistency for non-coprime sizes.

    Each class must extract to a valid component system of n/d
    functions whose slope labels are the class alphabet and whose sum
    runs along gamma_f * q; the gamma_f themselves must cancel.
    """
    w = g.weights
    if w.d == 1:
        return CheckResult("subgraphs", NOT_APPLICABLE, tol, 0.0, None,
                           note="group sizes are coprime; single class")
    gamma_sum = float(sum(sg.gamma for sg in g.subgraphs))
    if abs(gamma_sum) > 1e-12:
        return CheckResult("subgraphs", FAIL, tol, gamma_sum, None,
                           note="class drifts do not cancel")
    worst = 0.0
    witness = None
    for sg in g.subgraphs:
        sub = component_functions(g, t_lo, t_hi, subgraph=sg.f)
        inner = check_system(sub, tol)
        if inner.status != PASS:
            return CheckResult("subgraphs", FAIL, tol, inner.margin,
                               {"f": sg.f, **(inner.witness or {})}, note=inner.note)
        if inner.margin > worst:
            worst, witness = inner.margin, {"f": sg.f, **(inner.witness or {})}
    return CheckResult("subgraphs", PASS, tol, worst, witness)


def run_all_checks(g: RegularGraph, tol: float = 1e-9, t_base: int = 0) -> CheckReport:
    """Run the full verification suite over a three-period window."""
    sys3 = component_functions(g, t_base, t_base + 2)
    results = [
        check_system(sys3, tol),
        check_regular(g, sys3, tol),
        check_proper_direct(sys3, tol),
        check_proper_nodes(g),
        check_proper_sufficient(g.weights, g.schedule),
        check_proper_termwise(g.weights, g.schedule),
        check_proper_m1(g.weights, g.schedule),
    ]
    if g.weights.d > 1:
        results.append(check_subgraphs(g, t_base, t_base + 2, tol))
    return CheckReport(results=tuple(results))


__all__ = [
    "PASS", "FAIL", "NOT_SUFFICIENT", "NOT_APPLICABLE", "ERROR",
    "CheckResult", "CheckReport",
    "check_system", "check_regular", "check_proper_direct",
    "check_proper_nodes", "check_proper_sufficient", "check_proper_termwise",
    "check_proper_m1", "check_subgraphs", "run_all_checks",
]
