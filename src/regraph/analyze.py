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

run_all_checks extracts no piece table.  It reads system and
proper-direct off the graph's line table at the k grid abscissae of one
period closed by the next period's first subinterval, in O(k n log n):
between grid abscissae the active lines are fixed, and at a crossing the
order of the components changes only among lines tied there, whose gaps
are exempt.  check_system and check_proper_direct test an extracted
piece table the same way, with sortedness and continuity besides, which
are properties of the extraction.  Thresholds scale with W, the largest
|slope|, so weights times c, which give the graph times c, move no
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .construct import ConstructError, ExpansionSchedule, RegularGraph, growth_terms
from .graph import PiecewiseLinearSystem, _check_window, _intercepts
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
    return _regular(g, growth_terms(g.weights, g.schedule), tol)


def _regular(g: RegularGraph, terms, tol: float) -> CheckResult:
    """check_regular with the growth_terms arrays of g."""
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


def check_proper_direct(sys: PiecewiseLinearSystem, tol: float = 1e-9) -> CheckResult:
    """The definitional properness test on the extracted system.

    At every interior breakpoint q and every index i where the gap
    P_{i+1}(q) - P_i(q) is open (above tol * W * q, W the largest
    |slope| in the table), the slope-sum of the bottom i components
    just left of q must not exceed the one just right by more than
    tol * W.  Margin is the minimal right-minus-left slack over all
    tested (q, i).
    """
    failed = _non_finite("proper-direct", sys, tol)
    if failed is not None:
        return failed
    # row b - 1 is interior breakpoint b, where P = the right piece's left values
    csum = np.cumsum(sys.slopes, axis=1)
    return _proper_direct(csum[1:, :-1] - csum[:-1, :-1], np.diff(sys.values[1:], axis=1),
                          sys.breakpoints[1:-1], float(np.max(np.abs(sys.slopes))), tol)


def _proper_direct(slack, gap, q, w_max: float, tol: float, scale: float = 1.0) -> CheckResult:
    """The proper-direct verdict from the (B, n - 1) slacks and gaps of index
    i + 1 in column i at the B abscissae q: the least slack where the gap is
    open, failing below -tol * W; the witness abscissa is scale * q."""
    # components tied at q are exempt; a NaN gap is not tied, so it counts
    open_gap = ~(gap <= tol * w_max * q[:, None])
    if open_gap.any():
        b, i = np.unravel_index(np.argmin(np.where(open_gap, slack, np.inf)), slack.shape)
        best, witness = float(slack[b, i]), {"q": float(scale * q[b]), "i": int(i) + 1}
    else:
        best, witness = 0.0, None  # no open gaps anywhere: vacuously proper
    status = PASS if best >= -tol * w_max else FAIL
    return CheckResult("proper-direct", status, tol, best, witness)


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
    return _proper_sufficient(w, growth_terms(w, schedule))


def _proper_sufficient(w: Weights, terms) -> CheckResult:
    """check_proper_sufficient with the growth_terms arrays."""
    if w.pair_sum_min <= 0:
        return CheckResult("proper-sufficient", NOT_APPLICABLE, 0.0, 0.0, None,
                           note="some pair sum alpha_i + beta_j is zero")
    rhs = w.pair_sum_max / w.pair_sum_min
    pl, pm, pn, _, _ = terms
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
    return _proper_termwise(growth_terms(w, schedule))


def _proper_termwise(terms) -> CheckResult:
    """check_proper_termwise with the growth_terms arrays."""
    _, _, _, U, V = terms
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

    The class drifts gamma_f must cancel to tol * W, W the largest
    |slope|, and above every subinterval j of the line table the lines of
    class f (r = f mod d) must sum to gamma_f * x at both ends x.  A
    residual fails above tol * W * x, with margin residual / (W x); a
    non-finite term fails.
    """
    w, lines, tau = g.weights, g.lines, g.schedule.tau
    if w.d == 1:
        return CheckResult("subgraphs", NOT_APPLICABLE, tol, 0.0, None,
                           note="group sizes are coprime; single class")
    w_max = float(np.max(np.abs(lines.slope)))
    gamma = np.array([w.class_gamma(f) for f in range(w.d)])
    gamma_sum = float(sum(gamma))
    if abs(gamma_sum) > tol * w_max:
        return CheckResult("subgraphs", FAIL, tol, gamma_sum / w_max, None,
                           note="class drifts do not cancel")
    sig = np.asarray(g.schedule.sigmas)
    x = np.stack([sig, np.append(sig[1:], tau)])[:, None, :]  # (end, 1, j)
    in_class = lines.r % w.d == np.arange(w.d)[:, None, None]  # (f, j, line)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(in_class, lines.y0 + lines.slope * (x[..., None] - lines.x0), 0.0)
        resid = np.abs(terms.sum(axis=-1) - gamma[:, None] * x)
    rel = _rel(resid, x, w_max)
    rel[~np.isfinite(terms).all(axis=-1)] = np.inf
    return _worst_residual("subgraphs", rel, tol, lambda _, f, j: {"f": f, "j": j},
                           ("class lines off the class drift", "non-finite class line value"))


def _grid(g: RegularGraph, t_base: int) -> tuple[np.ndarray, np.ndarray]:
    """Row j of the line table at both ends of its subinterval, sigma_j and
    sigma_{j+1} (sigma_k = tau): (2, k) abscissae and (2, k, n) values, read in
    period 0, as P(tau q) = tau P(q).

    Raises ConstructError unless tau^t_base .. tau^(t_base+1) are normal
    floats, the line intercepts fit as for export (graph._intercepts), and
    the abscissae and values of this grid fit in period t_base closed by the
    next period's first subinterval, row 0 times tau.
    """
    lines, tau = g.lines, g.schedule.tau
    _check_window(tau, t_base, t_base + 1)
    _intercepts(lines)
    sig = np.asarray(g.schedule.sigmas)
    x = np.stack([sig, np.append(sig[1:], tau)])
    scale = tau**t_base
    with np.errstate(over="ignore", invalid="ignore"):
        ends = lines.y0 + lines.slope * (x[..., None] - lines.x0)
        closing = tau * np.append(x[:, 0], ends[:, 0])
        fits = np.isfinite(scale * ends).all() and np.isfinite(scale * closing).all()
    if not fits:
        raise ConstructError(f"window: period {t_base} closed by the next period's "
                             "first subinterval leaves the float range")
    return x, ends


def _grid_slack(g: RegularGraph, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n - 1) slacks and gaps of proper-direct at the grid abscissae
    sigma_1 .. sigma_{k-1}, tau of _grid's ends, index i + 1 in column i.

    Just left of sigma_j is row j - 1, ordered by (value, -slope); just right
    is row j, ordered by (value, slope); at tau it is row 0 times tau.  The
    gaps are those just right.  Between grid abscissae the active lines are
    fixed, and at a crossing the order changes only within lines tied there,
    whose gaps are closed, so these are all the slacks that can fail.
    """
    k, slope = g.weights.k, g.lines.slope
    after = np.append(np.arange(1, k), 0)  # row j + 1, row 0 after row k - 1
    right = ends[0][after]
    right[-1] *= g.schedule.tau
    vals = np.concatenate([ends[1], right])
    slopes = np.concatenate([slope, slope[after]])
    order = np.lexsort((np.concatenate([-slope, slopes[k:]]), vals))
    csum = np.cumsum(np.take_along_axis(slopes, order, axis=1), axis=1)
    gap = np.diff(np.take_along_axis(right, order[k:], axis=1), axis=1)
    return csum[k:, :-1] - csum[:k, :-1], gap


def _grid_system(g: RegularGraph, x: np.ndarray, ends: np.ndarray, scale: float,
                 w_max: float, tol: float) -> CheckResult:
    """check_system on the line table: each row's labels are a permutation of
    the alphabet, its lines sum to 0 * x at both ends x of its subinterval
    (failing above tol * W * x, margin the largest residual / (W x)), and row
    0 at x = 1 is consistent with vanishing at 0, |P_i(1)| <= W (1 + tol).
    Witness abscissae are scale * x."""
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
    """Run the full verification suite.  system and proper-direct read the line
    table at the grid abscissae of period t_base, closed by the next period's
    first subinterval (see _grid); t_base only places witnesses and sets the
    float range.  No piece table is extracted."""
    x, ends = _grid(g, t_base)
    scale, w_max = g.schedule.tau**t_base, float(np.max(np.abs(g.lines.slope)))
    w = g.weights
    terms = growth_terms(w, g.schedule)
    results = [
        _grid_system(g, x, ends, scale, w_max, tol),
        _regular(g, terms, tol),
        _proper_direct(*_grid_slack(g, ends), x[1], w_max, tol, scale),
        check_proper_nodes(g),
        _proper_sufficient(w, terms),
        _proper_termwise(terms),
        check_proper_m1(w, g.schedule),
    ]
    if w.d > 1:
        results.append(check_subgraphs(g, tol))
    return CheckReport(results=tuple(results))


__all__ = [
    "PASS", "FAIL", "NOT_SUFFICIENT", "NOT_APPLICABLE",
    "CheckResult", "CheckReport",
    "check_system", "check_regular", "check_proper_direct",
    "check_proper_nodes", "check_proper_sufficient", "check_proper_termwise",
    "check_proper_m1", "check_subgraphs", "run_all_checks",
]
