"""Geometric realization: pointwise evaluation and sorted components.

The solved node heights define two families of points in the plane,
lower points at (tau^t * sigma_r, tau^t * sigma_r * u_r) and upper
points with v_r.  Rising segments join a lower point to the upper
point l grid steps later; falling segments join an upper point to the
lower point m steps later.  Above every abscissa q > 0 exactly n
segments pass (l rising, m falling), and sorting their ordinates
yields continuous piecewise-linear component functions P_1 <= ... <=
P_n.  This module evaluates the component values at arbitrary q and
extracts the sorted system over an integer period window as a piece
table that stores only period 0's rows and the window's powers tau^t:
as P(tau q) = tau P(q), piece i of the window is row i mod P0 scaled
by tau^t of its period.  `values_at` and `export` read rows through
that one lookup.  Residue classes are not extracted.

Both evaluation and extraction read the lines above each subinterval
from the period line table the graph carries (`RegularGraph.lines`,
built on its first read), where each line is its slope and its
anchor (x0, y0) in period 0.  `evaluate` is the same view of period 0:
it maps q to x = q / tau^s in [1, tau), finds the subinterval by
bisection over sigma and scales that row's values back by tau^s, so a
call costs O(log k + n log n); whether the row can leave the float
range is read off the table's cached bound (`LineTable.bound`).

Window convention: a window (t_lo, t_hi) of period indices covers
abscissae [tau^t_lo, tau^(t_hi+1)].
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from math import floor, inf, isfinite, log

import numpy as np

from .construct import ConstructError, RegularGraph
from .weights import _int_text

CROSSING_REL_TOL = 1e-12
#: evaluate skips its float-range guard below this bound of a row's values,
#: half the largest float so that rounding cannot reach it
_HALF_MAX = sys.float_info.max / 2


def evaluate(g: RegularGraph, q: float) -> np.ndarray:
    """Sorted ordinates of the n graph points above abscissa q.

    Defined for finite q >= 0, ValueError otherwise; at q = 0 all components
    vanish, and up to the largest float they stay finite wherever they fit
    one.  Not limited to any materialized window: as P(tau^s x) = tau^s P(x),
    the n values are row j of the graph's period line table at x = q / tau^s
    in period 0, scaled by tau^s = a * b in two halves that stay in the
    float range.  Where log q / log tau rounds across a power of tau, x
    lands outside [1, tau) and s steps by one.  An x that rounds just
    outside row j reads a neighbouring row, which agrees at the shared grid
    abscissa.  Where a period-0 anchor y0 or value of row j does not fit a
    float, row j is read in period -1 from the node heights instead, whose
    terms are at most max|slope| and so finite, and scaled by tau^(s+1).
    Costs O(log k + n log n) per call, after one O(k n) reduction on the
    table's first call: its bound B (the largest |node height| plus the
    largest |slope|) bounds every period-0 value by tau * B, so a call with
    tau * B * (tau^s + 1) below half the largest float forms the row with
    no float-range guard.  Only the others, graphs or q near the ends of
    the float range, test row j for overflow under np.errstate.
    """
    if not isfinite(q) or q < 0:
        raise ValueError(f"q = {q}")
    if q == 0:
        return np.zeros(g.weights.n)
    tau = g.schedule.tau
    s = floor(log(q) / log(tau))
    a, b = tau ** (s // 2), tau ** (s - s // 2)
    x = q / a / b
    if not 1 <= x < tau:  # log q / log tau rounded across a power of tau
        s += 1 if x >= tau else -1
        a, b = tau ** (s // 2), tau ** (s - s // 2)
        x = q / a / b
    j = max(bisect_right(g.schedule.sigmas, x) - 1, 0)
    lines = g.lines
    if lines.bound * tau * (a * b + 1.0) < _HALF_MAX:
        # a * b + 1 > max(a * b, 1): row j fits a float before and after scaling
        vals = x - lines.x0[j]
        vals *= lines.slope[j]
        vals += lines.y0[j]  # y0 + slope * (x - x0) bit for bit: IEEE + and * commute
        vals.sort()
        vals *= a
        vals *= b
        return vals
    with np.errstate(over="ignore", invalid="ignore"):  # a component beyond the float range is +-inf
        vals = lines.y0[j] + lines.slope[j] * (x - lines.x0[j])
        vals.sort()
        if not (-inf < vals[0] and vals[-1] < inf):
            # a period-0 anchor or value overflowed: read row j one period lower,
            # where each term is below max|slope|, and scale back by tau^(s+1)
            r = lines.r[j]
            height = np.where(np.arange(g.weights.n) < g.weights.l, g.u[r], g.v[r])
            x0 = lines.x0[j] / tau
            vals = x0 * height + lines.slope[j] * ((x - lines.x0[j]) / tau)
            vals.sort()
            s += 1
            a, b = tau ** (s // 2), tau ** (s - s // 2)
        vals *= a
        vals *= b
    return vals


@dataclass(frozen=True, eq=False)
class PiecewiseLinearSystem:
    """The sorted component functions over a window, as a view of period 0.

    breakpoints holds the subinterval boundaries tau^t sigma_j, every
    interior crossing abscissa and the window terminus; q_lo and q_hi read
    its first and last entries.  Row p of the (P0, n) arrays is piece p of
    period 0, [1, tau): values0 are the components at its left end, slopes0
    their slopes and labels0 integer codes into alphabet.  power holds
    tau^t for each period t of the window, and piece i of the window, from
    breakpoints[i] to breakpoints[i+1], is row i mod P0 with its values
    scaled by power[i // P0], as P(tau q) = tau P(q).
    """

    breakpoints: np.ndarray
    values0: np.ndarray
    slopes0: np.ndarray
    labels0: np.ndarray
    power: np.ndarray
    alphabet: tuple[tuple[str, int], ...]
    n = property(lambda self: self.values0.shape[1])
    q_lo = property(lambda self: float(self.breakpoints[0]))
    q_hi = property(lambda self: float(self.breakpoints[-1]))

    @property
    def pieces(self) -> range:
        """The window's piece indices, kept for bench/workloads.py, which reads
        len(pieces), until the benchmark's next change drops it."""
        return range(len(self.breakpoints) - 1)

    def _row(self, i):
        """The scale power[i // P0] and period-0 row i mod P0 of piece i (or
        of each entry of an index array)."""
        t, p = np.divmod(i, len(self.values0))
        return self.power[t], p

    def values_at(self, q) -> np.ndarray:
        """Component values at q from the piece containing it (the first or
        last piece beyond the window); an array of abscissae gives one row
        of n values per entry, equal to the scalar calls."""
        idx = np.searchsorted(self.breakpoints, q, side="right") - 1
        idx = np.clip(idx, 0, len(self.breakpoints) - 2)
        scale, p = self._row(idx)
        return scale[..., None] * self.values0[p] + self.slopes0[p] * (
            np.asarray(q) - self.breakpoints[idx])[..., None]


def _dedupe_crossings(qx: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Which of each row's sorted crossings qx[:, :count] are kept.

    A crossing is dropped when it lies within CROSSING_REL_TOL * qx of
    the last kept one.  The walk goes one column at a time over all rows.
    """
    keep = np.zeros(qx.shape, dtype=bool)
    last = np.full(len(qx), -np.inf)
    with np.errstate(invalid="ignore"):
        for i, q in enumerate(qx.T):
            keep[:, i] = (i < count) & (q - last > CROSSING_REL_TOL * q)
            last = np.where(keep[:, i], q, last)
    return keep


def _check_window(tau: float, t_lo: int, t_hi: int) -> None:
    """ConstructError unless tau^t_lo is at least the smallest normal float and
    tau^t_hi is finite: the float range of a window's abscissae."""
    try:
        in_range = tau**t_lo >= sys.float_info.min and isfinite(tau**t_hi)
    except OverflowError:
        in_range = False
    if not in_range:
        raise ConstructError(
            f"window: tau^{_int_text(t_lo)} .. tau^{_int_text(t_hi)} leave the float range"
            f" (tau={tau:g})")


def _window_ends(g: RegularGraph, t_lo: int,
                 t_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row j of the line table at both ends of its subinterval, sigma_j and
    sigma_{j+1} (sigma_k = tau): (2, k) abscissae and (2, k, n) values in
    period 0, as P(tau q) = tau P(q), and the window's powers tau^t_lo ..
    tau^(t_hi+1).

    The one float-range rule for a window's values, shared by check, export
    and plot.  Raises ConstructError unless t_lo <= t_hi, tau^t_lo ..
    tau^(t_hi+1) are normal floats (_check_window), the period-0 line
    intercepts y0 - slope * x0 of each row and any two's difference are
    finite (the largest difference is max minus min, as rounding is
    monotone), and tau^t_hi times the largest |value| here is finite.  Every
    line is linear on its subinterval, so its largest |value| lies at an end,
    and tau^t grows with t, so this bounds every component value of the
    window; its closing point tau^(t_hi+1) is row k - 1's right end.
    """
    if t_lo > t_hi:
        raise ConstructError(
            f"window: t_lo={_int_text(t_lo)} exceeds t_hi={_int_text(t_hi)}")
    tau, lines = g.schedule.tau, g.lines
    _check_window(tau, t_lo, t_hi + 1)
    power = np.array([tau**t for t in range(t_lo, t_hi + 2)])
    sig = np.asarray(g.schedule.sigmas)
    x = np.stack([sig, np.append(sig[1:], tau)])
    with np.errstate(over="ignore", invalid="ignore"):
        c = lines.y0 - lines.slope * lines.x0
        if not np.isfinite(c.max(axis=1) - c.min(axis=1)).all():
            raise ConstructError("window: line intercepts in period 0 leave the float range")
        ends = lines.y0 + lines.slope * (x[..., None] - lines.x0)
        fits = np.isfinite(power[-2] * np.max(np.abs(ends)))
    if not fits:
        raise ConstructError(f"window: component values over tau^{_int_text(t_lo)} .."
                             f" tau^{_int_text(t_hi + 1)} leave the float range")
    return x, ends, power


def component_functions(g: RegularGraph, t_lo: int, t_hi: int) -> PiecewiseLinearSystem:
    """Extract P_1 <= ... <= P_n over the window as a view of period 0, the
    one period extracted (see PiecewiseLinearSystem).

    Within each grid subinterval the active lines are intersected pairwise;
    every interior crossing becomes a breakpoint, and on each resulting piece
    the lines are ranked by their value at the piece midpoint.  Ranking by
    midpoint value realizes the continuous assignment through each crossing
    (immediately left of a crossing the steeper line ranks lower, immediately
    right the shallower one).  Lines that coincide over a whole piece are kept
    as distinct components in a stable order given by segment identity.

    Raises ConstructError when t_lo exceeds t_hi or the window's values leave
    the float range (_window_ends, the rule check and plot share).
    """
    (sig, hi), _, power = _window_ends(g, t_lo, t_hi)  # each subinterval's two ends
    w, lines = g.weights, g.lines
    tau, n = g.schedule.tau, w.n
    x0, y0, slope, r = lines.x0, lines.y0, lines.slope, lines.r
    # slope label, an index into w.slope_labels: rising r mod l, falling l + r mod m
    code = np.where(np.arange(n) < w.l, r % w.l, w.l + r % w.m).astype(np.min_scalar_type(-n))
    ia, ib = np.triu_indices(n, 1)
    c = y0 - slope * x0
    ds = slope[:, ia] - slope[:, ib]
    # a crossing beyond the float range (inf) lies in no subinterval
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        qx = (c[:, ib] - c[:, ia]) / ds
        tol = CROSSING_REL_TOL * np.abs(qx)
        inside = (ds != 0.0) & (sig[:, None] + tol < qx) & (qx < hi[:, None] - tol)
    count = inside.sum(axis=1)
    qx = np.sort(np.where(inside, qx, np.inf), axis=1)[:, : count.max()]
    keep = _dedupe_crossings(qx, count)
    p_lo = np.column_stack([sig, qx])[np.column_stack([np.ones(w.k, dtype=bool), keep])]
    cell = np.repeat(np.arange(w.k), 1 + keep.sum(axis=1))
    mid = 0.5 * (p_lo + np.append(p_lo[1:], tau))[:, None]
    order = np.argsort(y0[cell] + slope[cell] * (mid - x0[cell]), axis=1, kind="stable")
    line = (cell[:, None], order)
    slopes = slope[line]
    values = y0[line] + slopes * (p_lo[:, None] - x0[line])
    scale = power[:-1]
    breakpoints = np.append(np.multiply.outer(scale, p_lo), power[-1])
    labels = code[line]
    for a in (breakpoints, values, slopes, labels, scale):
        a.flags.writeable = False
    return PiecewiseLinearSystem(breakpoints=breakpoints, values0=values, slopes0=slopes,
                                 labels0=labels, power=scale, alphabet=w.slope_labels)


__all__ = [
    "evaluate",
    "PiecewiseLinearSystem",
    "component_functions",
]
