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
table: P pieces between P + 1 breakpoints, with (P, n) arrays of
left-end values, slopes and slope-label codes.  Only period 0 is
extracted; since P(tau q) = tau P(q), every window is tiled from it,
and `export` streams its samples from period 0 without tiling.
The table's `pieces` attribute views the same rows as `Piece` objects,
each built only when it is read.  Residue classes are not extracted.

Both evaluation and extraction read the lines above each subinterval
from the period line table the graph carries (`RegularGraph.lines`,
built once with the graph), where each line is its slope and its
anchor (x0, y0) in period 0.  `evaluate` is the same view of period 0:
it maps q to x = q / tau^s in [1, tau), finds the subinterval by
bisection over sigma and scales that row's values back by tau^s, so a
call costs O(log k + n log n).

Window convention: a window (t_lo, t_hi) of period indices covers
abscissae [tau^t_lo, tau^(t_hi+1)].
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from math import floor, inf, isfinite, log

import numpy as np

from .construct import ConstructError, RegularGraph

CROSSING_REL_TOL = 1e-12


class NegativeAbscissa(ValueError):
    """Evaluation abscissa must be non-negative."""


class NonFiniteAbscissa(ValueError):
    """Evaluation abscissa must be a finite number."""


class EmptyWindow(ValueError):
    """Period windows need t_lo <= t_hi."""


def evaluate(g: RegularGraph, q: float) -> np.ndarray:
    """Sorted ordinates of the n graph points above abscissa q.

    Defined for finite q >= 0; at q = 0 all components vanish, and up
    to the largest float they stay finite wherever they fit one.  Not
    limited to any materialized window: as P(tau^s x) = tau^s P(x), the
    n values are row j of the graph's period line table at x = q / tau^s
    in period 0, scaled by tau^s = a * b in two halves that stay in the
    float range.  Where log q / log tau rounds across a power of tau, x
    lands outside [1, tau) and s steps by one.  An x that rounds just
    outside row j reads a neighbouring row, which agrees at the shared grid
    abscissa.  Where a period-0 anchor y0 or value of row j does not fit a
    float, row j is read in period -1 from the node heights instead, whose
    terms are at most max|slope| and so finite, and scaled by tau^(s+1).
    Costs O(log k + n log n) per call.
    """
    if not isfinite(q):
        raise NonFiniteAbscissa(f"q = {q}")
    if q < 0:
        raise NegativeAbscissa(f"q = {q}")
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
class Piece:
    """One maximal interval on which the sorted components are all linear.

    values[i] is P_{i+1} at the left end q_lo; slopes[i] its slope;
    labels[i] the symbolic slope label.  Component i on the piece is
    values[i] + slopes[i] * (q - q_lo).
    """

    q_lo: float
    q_hi: float
    values: np.ndarray
    slopes: np.ndarray
    labels: tuple[tuple[str, int], ...]

    def values_at(self, q: float) -> np.ndarray:
        return self.values + self.slopes * (q - self.q_lo)


class _PieceRows(Sequence):
    """Read-only sequence of Piece views of a system's rows; a row's Piece is
    built when it is read, so len() builds nothing."""

    def __init__(self, system: "PiecewiseLinearSystem"):
        self._system = system

    def __len__(self) -> int:
        return len(self._system.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        i = range(len(self))[i]  # negative indices, IndexError
        s = self._system
        return Piece(
            q_lo=float(s.breakpoints[i]),
            q_hi=float(s.breakpoints[i + 1]),
            values=s.values[i],
            slopes=s.slopes[i],
            labels=tuple(s.alphabet[c] for c in s.labels[i]),
        )


@dataclass(frozen=True, eq=False)
class PiecewiseLinearSystem:
    """The sorted component functions over a window, as a piece table.

    grid holds the subinterval boundaries tau^t sigma_j including the
    window terminus; breakpoints additionally contains every interior
    crossing abscissa.  Row i of the (P, n) arrays is the piece from
    breakpoints[i] to breakpoints[i+1]: values are the components at its
    left end, slopes their slopes and labels integer codes into alphabet.
    """

    n: int
    q_lo: float
    q_hi: float
    grid: np.ndarray
    breakpoints: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    labels: np.ndarray
    alphabet: tuple[tuple[str, int], ...]

    @property
    def pieces(self) -> Sequence[Piece]:
        """The rows as Piece objects, built one at a time on access."""
        return _PieceRows(self)

    def values_at(self, q) -> np.ndarray:
        """Component values at q from the piece containing it (the first or
        last piece beyond the window); an array of abscissae gives one row
        of n values per entry, equal to the scalar calls."""
        idx = np.searchsorted(self.breakpoints, q, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self.values[idx] + self.slopes[idx] * (
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
            f"window: tau^{t_lo} .. tau^{t_hi} leave the float range (tau={tau:g})")


def _tau_powers(tau: float, t_lo: int, t_hi: int) -> np.ndarray:
    """tau^t for t = t_lo .. t_hi, after _check_window."""
    _check_window(tau, t_lo, t_hi)
    return np.array([tau**t for t in range(t_lo, t_hi + 1)])


def _intercepts(lines) -> np.ndarray:
    """The (k, n) intercepts y0 - slope * x0 of the period-0 lines.  Raises
    ConstructError unless the intercepts of each row and any two's difference
    are finite floats: the float range of period 0, for check and export alike.
    The largest difference of a row is its max minus its min, as rounding is
    monotone."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = lines.y0 - lines.slope * lines.x0
        spread = c.max(axis=1) - c.min(axis=1)
    if not np.isfinite(spread).all():
        raise ConstructError("window: line intercepts in period 0 leave the float range")
    return c


def _window(g: RegularGraph, t_lo: int, t_hi: int):
    """The window's powers tau^t_lo .. tau^(t_hi+1) and period 0 of the sorted
    components as (power, breakpoints, values, slopes, codes): P0 left
    breakpoints in [1, tau) and (P0, n) left-end values, slopes and
    slope-label codes, from which every period t is the tau^t tile.

    Within each grid subinterval the active lines are intersected pairwise;
    every interior crossing becomes a breakpoint, and on each resulting piece
    the lines are ranked by their value at the piece midpoint.  Ranking by
    midpoint value realizes the continuous assignment through each crossing
    (immediately left of a crossing the steeper line ranks lower, immediately
    right the shallower one).  Lines that coincide over a whole piece are kept
    as distinct components in a stable order given by segment identity.

    Raises ConstructError when a power of tau bounding the window is not a
    finite normal float, or a line intercept of period 0 or a tiled value or
    breakpoint is not a finite float.  Only the last tile is tested: rounding
    is monotone and tau^t grows with t, so it holds the largest of each.
    """
    if t_lo > t_hi:
        raise EmptyWindow(f"t_lo={t_lo} exceeds t_hi={t_hi}")
    w, lines = g.weights, g.lines
    tau, n = g.schedule.tau, w.n
    power = _tau_powers(tau, t_lo, t_hi + 1)
    x0, y0, slope = lines.x0, lines.y0, lines.slope
    code = lines.label.astype(np.min_scalar_type(-n))
    sig = np.asarray(g.schedule.sigmas)
    ia, ib = np.triu_indices(n, 1)
    c = _intercepts(lines)
    ds = slope[:, ia] - slope[:, ib]
    hi = np.append(sig[1:], tau)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
        last_fits = np.isfinite(power[-2] * p_lo).all() and np.isfinite(power[-2] * values).all()
    if not last_fits:
        raise ConstructError(
            f"window: component values over tau^{t_lo} .. tau^{t_hi + 1} leave the float range")
    return power, p_lo, values, slopes, code[line]


def component_functions(g: RegularGraph, t_lo: int, t_hi: int) -> PiecewiseLinearSystem:
    """Extract P_1 <= ... <= P_n over the window as a piece table.

    Period 0 is extracted (see _window); period t is its tau^t tile:
    grid, breakpoints and values scaled, slopes and labels repeated.

    Raises ConstructError when a power of tau bounding the window is not
    a finite normal float, or a line intercept of period 0 or a tiled
    value or breakpoint is not a finite float.
    """
    power, p_lo, values, slopes, codes = _window(g, t_lo, t_hi)
    scale, q_hi = power[:-1], power[-1]
    grid = np.append(np.multiply.outer(scale, g.schedule.sigmas), q_hi)
    breakpoints = np.append(np.multiply.outer(scale, p_lo), q_hi)
    values = np.multiply.outer(scale, values).reshape(-1, g.weights.n)
    slopes = np.tile(slopes, (len(scale), 1))
    labels = np.tile(codes, (len(scale), 1))
    for a in (grid, breakpoints, values, slopes, labels):
        a.flags.writeable = False

    return PiecewiseLinearSystem(
        n=g.weights.n,
        q_lo=float(grid[0]),
        q_hi=float(grid[-1]),
        grid=grid,
        breakpoints=breakpoints,
        values=values,
        slopes=slopes,
        labels=labels,
        alphabet=g.weights.slope_labels,
    )


__all__ = [
    "NegativeAbscissa",
    "NonFiniteAbscissa",
    "EmptyWindow",
    "evaluate",
    "Piece",
    "PiecewiseLinearSystem",
    "component_functions",
]
