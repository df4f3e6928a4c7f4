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
extracted; since P(tau q) = tau P(q), every window is tiled from it.
The table's `pieces` attribute views the same rows as `Piece` objects,
each built only when it is read.  Residue classes are not extracted.

Both evaluation and extraction read the lines above each subinterval
from the period line table the graph carries (`RegularGraph.lines`,
built once with the graph).  `evaluate` finds the subinterval by
bisection over sigma and builds no arrays from the graph's fields, so
a call costs O(log k + n log n).

Window convention: a window (t_lo, t_hi) of period indices covers
abscissae [tau^t_lo, tau^(t_hi+1)].
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from math import floor, isfinite, log

import numpy as np

from .construct import ConstructError, RegularGraph

CROSSING_REL_TOL = 1e-12
BOUNDARY_SNAP_REL = 1e-12
# powers of tau with |log| below this are normal, finite floats
_LOG_POWER_RANGE = 700.0


class NegativeAbscissa(ValueError):
    """Evaluation abscissa must be non-negative."""


class NonFiniteAbscissa(ValueError):
    """Evaluation abscissa must be a finite number."""


class EmptyWindow(ValueError):
    """Period windows need t_lo <= t_hi."""


def _locate(g: RegularGraph, q: float) -> tuple[int, int]:
    """Period index t and subinterval index j with tau^t sigma_j <= q.

    Uses floor(log_tau q) with a relative snap guard so that abscissae
    within 1e-12 of a grid value are classified onto it (evaluation is
    continuous either way; the guard keeps piece identities stable).
    """
    tau = g.schedule.tau
    t = floor(log(q) / log(tau))
    # the log can land one off at boundaries; fix up, then snap
    while tau ** (t + 1) <= q:
        t += 1
    while tau**t > q:
        t -= 1
    if q >= tau ** (t + 1) * (1.0 - BOUNDARY_SNAP_REL):
        t += 1
    x = q / tau**t
    sig = g.schedule.sigmas
    k = g.weights.k
    # x can sit just below sigma_0 = 1 after the snap
    j = max(bisect_right(sig, x) - 1, 0)
    nxt = sig[j + 1] if j + 1 < k else tau
    if x >= nxt * (1.0 - BOUNDARY_SNAP_REL):
        j += 1
        if j == k:
            t, j = t + 1, 0
    return t, j


def evaluate(g: RegularGraph, q: float) -> np.ndarray:
    """Sorted ordinates of the n graph points above abscissa q.

    Defined for finite q >= 0; at q = 0 all components vanish, and up
    to the largest float they stay finite wherever they fit one.  Not
    limited to any materialized window: the n lines above q are row j
    of the graph's period line table, placed in whatever period q
    falls in.  Costs O(log k + n log n) per call.
    """
    if not isfinite(q):
        raise NonFiniteAbscissa(f"q = {q}")
    if q < 0:
        raise NegativeAbscissa(f"q = {q}")
    if q == 0:
        return np.zeros(g.weights.n)
    tau = g.schedule.tau
    s = floor(log(q) / log(tau))
    a = b = 1.0
    if (abs(s) + 2) * log(tau) >= _LOG_POWER_RANGE:
        # _locate's tau^(s+2) would overflow or tau^(s-2) vanish: use
        # P(q) = tau^s P(q / tau^s), with tau^s = a * b in two in-range halves
        a, b = tau ** (s // 2), tau ** (s - s // 2)
    x = q / a / b
    t, j = _locate(g, x)
    lines = g.lines
    x0 = np.where(lines.wrapped[j], tau ** (t - 1), tau**t) * lines.sigma[j]
    vals = x0 * lines.height[j] + lines.slope[j] * (x - x0)
    vals.sort()
    if a == b == 1.0:
        return vals
    with np.errstate(over="ignore"):  # a component beyond the float range is +-inf
        return vals * a * b


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


def _tau_powers(tau: float, t_lo: int, t_hi: int) -> np.ndarray:
    """tau^t for t = t_lo .. t_hi; ConstructError when one overflows a float."""
    try:
        return np.array([tau**t for t in range(t_lo, t_hi + 1)])
    except OverflowError:
        raise ConstructError(
            f"window: tau^{t_lo} .. tau^{t_hi} leave the float range (tau={tau:g})") from None


def component_functions(g: RegularGraph, t_lo: int, t_hi: int) -> PiecewiseLinearSystem:
    """Extract P_1 <= ... <= P_n over the window as a piece table.

    Period 0 is extracted: within each grid subinterval the active
    lines are intersected pairwise; every interior crossing becomes a
    breakpoint, and on each resulting piece the lines are ranked by
    their value at the piece midpoint.  Ranking by midpoint value
    realizes the continuous assignment through each crossing
    (immediately left of a crossing the steeper line ranks lower,
    immediately right the shallower one).  Lines that coincide over a
    whole piece are kept as distinct components in a stable order given
    by segment identity.  Period t is its tau^t tile: grid, breakpoints
    and values scaled, slopes and labels repeated.

    Raises ConstructError when a power of tau bounding the window, a
    line intercept of period 0, or a tiled value or breakpoint is not a
    finite float.
    """
    if t_lo > t_hi:
        raise EmptyWindow(f"t_lo={t_lo} exceeds t_hi={t_hi}")
    w, lines = g.weights, g.lines
    tau, n = g.schedule.tau, w.n
    power = _tau_powers(tau, t_lo, t_hi + 1)
    slope, height = lines.slope, lines.height
    code = lines.label.astype(np.min_scalar_type(-n))
    sig = np.asarray(g.schedule.sigmas)
    ia, ib = np.triu_indices(n, 1)
    ds = slope[:, ia] - slope[:, ib]

    # period 0
    hi = np.append(sig[1:], tau)
    x0 = np.where(lines.wrapped, tau**-1, 1.0) * lines.sigma
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y0 = x0 * height
        c = y0 - slope * x0
        dc = c[:, ib] - c[:, ia]
        qx = dc / ds
        tol = CROSSING_REL_TOL * np.abs(qx)
        inside = (ds != 0.0) & (sig[:, None] + tol < qx) & (qx < hi[:, None] - tol)
    # every line is in some pair, so this also covers the intercepts c
    if not np.isfinite(dc).all():
        raise ConstructError("window: line intercepts in period 0 leave the float range")
    count = inside.sum(axis=1)
    qx = np.sort(np.where(inside, qx, np.inf), axis=1)[:, : count.max()]
    keep = _dedupe_crossings(qx, count)
    p_lo = np.column_stack([sig, qx])[np.column_stack([np.ones(w.k, dtype=bool), keep])]
    cell = np.repeat(np.arange(w.k), 1 + keep.sum(axis=1))
    mid = 0.5 * (p_lo + np.append(p_lo[1:], tau))[:, None]
    order = np.argsort(y0[cell] + slope[cell] * (mid - x0[cell]), axis=1, kind="stable")
    line = (cell[:, None], order)
    slopes = slope[line]

    # the window: one tile of period 0 per period
    scale, q_hi = power[:-1], power[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.append(np.multiply.outer(scale, sig), q_hi)
        breakpoints = np.append(np.multiply.outer(scale, p_lo), q_hi)
        values = np.multiply.outer(scale, y0[line] + slopes * (p_lo[:, None] - x0[line]))
        values = values.reshape(-1, n)
    if not (np.isfinite(breakpoints).all() and np.isfinite(values).all()):
        raise ConstructError(
            f"window: component values over tau^{t_lo} .. tau^{t_hi + 1} leave the float range")
    slopes = np.tile(slopes, (len(scale), 1))
    labels = np.tile(code[line], (len(scale), 1))
    for a in (grid, breakpoints, values, slopes, labels):
        a.flags.writeable = False

    return PiecewiseLinearSystem(
        n=n,
        q_lo=float(grid[0]),
        q_hi=float(grid[-1]),
        grid=grid,
        breakpoints=breakpoints,
        values=values,
        slopes=slopes,
        labels=labels,
        alphabet=w.slope_labels,
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
