"""Geometric realization: segments, pointwise evaluation, sorted components.

The solved node heights define two families of points in the plane,
lower points at (tau^t * sigma_r, tau^t * sigma_r * u_r) and upper
points with v_r.  Rising segments join a lower point to the upper
point l grid steps later; falling segments join an upper point to the
lower point m steps later.  Above every abscissa q > 0 exactly n
segments pass (l rising, m falling), and sorting their ordinates
yields continuous piecewise-linear component functions P_1 <= ... <=
P_n.  This module materializes segments over an integer period window,
evaluates the component values at arbitrary q, and extracts the full
sorted system as a piece table: P pieces between P + 1 breakpoints,
with (P, n) arrays of left-end values, slopes and slope-label codes.
Its `pieces` attribute views the same rows as `Piece` objects, each
built only when it is read.

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

from .construct import RegularGraph

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


def lower_node(g: RegularGraph, r: int, t: int) -> tuple[float, float]:
    """Lower node point of segment index r in period t (any integers)."""
    x = g.schedule.tau**t * g.schedule.sigma_at(r)
    return (x, x * float(g.u[r % g.weights.k]))


def upper_node(g: RegularGraph, r: int, t: int) -> tuple[float, float]:
    """Upper node point of segment index r in period t."""
    x = g.schedule.tau**t * g.schedule.sigma_at(r)
    return (x, x * float(g.v[r % g.weights.k]))


@dataclass(frozen=True)
class Segment:
    """One maximal straight piece of the graph.

    kind "A" rises with slope alpha_{r+1} from a lower node across l
    grid steps; kind "B" falls with slope -beta_{r+1} from an upper
    node across m steps.  start/end are already clipped to the
    requested window when the segment protrudes; clipped_start records
    whether the start was cut.
    """

    kind: str
    r: int
    t: int
    start: tuple[float, float]
    end: tuple[float, float]
    slope: float  # signed weight value, exact at label level
    label: tuple[str, int]
    clipped_start: bool = False

    @property
    def geometric_slope(self) -> float:
        return (self.end[1] - self.start[1]) / (self.end[0] - self.start[0])


def _clip(x0, y0, x1, y1, lo, hi):
    """Clip the chord from (x0,y0) to (x1,y1) to lo <= x <= hi; flag a cut start."""
    cs = x0 < lo
    if cs:
        y0 = y0 + (y1 - y0) * (lo - x0) / (x1 - x0)
        x0 = lo
    if x1 > hi:
        y1 = y0 + (y1 - y0) * (hi - x0) / (x1 - x0)
        x1 = hi
    return x0, y0, x1, y1, cs


def segments_in_window(g: RegularGraph, t_lo: int, t_hi: int) -> list[Segment]:
    """All segments whose abscissa extent meets [tau^t_lo, tau^(t_hi+1)].

    Each period t in [t_lo, t_hi] contributes k rising and k falling
    segments based inside it; segments based in period t_lo - 1 that
    protrude past tau^t_lo are included as well (a rising segment spans
    l grid steps and may cross the period boundary).  Protruding ends
    are clipped to the window.
    """
    if t_lo > t_hi:
        raise EmptyWindow(f"t_lo={t_lo} exceeds t_hi={t_hi}")
    w = g.weights
    w_lo = g.schedule.tau**t_lo
    w_hi = g.schedule.tau ** (t_hi + 1)
    out: list[Segment] = []
    for t in range(t_lo - 1, t_hi + 1):
        for r in range(w.k):
            for kind, span in (("A", w.l), ("B", w.m)):
                if kind == "A":
                    x0, y0 = lower_node(g, r, t)
                    x1, y1 = upper_node(g, r + span, t)
                    slope = w.alpha_at(r + 1)
                    label = ("A", (r % w.l) + 1)
                else:
                    x0, y0 = upper_node(g, r, t)
                    x1, y1 = lower_node(g, r + span, t)
                    slope = -w.beta_at(r + 1)
                    label = ("B", (r % w.m) + 1)
                # strict overlap with a relative guard: a segment whose far
                # end only touches the window boundary (exactly, up to
                # rounding of tau powers) carries no extent inside it
                if not (x1 > w_lo * (1.0 + 1e-12) and x0 < w_hi * (1.0 - 1e-12)):
                    continue
                cx0, cy0, cx1, cy1, cs = _clip(x0, y0, x1, y1, w_lo, w_hi)
                out.append(
                    Segment(
                        kind=kind,
                        r=r,
                        t=t,
                        start=(cx0, cy0),
                        end=(cx1, cy1),
                        slope=slope,
                        label=label,
                        clipped_start=cs,
                    )
                )
    return out


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
    gamma is the expected slope-sum on every piece (zero for the full
    graph, the class drift for a residue subgraph).
    """

    n: int
    t_lo: int
    t_hi: int
    q_lo: float
    q_hi: float
    grid: np.ndarray
    breakpoints: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    labels: np.ndarray
    gamma: float
    alphabet: tuple[tuple[str, int], ...]
    subgraph: int | None = None

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


def _line_table(g: RegularGraph, subgraph: int | None, alphabet) -> tuple[np.ndarray, ...]:
    """The columns of g.lines used by the extraction, row j per subinterval.

    Keeps the lines in the residue class, in identity order (kind, r):
    sigma_r, whether the line is based in the period before, slope, node
    height and label code into alphabet.
    """
    w, lines = g.weights, g.lines
    key = lines.falls * w.k + lines.r
    if subgraph is not None:
        key = np.where(lines.r % w.d == subgraph, key, 2 * w.k)
    cols = np.argsort(key, axis=1)[:, : len(alphabet)]
    code_of = {lab: c for c, lab in enumerate(alphabet)}
    code = np.array([code_of.get(lab, -1) for lab in w.slope_labels])[lines.label].astype(
        np.min_scalar_type(-len(alphabet)))
    return tuple(np.take_along_axis(a, cols, 1)
                 for a in (lines.sigma, lines.wrapped, lines.slope, lines.height, code))


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


def component_functions(
    g: RegularGraph, t_lo: int, t_hi: int, subgraph: int | None = None
) -> PiecewiseLinearSystem:
    """Extract P_1 <= ... <= P_n over the window as a piece table.

    Within each grid subinterval the active lines are intersected
    pairwise; every interior crossing becomes a breakpoint, and on each
    resulting piece the lines are ranked by their value at the piece
    midpoint.  Ranking by midpoint value realizes the continuous
    assignment through each crossing (immediately left of a crossing
    the steeper line ranks lower, immediately right the shallower
    one).  Lines that coincide over a whole piece are kept as distinct
    components in a stable order given by segment identity.  All k
    subintervals of a period are handled together as arrays.

    With subgraph=f only the lines of residue class f are used; the
    result then has n/d components whose slope sum is gamma_f instead
    of zero.
    """
    if t_lo > t_hi:
        raise EmptyWindow(f"t_lo={t_lo} exceeds t_hi={t_hi}")
    w = g.weights
    tau = g.schedule.tau
    if subgraph is not None:
        subgraph %= w.d
        n = w.n_prime
        gamma = w.class_gamma(subgraph)
        alphabet = w.class_labels(subgraph)
    else:
        n = w.n
        gamma = 0.0
        alphabet = w.slope_labels
    sig_r, wrapped, slope, height, code = _line_table(g, subgraph, alphabet)
    sig = np.asarray(g.schedule.sigmas)
    ia, ib = np.triu_indices(n, 1)
    ds = slope[:, ia] - slope[:, ib]
    ends = np.ones((w.k, 1), dtype=bool)

    grid, periods = [], []
    for t in range(t_lo, t_hi + 1):
        lo = tau**t * sig
        hi = np.append(lo[1:], tau ** (t + 1))
        x0 = np.where(wrapped, tau ** (t - 1), tau**t) * sig_r
        y0 = x0 * height
        c = y0 - slope * x0
        with np.errstate(divide="ignore", invalid="ignore"):
            qx = (c[:, ib] - c[:, ia]) / ds
            tol = CROSSING_REL_TOL * np.abs(qx)
            inside = (ds != 0.0) & (lo[:, None] + tol < qx) & (qx < hi[:, None] - tol)
        count = inside.sum(axis=1)
        qx = np.sort(np.where(inside, qx, np.inf), axis=1)[:, : count.max()]
        keep = _dedupe_crossings(qx, count)
        p_lo = np.concatenate([lo[:, None], qx], axis=1)[np.concatenate([ends, keep], axis=1)]
        p_hi = np.concatenate([qx, hi[:, None]], axis=1)[np.concatenate([keep, ends], axis=1)]
        cell = np.repeat(np.arange(w.k), 1 + keep.sum(axis=1))
        grid.append(lo)
        periods.append((x0, y0, p_lo, p_hi, cell))
    grid.append([tau ** (t_hi + 1)])
    grid = np.concatenate(grid)
    breakpoints = np.concatenate([grid[:1], *(p_hi for *_, p_hi, _ in periods)])

    # rank each piece's lines, filling the table one period at a time
    values = np.empty((len(breakpoints) - 1, n))
    slopes = np.empty_like(values)
    labels = np.empty(values.shape, dtype=code.dtype)
    start = 0
    for x0, y0, p_lo, p_hi, cell in periods:
        rows = slice(start, start + len(cell))
        start = rows.stop
        mid = 0.5 * (p_lo + p_hi)[:, None]
        order = np.argsort(y0[cell] + slope[cell] * (mid - x0[cell]), axis=1, kind="stable")
        line = (cell[:, None], order)
        slopes[rows] = slope[line]
        values[rows] = y0[line] + slopes[rows] * (p_lo[:, None] - x0[line])
        labels[rows] = code[line]
    for a in (grid, breakpoints, values, slopes, labels):
        a.flags.writeable = False

    return PiecewiseLinearSystem(
        n=n,
        t_lo=t_lo,
        t_hi=t_hi,
        q_lo=float(grid[0]),
        q_hi=float(grid[-1]),
        grid=grid,
        breakpoints=breakpoints,
        values=values,
        slopes=slopes,
        labels=labels,
        gamma=gamma,
        alphabet=alphabet,
        subgraph=subgraph,
    )


__all__ = [
    "NegativeAbscissa",
    "NonFiniteAbscissa",
    "EmptyWindow",
    "Segment",
    "lower_node",
    "upper_node",
    "segments_in_window",
    "evaluate",
    "Piece",
    "PiecewiseLinearSystem",
    "component_functions",
]
