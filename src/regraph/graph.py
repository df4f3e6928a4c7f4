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
sorted system as explicit piece data.

Window convention: a window (t_lo, t_hi) of period indices covers
abscissae [tau^t_lo, tau^(t_hi+1)].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
    requested window when the segment protrudes; the clipped_* flags
    record which ends were cut.
    """

    kind: str
    r: int
    t: int
    start: tuple[float, float]
    end: tuple[float, float]
    slope: float  # signed weight value, exact at label level
    label: tuple[str, int]
    clipped_start: bool = False
    clipped_end: bool = False

    @property
    def geometric_slope(self) -> float:
        return (self.end[1] - self.start[1]) / (self.end[0] - self.start[0])


def _clip(x0, y0, x1, y1, lo, hi):
    """Clip the chord from (x0,y0) to (x1,y1) to lo <= x <= hi."""
    cs = ce = False
    if x0 < lo:
        y0 = y0 + (y1 - y0) * (lo - x0) / (x1 - x0)
        x0, cs = lo, True
    if x1 > hi:
        y1 = y0 + (y1 - y0) * (hi - x0) / (x1 - x0)
        x1, ce = hi, True
    return x0, y0, x1, y1, cs, ce


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
                cx0, cy0, cx1, cy1, cs, ce = _clip(x0, y0, x1, y1, w_lo, w_hi)
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
                        clipped_end=ce,
                    )
                )
    return out


@dataclass(frozen=True)
class _Line:
    """A segment's supporting line, for evaluation above one subinterval."""

    kind: str
    r: int
    t: int
    x0: float
    y0: float
    slope: float
    label: tuple[str, int]

    def value_at(self, q: float) -> float:
        return self.y0 + self.slope * (q - self.x0)

    @property
    def identity(self) -> tuple[str, int, int]:
        return (self.kind, self.r, self.t)


def _active_lines(g: RegularGraph, t: int, j: int) -> list[_Line]:
    """The n lines above grid subinterval j of period t.

    The rising lines are the l segments based at indices j, j-1, ...,
    j-l+1 (wrapping into period t-1 below zero); falling lines
    analogously with m.  Exactly one line per slope label.
    """
    w = g.weights
    lines: list[_Line] = []
    for c in range(w.l):
        r0 = j - c
        tt, r = (t, r0) if r0 >= 0 else (t - 1, r0 + w.k)
        x0, y0 = lower_node(g, r, tt)
        lines.append(_Line("A", r, tt, x0, y0, w.alpha_at(r + 1), ("A", (r % w.l) + 1)))
    for c in range(w.m):
        r0 = j - c
        tt, r = (t, r0) if r0 >= 0 else (t - 1, r0 + w.k)
        x0, y0 = upper_node(g, r, tt)
        lines.append(_Line("B", r, tt, x0, y0, -w.beta_at(r + 1), ("B", (r % w.m) + 1)))
    return lines


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
    j = k - 1
    while j > 0 and sig[j] > x:
        j -= 1
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
    limited to any materialized window — the supporting lines are
    reconstructed from the closed-form node data at whatever period q
    falls in.
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
    vals = np.array([ln.value_at(x) for ln in _active_lines(g, t, j)])
    vals.sort()
    return vals if a == b == 1.0 else vals * a * b


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


@dataclass(frozen=True, eq=False)
class PiecewiseLinearSystem:
    """The sorted component functions over a window, as explicit pieces.

    grid holds the subinterval boundaries tau^t sigma_j including the
    window terminus; breakpoints additionally contains every interior
    crossing abscissa.  pieces[i] spans breakpoints[i] ..
    breakpoints[i+1].  gamma is the expected slope-sum on every piece
    (zero for the full graph, the class drift for a residue subgraph).
    """

    n: int
    t_lo: int
    t_hi: int
    q_lo: float
    q_hi: float
    grid: np.ndarray
    breakpoints: np.ndarray
    pieces: tuple[Piece, ...]
    gamma: float
    alphabet: tuple[tuple[str, int], ...]
    subgraph: int | None = None

    def values_at(self, q) -> np.ndarray:
        """Component values at q from the piece containing it (the first or
        last piece beyond the window); an array of abscissae gives one row
        of n values per entry, equal to the scalar calls."""
        idx = np.searchsorted(self.breakpoints, q, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        if np.ndim(idx) == 0:
            return self.pieces[idx].values_at(q)
        values = np.array([p.values for p in self.pieces])[idx]
        slopes = np.array([p.slopes for p in self.pieces])[idx]
        return values + slopes * (np.asarray(q) - self.breakpoints[idx])[..., None]


def _crossings(lines: list[_Line], q_lo: float, q_hi: float) -> list[float]:
    """Interior abscissae where two of the lines meet, deduplicated."""
    found: list[float] = []
    for a, b in combinations(lines, 2):
        ds = a.slope - b.slope
        if ds == 0.0:
            continue
        qx = ((b.y0 - b.slope * b.x0) - (a.y0 - a.slope * a.x0)) / ds
        tol = CROSSING_REL_TOL * abs(qx)
        if q_lo + tol < qx < q_hi - tol:
            found.append(qx)
    found.sort()
    out: list[float] = []
    for qx in found:
        if not out or qx - out[-1] > CROSSING_REL_TOL * qx:
            out.append(qx)
    return out


def component_functions(
    g: RegularGraph, t_lo: int, t_hi: int, subgraph: int | None = None
) -> PiecewiseLinearSystem:
    """Extract P_1 <= ... <= P_n over the window as explicit piece data.

    Within each grid subinterval the active lines are intersected
    pairwise; every interior crossing becomes a breakpoint, and on each
    resulting piece the lines are ranked by their value at the piece
    midpoint.  Ranking by midpoint value realizes the continuous
    assignment through each crossing (immediately left of a crossing
    the steeper line ranks lower, immediately right the shallower
    one).  Lines that coincide over a whole piece are kept as distinct
    components in a stable order given by segment identity.

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

    grid: list[float] = []
    cells: list[tuple[int, int]] = []
    for t in range(t_lo, t_hi + 1):
        for j in range(w.k):
            grid.append(tau**t * g.schedule.sigmas[j])
            cells.append((t, j))
    grid.append(tau ** (t_hi + 1))

    breakpoints: list[float] = [grid[0]]
    pieces: list[Piece] = []
    for idx, (t, j) in enumerate(cells):
        cell_lo, cell_hi = grid[idx], grid[idx + 1]
        lines = _active_lines(g, t, j)
        if subgraph is not None:
            lines = [ln for ln in lines if ln.r % w.d == subgraph]
        bounds = [cell_lo, *_crossings(lines, cell_lo, cell_hi), cell_hi]
        for p_lo, p_hi in zip(bounds[:-1], bounds[1:]):
            mid = 0.5 * (p_lo + p_hi)
            order = sorted(lines, key=lambda ln: (ln.value_at(mid), ln.identity))
            pieces.append(
                Piece(
                    q_lo=p_lo,
                    q_hi=p_hi,
                    values=np.array([ln.value_at(p_lo) for ln in order]),
                    slopes=np.array([ln.slope for ln in order]),
                    labels=tuple(ln.label for ln in order),
                )
            )
            breakpoints.append(p_hi)

    return PiecewiseLinearSystem(
        n=n,
        t_lo=t_lo,
        t_hi=t_hi,
        q_lo=grid[0],
        q_hi=grid[-1],
        grid=np.array(grid),
        breakpoints=np.array(breakpoints),
        pieces=tuple(pieces),
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
