"""Self-contained SVG rendering of a graph window.

One drawing group per period so the scale self-similarity is visible
by comparing adjacent groups.  Rising and falling chords get distinct
classes, one `<line>` each, lower/upper node points are marked, and
one axis tick is emitted per grid breakpoint.  Chords and nodes are
drawn from arrays over the node heights u, v and the grid tau^t
sigma_r.  All styling is inline; the file references no external
assets.
"""

from __future__ import annotations

from itertools import groupby
from math import frexp, ldexp

import numpy as np

from .construct import RegularGraph
from .graph import _window_ends

_STYLE = """
  .seg { stroke-width: 2; fill: none; stroke-linecap: round; }
  .seg-A { stroke: #2b6fad; }
  .seg-B { stroke: #c24a3f; }
  .node { stroke: #222; stroke-width: 0.8; }
  .node-a { fill: #9ec7e8; }
  .node-b { fill: #eab0a5; }
  .axis { stroke: #555; stroke-width: 1; }
  .tick { stroke: #777; stroke-width: 1; }
  .ticklabel { font: 11px sans-serif; fill: #333; text-anchor: middle; }
  .frame { fill: #fdfdfd; stroke: #999; stroke-width: 1; }
"""


def _chords(g: RegularGraph, t_lo: int, power: np.ndarray,
            unit: float) -> tuple[np.ndarray, ...]:
    """The chords meeting [tau^t_lo, tau^(t_hi+1)], clipped to it, as flat arrays.

    power holds the window's powers tau^t_lo .. tau^(t_hi+1) (_window_ends).
    Node r of period t sits at x = tau^t sigma_r, y = x u_r (lower) or
    x v_r (upper).  Periods t_lo - 1 .. t_hi each base k rising chords,
    from lower node r to upper node r + l with slope alpha_(r mod l), and k
    falling ones, from upper node r to lower node r + m with slope
    -beta_(r mod m).  A chord's end outside the window is moved onto the
    window's end along its slope from its other node, which lies inside.
    Ordinates are in units of unit, a power of two.  Returns period, falls,
    x0, y0, x1, y1, ordered by period, then r, then rising before falling.
    """
    w, tau = g.weights, g.schedule.tau
    r = np.arange(w.k)
    slope = np.column_stack([np.asarray(w.alpha)[r % w.l], -np.asarray(w.beta)[r % w.m]]) * unit
    height = np.column_stack([g.u, g.v]) * unit
    lo, hi = power[0], power[-1]
    start = np.repeat(r[:, None], 2, axis=1)  # columns: rising, falling
    end = start + [w.l, w.m]
    with np.errstate(over="ignore", invalid="ignore"):
        sig = np.array(g.schedule.sigmas)
        # tau^t sigma_r for 0 <= r < 2k, one row per period; period t_lo - 1,
        # whose own power may underflow, is formed in units of tau^t_lo, as
        # LineTable forms wrapped anchors: tau^-1 sigma_r, then sigma_(r-k)
        x = np.vstack([lo * np.concatenate([tau**-1 * sig, sig]),
                       np.multiply.outer(power[:-1], np.concatenate([sig, tau * sig]))])
        x0, x1 = x[:, start], x[:, end]
        y0, y1 = x0 * height, x1 * height[end % w.k, [1, 0]]
        # strict overlap with a relative guard: a chord whose far end only
        # touches the window boundary (up to rounding of tau powers)
        # carries no extent inside it
        keep = (x1 > lo * (1.0 + 1e-12)) & (x0 < hi * (1.0 - 1e-12))
        period = np.broadcast_to((np.arange(len(x)) + t_lo - 1)[:, None, None],
                                 keep.shape)[keep]
        falls = np.broadcast_to([False, True], keep.shape)[keep]
        s = np.broadcast_to(slope, keep.shape)[keep]
        x0, y0, x1, y1 = x0[keep], y0[keep], x1[keep], y1[keep]
        cut0, cut1 = x0 < lo, x1 > hi
        y0, y1 = np.where(cut0, y1 - s * (x1 - lo), y0), np.where(cut1, y0 + s * (hi - x0), y1)
    return period, falls, np.where(cut0, lo, x0), y0, np.where(cut1, hi, x1), y1


def render_svg(
    g: RegularGraph,
    t_lo: int,
    t_hi: int,
    width: int = 960,
    height: int = 600,
) -> str:
    """Render the window [tau^t_lo, tau^(t_hi+1)] as an SVG document.

    Raises ConstructError when t_lo exceeds t_hi or the window's values leave
    the float range (_window_ends, the rule check and export share).
    """
    _, ends, power = _window_ends(g, t_lo, t_hi)
    # ordinates and their padded range are formed in a power-of-two unit at or
    # above tau^t_hi max|ends|, the rule's bound on every value of the window,
    # so none overflows; the scaling rounds nothing above the smallest normal
    # float, far below one pixel, so the drawing is the one in plain units
    unit = ldexp(1.0, -max(frexp(power[-2] * np.max(np.abs(ends)))[1], 0))
    periods, falls, x0, y0, x1, y1 = _chords(g, t_lo, power, unit)
    k = g.weights.k

    q_lo, q_hi = power[[0, -1]].tolist()
    # the grid holds the abscissae of node r of periods t_lo .. t_hi, then
    # of node 0 of period t_hi + 1
    nx = np.append(np.multiply.outer(power[:-1], g.schedule.sigmas), q_hi)
    r = np.append(np.tile(np.arange(k), len(power) - 1), 0)
    na, nb = nx * (g.u[r] * unit), nx * (g.v[r] * unit)
    grid, periods, falls, x0, y0, x1, y1, na, nb = (
        a.tolist() for a in (nx, periods, falls, x0, y0, x1, y1, na, nb))

    ys = y0 + y1 + [0.0]
    y_min, y_max = min(ys), max(ys)
    pad = 0.08 * (y_max - y_min or 1.0)
    y_min -= pad
    y_max += pad

    ml, mr, mt, mb = 55, 20, 20, 42
    iw, ih = width - ml - mr, height - mt - mb

    def sx(q: float) -> float:
        return ml + (q - q_lo) / (q_hi - q_lo) * iw

    def sy(y: float) -> float:
        return mt + (y_max - y) / (y_max - y_min) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f"<style>{_STYLE}</style>",
        f'<rect class="frame" x="{ml}" y="{mt}" width="{iw}" height="{ih}"/>',
        f'<line class="axis" x1="{ml}" y1="{sy(0.0):.2f}" x2="{ml + iw}" y2="{sy(0.0):.2f}"/>',
    ]

    for tick in grid:
        x = sx(tick)
        parts.append(
            f'<line class="tick" x1="{x:.2f}" y1="{mt + ih}" x2="{x:.2f}" y2="{mt + ih + 6}"/>'
        )
        parts.append(
            f'<text class="ticklabel" x="{x:.2f}" y="{mt + ih + 18}">{tick:.4g}</text>'
        )

    for t, chords in groupby(zip(periods, falls, x0, y0, x1, y1), key=lambda c: c[0]):
        parts.append(f'<g class="period" data-period="{t}">')
        for _, fall, a, b, c, d in chords:
            parts.append(
                f'<line class="seg seg-{"AB"[fall]}" '
                f'x1="{sx(a):.2f}" y1="{sy(b):.2f}" x2="{sx(c):.2f}" y2="{sy(d):.2f}"/>'
            )
        parts.append("</g>")

    for x, ya, yb in zip(grid, na, nb):
        parts.append(f'<circle class="node node-a" cx="{sx(x):.2f}" cy="{sy(ya):.2f}" r="3"/>')
        parts.append(f'<circle class="node node-b" cx="{sx(x):.2f}" cy="{sy(yb):.2f}" r="3"/>')

    parts.append("</svg>")
    return "\n".join(parts)


__all__ = ["render_svg"]
