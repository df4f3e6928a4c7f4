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
from math import isfinite

import numpy as np

from .construct import ConstructError, RegularGraph
from .graph import _tau_powers
from .weights import _int_text

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


def _chords(g: RegularGraph, t_lo: int, t_hi: int) -> tuple[np.ndarray, ...]:
    """The chords meeting [tau^t_lo, tau^(t_hi+1)], clipped to it, as flat arrays.

    Node r of period t sits at x = tau^t sigma_r, y = x u_r (lower) or
    x v_r (upper).  Periods t_lo - 1 .. t_hi each base k rising chords,
    from lower node r to upper node r + l, and k falling ones, from
    upper node r to lower node r + m.  Returns period, falls, x0, y0,
    x1, y1, ordered by period, then r, then rising before falling.
    """
    if t_lo > t_hi:
        raise ConstructError(
            f"window: t_lo={_int_text(t_lo)} exceeds t_hi={_int_text(t_hi)}")
    w, tau = g.weights, g.schedule.tau
    sig = np.array(g.schedule.sigmas)
    sig = np.concatenate([sig, tau * sig])  # sigma_r for 0 <= r < 2k
    periods = range(t_lo - 1, t_hi + 1)
    # period t_lo - 1 only lends chords that reach into the window, so its power
    # may be subnormal
    power = np.insert(_tau_powers(tau, t_lo, t_hi + 1), 0, tau ** (t_lo - 1))
    lo, hi = power[1], power[-1]
    power = power[:-1, None, None]
    start = np.repeat(np.arange(w.k)[:, None], 2, axis=1)  # columns: rising, falling
    end = start + [w.l, w.m]
    height = np.column_stack([g.u, g.v])
    with np.errstate(over="ignore", invalid="ignore"):
        x0, x1 = power * sig[start], power * sig[end]
        y0, y1 = x0 * height, x1 * height[end % w.k, [1, 0]]
        # strict overlap with a relative guard: a chord whose far end only
        # touches the window boundary (up to rounding of tau powers)
        # carries no extent inside it
        keep = (x1 > lo * (1.0 + 1e-12)) & (x0 < hi * (1.0 - 1e-12))
        period = np.broadcast_to(np.array(periods)[:, None, None], keep.shape)[keep]
        falls = np.broadcast_to([False, True], keep.shape)[keep]
        x0, y0, x1, y1 = x0[keep], y0[keep], x1[keep], y1[keep]
        cut = x0 < lo
        y0 = np.where(cut, y0 + (y1 - y0) * (lo - x0) / (x1 - x0), y0)
        x0 = np.where(cut, lo, x0)
        cut = x1 > hi
        y1 = np.where(cut, y0 + (y1 - y0) * (hi - x0) / (x1 - x0), y1)
        x1 = np.where(cut, hi, x1)
    return period, falls, x0, y0, x1, y1


def render_svg(
    g: RegularGraph,
    t_lo: int,
    t_hi: int,
    width: int = 960,
    height: int = 600,
) -> str:
    """Render the window [tau^t_lo, tau^(t_hi+1)] as an SVG document.

    Raises ConstructError when t_lo exceeds t_hi, a power of tau bounding the
    window is not a finite normal float, or an ordinate to draw overflows a float.
    """
    periods, falls, x0, y0, x1, y1 = _chords(g, t_lo, t_hi)
    tau = g.schedule.tau
    k = g.weights.k

    q_lo, q_hi = tau**t_lo, tau ** (t_hi + 1)
    # the grid holds the abscissae of node r of periods t_lo .. t_hi, then
    # of node 0 of period t_hi + 1
    grid = [tau**t * g.schedule.sigmas[j] for t in range(t_lo, t_hi + 1) for j in range(k)]
    grid.append(q_hi)
    r = np.append(np.tile(np.arange(k), t_hi - t_lo + 1), 0)
    nx = np.array(grid)
    with np.errstate(over="ignore"):
        na, nb = nx * g.u[r], nx * g.v[r]
    finite = np.isfinite(np.concatenate([y0, y1, na, nb])).all()
    periods, falls, x0, y0, x1, y1, na, nb = (
        a.tolist() for a in (periods, falls, x0, y0, x1, y1, na, nb))

    ys = y0 + y1 + [0.0]
    y_min, y_max = min(ys), max(ys)
    pad = 0.08 * (y_max - y_min or 1.0)
    y_min -= pad
    y_max += pad
    if not (finite and isfinite(y_max - y_min)):
        raise ConstructError(
            f"window: ordinates over tau^{t_lo} .. tau^{t_hi + 1} leave the float range")

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
