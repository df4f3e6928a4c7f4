"""render_svg's chord and node arrays against the segment layer they replace.

The reference functions below are the per-segment forms render used to
draw from: `lower_node` and `upper_node` (one node point per call),
`_clip`, the triple loop `segments_in_window` that built one `Segment`
per chord, and the render body that grouped those segments by period.
A chord end outside the window is moved onto the window's end along the
chord's slope from its other node.  The array form does the same float
operations in the same order, so the chord endpoints must agree bit for
bit.  render forms its ordinates in a power-of-two unit, which rounds
nothing, so the SVG must agree byte for byte with the reference drawn in
plain units.
"""

import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
from regraph.cli import load_config
from regraph.render import _STYLE

from conftest import make_instance, window_chords
from test_piece_table import DEGENERATE, same_bits

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
N_RANDOM = 120


def reference_x(g, r, t, t_lo):
    """Abscissa of node r of period t.  For t = t_lo - 1, whose power may
    underflow, it is formed in units of tau^t_lo: tau^t_lo (tau^-1 sigma_r)
    for 0 <= r < k, as the line table forms wrapped anchors, and tau^t_lo
    sigma_(r-k), the window's own node, for r >= k."""
    tau, k = g.schedule.tau, g.weights.k
    if t == t_lo - 1:
        return tau**t_lo * (g.schedule.sigma_at(r - k) if r >= k
                            else tau**-1 * g.schedule.sigma_at(r))
    return tau**t * g.schedule.sigma_at(r)


def reference_lower_node(g, r, t, t_lo):
    x = reference_x(g, r, t, t_lo)
    return (x, x * float(g.u[r % g.weights.k]))


def reference_upper_node(g, r, t, t_lo):
    x = reference_x(g, r, t, t_lo)
    return (x, x * float(g.v[r % g.weights.k]))


def reference_clip(x0, y0, x1, y1, slope, lo, hi):
    """Each end outside [lo, hi] moved onto it along the slope from the other end."""
    cx0, cy0, cx1, cy1 = x0, y0, x1, y1
    if x0 < lo:
        cx0, cy0 = lo, y1 - slope * (x1 - lo)
    if x1 > hi:
        cx1, cy1 = hi, y0 + slope * (hi - x0)
    return cx0, cy0, cx1, cy1


def reference_chords(g, t_lo, t_hi):
    """(kind, r, t, slope, start, end) of every chord meeting the window, unclipped."""
    if t_lo > t_hi:
        raise rg.ConstructError(f"window: t_lo={t_lo} exceeds t_hi={t_hi}")
    w = g.weights
    w_lo = g.schedule.tau**t_lo
    w_hi = g.schedule.tau ** (t_hi + 1)
    out = []
    for t in range(t_lo - 1, t_hi + 1):
        for r in range(w.k):
            for kind, span in (("A", w.l), ("B", w.m)):
                if kind == "A":
                    x0, y0 = reference_lower_node(g, r, t, t_lo)
                    x1, y1 = reference_upper_node(g, r + span, t, t_lo)
                    slope = w.alpha[r % w.l]
                else:
                    x0, y0 = reference_upper_node(g, r, t, t_lo)
                    x1, y1 = reference_lower_node(g, r + span, t, t_lo)
                    slope = -w.beta[r % w.m]
                if not (x1 > w_lo * (1.0 + 1e-12) and x0 < w_hi * (1.0 - 1e-12)):
                    continue
                out.append((kind, r, t, slope, (x0, y0), (x1, y1)))
    return out


def reference_segments(g, t_lo, t_hi):
    """(kind, r, t, start, end) of every chord meeting the window, clipped to it."""
    lo, hi = g.schedule.tau**t_lo, g.schedule.tau ** (t_hi + 1)
    out = []
    for kind, r, t, slope, (x0, y0), (x1, y1) in reference_chords(g, t_lo, t_hi):
        cx0, cy0, cx1, cy1 = reference_clip(x0, y0, x1, y1, slope, lo, hi)
        out.append((kind, r, t, (cx0, cy0), (cx1, cy1)))
    return out


def reference_render_svg(g, t_lo, t_hi, width=960, height=600):
    segs = reference_segments(g, t_lo, t_hi)
    tau = g.schedule.tau
    k = g.weights.k

    q_lo, q_hi = tau**t_lo, tau ** (t_hi + 1)
    ys = [s[3][1] for s in segs] + [s[4][1] for s in segs] + [0.0]
    y_min, y_max = min(ys), max(ys)
    pad = 0.08 * (y_max - y_min or 1.0)
    y_min -= pad
    y_max += pad

    ml, mr, mt, mb = 55, 20, 20, 42
    iw, ih = width - ml - mr, height - mt - mb

    def sx(q):
        return ml + (q - q_lo) / (q_hi - q_lo) * iw

    def sy(y):
        return mt + (y_max - y) / (y_max - y_min) * ih

    grid = [tau**t * g.schedule.sigmas[j] for t in range(t_lo, t_hi + 1) for j in range(k)]
    grid.append(q_hi)

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

    by_period = {}
    for s in segs:
        by_period.setdefault(s[2], []).append(s)
    for t in sorted(by_period):
        parts.append(f'<g class="period" data-period="{t}">')
        for kind, _, _, start, end in by_period[t]:
            parts.append(
                f'<line class="seg seg-{kind}" '
                f'x1="{sx(start[0]):.2f}" y1="{sy(start[1]):.2f}" '
                f'x2="{sx(end[0]):.2f}" y2="{sy(end[1]):.2f}"/>'
            )
        parts.append("</g>")

    nodes = []
    for t in range(t_lo, t_hi + 1):
        for r in range(k):
            nodes.append(("a", reference_lower_node(g, r, t, t_lo)))
            nodes.append(("b", reference_upper_node(g, r, t, t_lo)))
    nodes.append(("a", reference_lower_node(g, 0, t_hi + 1, t_lo)))
    nodes.append(("b", reference_upper_node(g, 0, t_hi + 1, t_lo)))
    for cls, (x, y) in nodes:
        parts.append(
            f'<circle class="node node-{cls}" cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts)


def random_case(i):
    """Instance i: l, m <= 6, some alpha entries zero, t_lo in -5..4, 1 to 3 periods."""
    rng = np.random.default_rng(9100 + i)
    l, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    alpha = rng.uniform(0.05, 3.0, size=l)
    beta = rng.uniform(0.05, 3.0, size=m)
    if l > 1 and i % 3 == 0:
        alpha[rng.integers(0, l)] = 0.0
    beta *= alpha.sum() / beta.sum()
    t_lo = int(rng.integers(-5, 5))
    g = make_instance(l, m, alpha, beta, rng.uniform(1.05, 3.0, size=lcm(l, m)))
    return g, t_lo, t_lo + int(rng.integers(0, 3))


def render_cases():
    cases = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        g = load_config(json.loads(path.read_text())).graph()
        cases += [(g, t, t + 2) for t in range(-3, 4)]
    cases += [(make_instance(1, 1, [1.0], [1.0], [3.0]), t, t) for t in (-2, 0, 3)]
    cases += [(make_instance(*args), -1, 1) for args in DEGENERATE]
    cases += [random_case(i) for i in range(N_RANDOM)]
    return cases


def test_chords_match_reference_segments():
    """The chord arrays hold the reference endpoints bit for bit, in order."""
    for g, t_lo, t_hi in render_cases():
        ref = reference_segments(g, t_lo, t_hi)
        t, falls, x0, y0, x1, y1 = window_chords(g, t_lo, t_hi)
        assert t.tolist() == [s[2] for s in ref]
        assert ["AB"[f] for f in falls.tolist()] == [s[0] for s in ref]
        assert same_bits(x0, [s[3][0] for s in ref])
        assert same_bits(y0, [s[3][1] for s in ref])
        assert same_bits(x1, [s[4][0] for s in ref])
        assert same_bits(y1, [s[4][1] for s in ref])


def test_clipped_chord_ends_lie_on_their_lines():
    """A clipped end is within 4 eps (|y| + |s| |e - x|) of the exact value at
    the window end e of the line through the chord's in-window node (x, y)
    with the chord's slope s, eps the unit roundoff: the bound of the three
    roundings of y + s (e - x)."""
    eps = Fraction(1, 2**53)
    clipped = 0
    for g, t_lo, t_hi in render_cases():
        lo, hi = g.schedule.tau**t_lo, g.schedule.tau ** (t_hi + 1)
        _, _, _, y0, _, y1 = window_chords(g, t_lo, t_hi)
        for (*_, s, start, end), got0, got1 in zip(reference_chords(g, t_lo, t_hi), y0, y1):
            for node, e, got, cut in ((end, lo, got0, start[0] < lo),
                                      (start, hi, got1, end[0] > hi)):
                if cut:
                    x, y = (Fraction(v) for v in node)
                    exact = y + Fraction(s) * (Fraction(e) - x)
                    bound = 4 * eps * (abs(y) + abs(Fraction(s)) * abs(Fraction(e) - x))
                    assert abs(Fraction(got) - exact) <= bound, (g.weights, t_lo, t_hi)
                    clipped += 1
    assert clipped > 1000


def test_render_matches_reference():
    for i, (g, t_lo, t_hi) in enumerate(render_cases()):
        assert rg.render_svg(g, t_lo, t_hi) == reference_render_svg(g, t_lo, t_hi)
        if i % 4 == 0:
            size = dict(width=700 + i, height=410 + 3 * i)
            assert rg.render_svg(g, t_lo, t_hi, **size) == reference_render_svg(
                g, t_lo, t_hi, **size)


def test_coprime_unit_sizes_have_no_protruders():
    # l = m = 1: every chord spans one grid step, so none reaches past
    # tau^t_lo from the period before and no group for t_lo - 1 is drawn
    g = make_instance(1, 1, [1.0], [1.0], [3.0])
    svg = rg.render_svg(g, 0, 1)
    assert 'data-period="-1"' not in svg
    assert svg.count('class="seg ') == 4


@pytest.mark.parametrize("width, height", [(75, 600), (960, 62), (60, 50)])
def test_size_without_plot_area_raises(width, height):
    # the margins take 75 of the width and 62 of the height
    g = make_instance(1, 1, [1.0], [1.0], [3.0])
    with pytest.raises(ValueError, match="plot area"):
        rg.render_svg(g, 0, 1, width=width, height=height)


def test_smallest_size_renders():
    g = make_instance(1, 1, [1.0], [1.0], [3.0])
    root = ET.fromstring(rg.render_svg(g, 0, 1, width=76, height=63))
    frame = root.find("{http://www.w3.org/2000/svg}rect")
    assert (frame.get("width"), frame.get("height")) == ("1", "1")
