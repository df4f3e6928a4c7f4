"""Render the reference instance to a standalone SVG.

One group per period, one polyline class per segment family (rising A
chords, falling B chords), one axis tick per grid breakpoint.  The output
is self-contained — open it in any browser.
"""

from pathlib import Path

import regraph as rg

g = rg.build_graph(
    rg.validate_weights(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0)),
    rg.ExpansionSchedule.from_factors([rg.PowerForm(2.0, 1, 3)] * 6),
)

svg = rg.render_svg(g, 0, 1, width=1100, height=620)
out = Path(__file__).resolve().parent / "reference_graph.svg"
out.write_text(svg)

segments = svg.count('class="seg ')  # one <line> per chord
print(f"rendered {segments} segments over q in [1, {g.tau ** 2:g}]")
print(f"wrote {out}")
