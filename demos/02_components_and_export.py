"""Extract the sorted component functions and tabulate them.

Over any window the graph decomposes into n continuous piecewise-linear
functions P_1 <= ... <= P_n whose slopes on every linearity interval are a
permutation of the weight alphabet and whose sum vanishes identically.
This script walks the pieces over one period, prints a small table, and
writes the same data to CSV via the command-line exporter.
"""

from pathlib import Path

import numpy as np

import regraph as rg
from regraph.cli import main

g = rg.build_graph(
    rg.validate_weights(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0)),
    rg.ExpansionSchedule.from_factors([rg.PowerForm(2.0, 1, 3)] * 6),
)

# Over period 0 the table's rows are its pieces: piece p runs from
# breakpoints[p] to breakpoints[p + 1] with left-end values values0[p].
system = rg.component_functions(g, 0, 0)
bp = system.breakpoints
print(f"{len(bp) - 1} linearity pieces over q in [1, {g.tau:g}]")
print(f"grid breakpoints: {np.round(np.append(g.schedule.sigmas, g.tau), 4)}")

print("\npiece table (slope labels, left endpoint values):")
for q_lo, q_hi, codes, values in zip(bp[:-1], bp[1:], system.labels0, system.values0):
    labels = " ".join(f"{kind}{i}" for kind, i in (system.alphabet[c] for c in codes))
    vals = " ".join(f"{v:+.4f}" for v in values)
    print(f"  q=[{q_lo:.4f}, {q_hi:.4f}]  {labels:20s}  {vals}")

q = 1.9
vals = rg.evaluate(g, q)
print(f"\npoint evaluation at q={q}: {np.round(vals, 6)}")
print(f"sum of components: {vals.sum():+.2e} (identically zero in exact arithmetic)")

# The exporter samples every piece; round-trip it here.
config = Path(__file__).resolve().parent.parent / "configs" / "l3m2_cuberoot.json"
out = Path(__file__).resolve().parent / "components.csv"
main(["export", str(config), "--out", str(out)])
rows = out.read_text().strip().split("\n")
print(f"\nexported {len(rows) - 1} sample rows to {out.name}; header: {rows[0]}")
