"""Splitting a non-coprime instance into independent subgraphs.

When d = gcd(l, m) exceeds 1, the segments whose grid index is congruent
to f (mod d) close up into a self-contained graph of their own.  Each
subgraph carries the weights whose 1-based index is congruent to f+1
(mod d); those no longer balance individually, so the f-th component sum
drifts linearly with rate gamma^f instead of vanishing — but the rates
cancel across classes.  A class needs no extraction of its own: its
lines are the rows of the graph's period line table with r = f (mod d).
"""

from bisect import bisect_right

import numpy as np

import regraph as rg
from regraph.analyze import check_subgraphs

g = rg.build_graph(
    rg.validate_weights(4, 2, (0.5, 1.5, 1.0, 2.0), (3.0, 2.0)),
    rg.ExpansionSchedule.from_factors([1.3, 1.2, 1.5, 1.25]),
)
w = g.weights
print(f"l={w.l} m={w.m}: d={w.d} classes, each a graph on n'={w.n_prime} components")

for f in range(w.d):
    labels = " ".join(f"{kind}{i}" for kind, i in w.class_labels(f))
    print(f"  class f={f}: weights {labels}, drift rate gamma = {w.class_gamma(f):+.3f}")
print(f"  drift rates sum to {sum(w.class_gamma(f) for f in range(w.d)):+.1e}")

# q = 1.7 lies in period 0, [1, tau); row j of the line table holds the
# n lines above it, each through its anchor (x0, y0) with the given slope
q = 1.7
lines = g.lines
j = bisect_right(g.schedule.sigmas, q) - 1
on_line = lines.y0[j] + lines.slope[j] * (q - lines.x0[j])
parts = []
for f in range(w.d):
    vals = np.sort(on_line[lines.r[j] % w.d == f])
    parts.append(vals)
    drift = w.class_gamma(f) * q
    print(f"\nclass f={f} at q={q}: {np.round(vals, 6)}")
    print(f"  sum {vals.sum():+.6f} vs gamma*q {drift:+.6f}")

merged = np.sort(np.concatenate(parts))
print(f"\nmerged class values match the full system: "
      f"{np.allclose(merged, rg.evaluate(g, q), rtol=1e-12)}")

res = check_subgraphs(g)
print(f"subgraphs check over every subinterval: {res.status.upper()}, "
      f"worst class-sum residual {res.margin:.1e} (relative), at {res.witness}")
