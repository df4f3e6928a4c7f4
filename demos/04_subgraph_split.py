"""Splitting a non-coprime instance into independent subgraphs.

When d = gcd(l, m) exceeds 1, the segments whose grid index is congruent
to f (mod d) close up into a self-contained graph of their own.  Each
subgraph carries the weights whose 1-based index is congruent to f+1
(mod d); those no longer balance individually, so the f-th component sum
drifts linearly with rate gamma^f instead of vanishing — but the rates
cancel across classes.
"""

import numpy as np

import regraph as rg

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

full = rg.component_functions(g, 0, 1)
parts = [rg.component_functions(g, 0, 1, subgraph=f) for f in range(w.d)]

q = 1.7
for f, part in enumerate(parts):
    vals = part.values_at(q)
    drift = w.class_gamma(f) * q
    print(f"\nclass f={f} at q={q}: {np.round(vals, 6)}")
    print(f"  sum {vals.sum():+.6f} vs gamma*q {drift:+.6f}")

merged = np.sort(np.concatenate([p.values_at(q) for p in parts]))
print(f"\nmerged class values match the full system: "
      f"{np.allclose(merged, full.values_at(q), rtol=1e-12)}")
