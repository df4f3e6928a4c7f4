"""Build a graph instance and inspect its node data.

The instance here is the l=3, m=2 system with weights (1/2, 1, 3/2) against
(2, 1) and every expansion factor equal to the cube root of 2, so a full
period multiplies the abscissa by exactly 4.  We solve for the node
ordinates two ways (closed form, dense linear solve) and confirm they
agree, then spot-check the defining recurrence.
"""

import numpy as np

import regraph as rg

w = rg.validate_weights(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0))
sch = rg.ExpansionSchedule.from_factors([rg.PowerForm(2.0, 1, 3)] * w.k)

print(f"l={w.l} m={w.m}  n={w.n} k={w.k} d={w.d}")
print(f"slope alphabet: {np.round(w.slope_vector, 4)}")
print(f"full-period ratio tau = {sch.tau}")

g = rg.build_graph(w, sch)
u_ora, v_ora = rg.solve_uv_oracle(w, sch)

print("\nnode ordinates (value / abscissa at each grid point):")
print("  u:", np.round(g.u, 6))
print("  v:", np.round(g.v, 6))
print("closed form vs dense solve, max |difference|:",
      max(np.abs(g.u - u_ora).max(), np.abs(g.v - v_ora).max()))

# The ordinates are pinned down by a cyclic recurrence: stepping n grid
# points ahead rescales by chi_r and shifts by the local geometry term.
_, _, chi, U, _ = rg.growth_terms(w, sch)
res = g.u - chi * g.u[(np.arange(w.k) + w.n) % w.k] + U
worst = np.abs(res).max()
print(f"\nrecurrence residual, worst over r: {worst:.3e}")

# Lower nodes rise to upper nodes with slope alpha_{r+1}; upper nodes fall
# back to lower nodes with slope -beta_{r+1}.  Check the first few chords.
print("\nchord slopes out of the first period:")
for r in range(w.k):
    x0, y0 = rg.lower_node(g, r, 0)
    x1, y1 = rg.upper_node(g, r + w.l, 0)
    rise = (y1 - y0) / (x1 - x0)
    print(f"  r={r}: rising chord slope {rise:+.6f} (weight {w.alpha_at(r + 1)})")
