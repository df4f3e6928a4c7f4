"""The per-subinterval extraction loop, as a reference for the piece table.

`reference_extract` walks every grid subinterval of a window: it builds
the active lines as tuples, intersects them pairwise, keeps the interior
crossings (deduplicated within CROSSING_REL_TOL) and ranks the lines on
each piece by their value at its midpoint, ties by segment identity.
With subgraph=f it keeps only the lines of residue class f, so it also
extracts a class as a system of its own, an independent route to what
the package reads off the line table.
"""

from itertools import combinations

import numpy as np

CROSSING_REL_TOL = 1e-12


def reference_active_lines(g, t, j):
    """(kind, r, t, x0, y0, slope, label) of the n lines above subinterval j of period t."""
    w = g.weights
    lines = []
    for kind, count in (("A", w.l), ("B", w.m)):
        for c in range(count):
            r0 = j - c
            tt, r = (t, r0) if r0 >= 0 else (t - 1, r0 + w.k)
            x0 = g.schedule.tau**tt * g.schedule.sigma_at(r)
            if kind == "A":
                y0 = x0 * float(g.u[r])
                slope, label = w.alpha[r % w.l], ("A", (r % w.l) + 1)
            else:
                y0 = x0 * float(g.v[r])
                slope, label = -w.beta[r % w.m], ("B", (r % w.m) + 1)
            lines.append((kind, r, tt, x0, y0, slope, label))
    return lines


def reference_crossings(lines, q_lo, q_hi):
    found = []
    for a, b in combinations(lines, 2):
        ds = a[5] - b[5]
        if ds == 0.0:
            continue
        qx = ((b[4] - b[5] * b[3]) - (a[4] - a[5] * a[3])) / ds
        tol = CROSSING_REL_TOL * abs(qx)
        if q_lo + tol < qx < q_hi - tol:
            found.append(qx)
    return reference_dedupe(sorted(found))


def reference_dedupe(found):
    out = []
    for qx in found:
        if not out or qx - out[-1] > CROSSING_REL_TOL * qx:
            out.append(qx)
    return out


def reference_extract(g, t_lo, t_hi, subgraph=None):
    """grid, breakpoints, values, slopes and label tuples from the cell loop."""
    w, tau = g.weights, g.schedule.tau
    value_at = lambda ln, q: ln[4] + ln[5] * (q - ln[3])
    grid, cells = [], []
    for t in range(t_lo, t_hi + 1):
        for j in range(w.k):
            grid.append(tau**t * g.schedule.sigmas[j])
            cells.append((t, j))
    grid.append(tau ** (t_hi + 1))
    breakpoints, values, slopes, labels = [grid[0]], [], [], []
    for idx, (t, j) in enumerate(cells):
        lines = reference_active_lines(g, t, j)
        if subgraph is not None:
            lines = [ln for ln in lines if ln[1] % w.d == subgraph]
        bounds = [grid[idx], *reference_crossings(lines, grid[idx], grid[idx + 1]), grid[idx + 1]]
        for p_lo, p_hi in zip(bounds[:-1], bounds[1:]):
            mid = 0.5 * (p_lo + p_hi)
            order = sorted(lines, key=lambda ln: (value_at(ln, mid), ln[:3]))
            values.append([value_at(ln, p_lo) for ln in order])
            slopes.append([ln[5] for ln in order])
            labels.append(tuple(ln[6] for ln in order))
            breakpoints.append(p_hi)
    return np.array(grid), np.array(breakpoints), np.array(values), np.array(slopes), labels


def reference_table_values(table, q):
    """The components at q of a reference_extract table, from the piece holding q."""
    _, bp, values, slopes, _ = table
    i = min(max(int(np.searchsorted(bp, q, side="right")) - 1, 0), len(values) - 1)
    return values[i] + slopes[i] * (q - bp[i])
