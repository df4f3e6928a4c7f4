"""The array-backed piece table against the per-piece loops it replaces.

The reference functions below are the loop forms that walked `Piece`
objects one at a time: the per-subinterval extraction (`_Line` objects,
all-pairs crossings, one sort per piece), `check_system`,
`check_regular`, `check_proper_direct` and `cmd_export`.  Beside them
is `evaluate` as it was before the graph carried its period line
table: a linear scan over sigma and the active lines rebuilt on every
call.  The array forms do the same float operations in the same order,
so results must agree exactly: bit-identical tables and values, the
same status, margin and witness, and the same CSV bytes.
"""

import dataclasses
import json
import sys
from itertools import combinations
from math import floor, lcm, log
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
from regraph import analyze, graph
from regraph.cli import main

from conftest import make_instance

N_INSTANCES = 50
N_EXTRACT = 60
CROSSING_REL_TOL = 1e-12


def reference_active_lines(g, t, j):
    """(kind, r, t, x0, y0, slope, label) of the n lines above subinterval j of period t."""
    w = g.weights
    lines = []
    for kind, count in (("A", w.l), ("B", w.m)):
        for c in range(count):
            r0 = j - c
            tt, r = (t, r0) if r0 >= 0 else (t - 1, r0 + w.k)
            if kind == "A":
                x0, y0 = rg.lower_node(g, r, tt)
                slope, label = w.alpha_at(r + 1), ("A", (r % w.l) + 1)
            else:
                x0, y0 = rg.upper_node(g, r, tt)
                slope, label = -w.beta_at(r + 1), ("B", (r % w.m) + 1)
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


def reference_check_system(sys, tol=1e-9):
    expected = tuple(sorted(sys.alphabet))
    worst = 0.0
    witness = None
    scale_tol = lambda v: tol * max(1.0, abs(v))
    for pi, piece in enumerate(sys.pieces):
        if tuple(sorted(piece.labels)) != expected:
            return analyze.CheckResult(
                "system", analyze.FAIL, tol, -1.0, {"piece": pi, "q": piece.q_lo},
                note="slope labels are not a permutation of the alphabet")
        if np.any(np.diff(piece.values) < -scale_tol(piece.q_lo)):
            return analyze.CheckResult(
                "system", analyze.FAIL, tol, float(np.diff(piece.values).min()),
                {"piece": pi, "q": piece.q_lo}, note="components out of order")
        for q in (piece.q_lo, 0.5 * (piece.q_lo + piece.q_hi), piece.q_hi):
            resid = abs(float(np.sum(piece.values_at(q))) - sys.gamma * q)
            if resid > worst:
                worst, witness = resid, {"q": q, "kind": "sum"}
            if resid > scale_tol(sys.gamma * q):
                return analyze.CheckResult("system", analyze.FAIL, tol, resid, {"q": q},
                                           note="component sum off the expected line")
    for pi in range(len(sys.pieces) - 1):
        left, right = sys.pieces[pi], sys.pieces[pi + 1]
        jump = np.abs(left.values_at(left.q_hi) - right.values)
        j = float(jump.max())
        if j > worst:
            worst, witness = j, {"q": right.q_lo, "kind": "jump", "i": int(jump.argmax()) + 1}
        if j > scale_tol(right.q_lo):
            return analyze.CheckResult("system", analyze.FAIL, tol, j,
                                       {"q": right.q_lo, "i": int(jump.argmax()) + 1},
                                       note="component discontinuous across breakpoint")
    first = sys.pieces[0]
    w_max = max(abs(v) for v in first.slopes)
    over = float(np.max(np.abs(first.values))) - w_max * sys.q_lo
    if over > scale_tol(w_max * sys.q_lo):
        return analyze.CheckResult("system", analyze.FAIL, tol, over, {"q": sys.q_lo},
                                   note="first-period values inconsistent with vanishing at 0")
    return analyze.CheckResult("system", analyze.PASS, tol, worst, witness)


def reference_values_at(sys, q):
    idx = int(np.searchsorted(sys.breakpoints, q, side="right")) - 1
    return sys.pieces[min(max(idx, 0), len(sys.pieces) - 1)].values_at(q)


def reference_check_regular(g, sys, tol=1e-9):
    if sys.t_hi - sys.t_lo < 1:
        return analyze.CheckResult("regular", analyze.ERROR, tol, 0.0, None,
                                   note="InsufficientWindow: need at least two periods")
    tau = g.schedule.tau
    bp = sys.breakpoints
    worst = 0.0
    witness = None
    for t in range(sys.t_lo, sys.t_hi):
        lo, hi = tau**t, tau ** (t + 1)
        cur = bp[(bp >= lo * (1 - 1e-12)) & (bp < hi * (1 - 1e-12))]
        nxt = bp[(bp >= hi * (1 - 1e-12)) & (bp < hi * tau * (1 - 1e-12))]
        if len(cur) != len(nxt):
            return analyze.CheckResult("regular", analyze.FAIL, tol, float(len(nxt) - len(cur)),
                                       {"t": t}, note="breakpoint count differs between periods")
        rel_bp = float(np.max(np.abs(nxt / (tau * cur) - 1.0))) if len(cur) else 0.0
        if rel_bp > worst:
            worst, witness = rel_bp, {"t": t, "kind": "breakpoint"}
        if rel_bp > tol:
            return analyze.CheckResult("regular", analyze.FAIL, tol, rel_bp, {"t": t},
                                       note="breakpoints do not scale by tau")
        probes = np.concatenate([cur, 0.5 * (cur[:-1] + cur[1:])]) if len(cur) > 1 else cur
        for q in probes:
            a = reference_values_at(sys, q) * tau
            b = reference_values_at(sys, q * tau)
            rel = float(np.max(np.abs(b - a) / np.maximum(1.0, np.abs(a))))
            if rel > worst:
                worst, witness = rel, {"q": float(q), "t": t}
            if rel > tol:
                return analyze.CheckResult("regular", analyze.FAIL, tol, rel, {"q": float(q)},
                                           note="values do not scale by tau")
    return analyze.CheckResult("regular", analyze.PASS, tol, worst, witness)


def reference_check_proper_direct(sys, tol=1e-9):
    best = np.inf
    witness = None
    for b in range(1, len(sys.pieces)):
        left, right = sys.pieces[b - 1], sys.pieces[b]
        q = sys.breakpoints[b]
        vals = right.values
        lsum = np.cumsum(left.slopes)
        rsum = np.cumsum(right.slopes)
        for i in range(1, sys.n):
            gap = vals[i] - vals[i - 1]
            if gap <= tol * max(1.0, abs(vals[i])):
                continue
            slack = float(rsum[i - 1] - lsum[i - 1])
            if slack < best:
                best, witness = slack, {"q": float(q), "i": i}
    if witness is None:
        best = 0.0
    status = analyze.PASS if best >= -tol else analyze.FAIL
    return analyze.CheckResult("proper-direct", status, tol, float(best), witness)


def reference_export(cfg) -> bytes:
    sys_ = rg.component_functions(cfg.graph(), cfg.t_min, cfg.t_max)
    rows = []
    for piece in sys_.pieces:
        rows.append((piece.q_lo, *piece.values))
        width = piece.q_hi - piece.q_lo
        for s in range(cfg.samples_per_piece):
            q = piece.q_lo + width * (s + 1) / (cfg.samples_per_piece + 1)
            rows.append((q, *piece.values_at(q)))
    last = sys_.pieces[-1]
    rows.append((last.q_hi, *last.values_at(last.q_hi)))
    header = "q," + ",".join(f"P_{i + 1}" for i in range(sys_.n))
    lines = [header] + [",".join(f"{x:.12g}" for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def random_doc(i):
    """Instance i: l, m <= 4, a random schedule, window start t_lo in -3..3."""
    rng = np.random.default_rng(9000 + i)
    l, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    alpha = rng.uniform(0.05, 3.0, size=l)
    beta = rng.uniform(0.05, 3.0, size=m)
    beta *= alpha.sum() / beta.sum()
    rho = rng.uniform(1.05, 3.0, size=lcm(l, m))
    t_lo = i % 7 - 3
    return {"l": l, "m": m, "alpha": alpha.tolist(), "beta": beta.tolist(),
            "rho": rho.tolist(), "window": {"t_min": t_lo, "t_max": t_lo + i % 3},
            "samples_per_piece": int(rng.integers(0, 9))}


@pytest.fixture(scope="module")
def instances():
    out = []
    for i in range(N_INSTANCES):
        cfg = rg.load_config(random_doc(i))
        g = cfg.graph()
        out.append((cfg, g, rg.component_functions(g, cfg.t_min, cfg.t_min + 2)))
    return out


def test_values_at_array_equals_scalar(instances):
    for _, _, sys in instances:
        bp = sys.breakpoints
        qs = np.concatenate([
            bp,  # every breakpoint, q_lo and q_hi included
            0.5 * (bp[:-1] + bp[1:]),
            [0.0, 0.5 * sys.q_lo, 2.0 * sys.q_hi, sys.q_hi * 1e6],  # outside the window
        ])
        rows = sys.values_at(qs)
        assert rows.shape == (len(qs), sys.n)
        for q, row in zip(qs, rows):
            assert np.array_equal(row, sys.values_at(q))
            assert np.array_equal(row, reference_values_at(sys, q))
        assert sys.values_at(np.array([])).shape == (0, sys.n)


def test_check_regular_matches_loop(instances, fig_instance):
    cases = [(g, sys) for _, g, sys in instances]
    # perturbed tables exercise the failing branch and its witness
    for g, sys in cases[:10] + [(fig_instance, rg.component_functions(fig_instance, 0, 1))]:
        for idx in (0, len(sys.pieces) // 2, len(sys.pieces) - 1):
            values = sys.values.copy()
            values[idx, -1] += 1e-3
            cases.append((g, dataclasses.replace(sys, values=values)))
    statuses = set()
    for g, sys in cases:
        got, want = analyze.check_regular(g, sys), reference_check_regular(g, sys)
        assert got == want
        statuses.add(got.status)
    assert statuses == {analyze.PASS, analyze.FAIL}


def test_check_proper_direct_matches_loop(instances, improper_instance):
    systems = [sys for _, _, sys in instances]
    systems.append(rg.component_functions(improper_instance, -1, 1))
    statuses = set()
    for sys in systems:
        for tol in (1e-9, 1e-3):
            got = analyze.check_proper_direct(sys, tol)
            assert got == reference_check_proper_direct(sys, tol)
            statuses.add(got.status)
    assert statuses == {analyze.PASS, analyze.FAIL}


def test_export_matches_loop_bytes(instances, tmp_path, capsys):
    out = tmp_path / "out.csv"
    for i, (cfg, _, _) in enumerate(instances):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(random_doc(i)))
        assert main(["export", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == reference_export(cfg)


def extract_doc(i):
    """Instance i: l, m <= 5, a random schedule, t_lo in -3..3, 1 to 3 periods."""
    rng = np.random.default_rng(7000 + i)
    l, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    alpha = rng.uniform(0.05, 3.0, size=l)
    beta = rng.uniform(0.05, 3.0, size=m)
    beta *= alpha.sum() / beta.sum()
    t_lo = int(rng.integers(-3, 4))
    return {"l": l, "m": m, "alpha": alpha.tolist(), "beta": beta.tolist(),
            "rho": rng.uniform(1.05, 3.0, size=lcm(l, m)).tolist(),
            "window": {"t_min": t_lo, "t_max": t_lo + int(rng.integers(0, 3))}}


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: equal weights give crossings of three or more lines at one point; zero
#: weights give lines that coincide over whole pieces (ties in the ranking)
DEGENERATE = [
    (3, 3, [1.0] * 3, [1.0] * 3, [2.0] * 3),
    (4, 4, [1.0] * 4, [1.0] * 4, [1.5] * 4),
    (3, 3, [2.0, 0.0, 2.0], [2.0, 2.0, 0.0], [2.0] * 3),
    (5, 5, [0.0, 1.0, 1.0, 1.0, 1.0], [1.0, 0.5, 0.5, 1.0, 1.0], [2.0] * 5),
    (4, 4, [0.0, 2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 3.0], [1.5, 2.0, 1.5, 3.0]),
    (4, 4, [0.0, 2.0, 0.0, 1.0], [1.5, 0.0, 0.0, 1.5], [2.0] * 4),
    (5, 5, [1.0, 0.0, 2.0, 2.0, 0.0], [0.0, 0.0, 0.0, 2.5, 2.5], [2.0, 2.0, 2.0, 1.5, 2.0]),
]


def test_extraction_matches_loop(all_fixture_instances):
    cases = [(g, 0, 2) for g in all_fixture_instances.values()]
    cases += [(make_instance(*args), -1, 1) for args in DEGENERATE]
    for i in range(N_EXTRACT):
        cfg = rg.load_config(extract_doc(i))
        cases.append((cfg.graph(), cfg.t_min, cfg.t_max))
    checked = set()
    for g, t_lo, t_hi in cases:
        for f in (None, *range(g.weights.d)):
            sys = rg.component_functions(g, t_lo, t_hi, subgraph=f)
            grid, bp, values, slopes, labels = reference_extract(g, t_lo, t_hi, f)
            assert same_bits(sys.grid, grid)
            assert same_bits(sys.breakpoints, bp)
            assert same_bits(sys.values, values)
            assert same_bits(sys.slopes, slopes)
            assert [tuple(sys.alphabet[c] for c in row) for row in sys.labels] == labels
            assert (sys.q_lo, sys.q_hi) == (grid[0], grid[-1])
            checked.add((g.weights.d, f is None))
    assert {(1, True), (2, True), (2, False)} <= checked


def test_pieces_are_row_views(fig_instance):
    sys = rg.component_functions(fig_instance, 0, 1)
    rows = sys.pieces
    assert len(rows) == len(sys.values) == len(sys.breakpoints) - 1
    last = rows[-1]
    assert (last.q_lo, last.q_hi) == (sys.breakpoints[-2], sys.q_hi)
    assert np.shares_memory(last.values, sys.values)
    assert not last.values.flags.writeable
    assert [p.q_lo for p in rows[1:3]] == [rows[1].q_lo, rows[2].q_lo]
    with pytest.raises(IndexError):
        rows[len(rows)]


def system_cases(fig_instance, l2m2_instance):
    """(name, system): extracted tables, and perturbed ones that reach each FAIL."""
    cases = []
    for i in range(N_EXTRACT):
        cfg = rg.load_config(extract_doc(i))
        g = cfg.graph()
        cases.append((f"random{i}", rg.component_functions(g, cfg.t_min, cfg.t_max)))
        for f in range(g.weights.d):
            cases.append((f"random{i}/f{f}", rg.component_functions(g, cfg.t_min, cfg.t_max, f)))
    for g in (fig_instance, l2m2_instance):
        sys = rg.component_functions(g, 0, 1)
        p = len(sys.values) // 2
        labels = sys.labels.copy()
        labels[p, 0] = labels[p, 1]
        cases.append(("labels", dataclasses.replace(sys, labels=labels)))
        values = sys.values.copy()
        values[p, [0, -1]] = values[p, [-1, 0]]
        cases.append(("order", dataclasses.replace(sys, values=values)))
        values = sys.values.copy()
        values[p] += 1e-3
        cases.append(("sum", dataclasses.replace(sys, values=values)))
        values = sys.values.copy()
        values[p, 0] -= 1e-3
        values[p, -1] += 1e-3
        cases.append(("jump", dataclasses.replace(sys, values=values)))
        values = sys.values.copy()
        values[:, 0] -= 10.0 * sys.q_hi
        values[:, -1] += 10.0 * sys.q_hi
        cases.append(("first period", dataclasses.replace(sys, values=values)))
    return cases


def test_check_system_matches_loop(fig_instance, l2m2_instance):
    notes = {
        "labels": "slope labels are not a permutation of the alphabet",
        "order": "components out of order",
        "sum": "component sum off the expected line",
        "jump": "component discontinuous across breakpoint",
        "first period": "first-period values inconsistent with vanishing at 0",
    }
    seen = set()
    for name, sys in system_cases(fig_instance, l2m2_instance):
        for tol in (1e-9, 1e-15):
            got = analyze.check_system(sys, tol)
            assert got == reference_check_system(sys, tol), name
            if name in notes and tol == 1e-9:
                assert got.status == analyze.FAIL and got.note == notes[name], name
            seen.add((got.status, got.note))
    assert (analyze.PASS, "") in seen
    assert {(analyze.FAIL, note) for note in notes.values()} <= seen


def test_dedupe_compares_with_last_kept():
    # chains of gaps just under the tolerance: comparing each crossing with
    # its predecessor instead of the last kept one would drop too many
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(300):
        row = [float(rng.uniform(1.0, 10.0))]
        for _ in range(int(rng.integers(0, 12))):
            row.append(row[-1] + rng.choice([0.4, 0.7, 0.99, 1.5, 1e3]) * 1e-12 * row[-1])
        rows.append(row)
    count = np.array([len(row) for row in rows])
    qx = np.full((len(rows), count.max()), np.inf)
    for i, row in enumerate(rows):
        qx[i, : len(row)] = row
    keep = graph._dedupe_crossings(qx, count)
    for i, row in enumerate(rows):
        assert [q for q, kept in zip(row, keep[i]) if kept] == reference_dedupe(row)
        assert not keep[i, len(row):].any()


def reference_lines(g, j):
    """The n lines above subinterval j, rebuilt from the graph's fields."""
    w = g.weights
    r = j - np.concatenate([np.arange(w.l), np.arange(w.m)])
    wrapped = r < 0
    r = r % w.k
    falls = np.arange(w.n) >= w.l
    slope = np.where(falls, -np.asarray(w.beta)[r % w.m], np.asarray(w.alpha)[r % w.l])
    height = np.where(falls, np.asarray(g.v)[r], np.asarray(g.u)[r])
    return wrapped, np.asarray(g.schedule.sigmas)[r], slope, height


def reference_locate(g, q):
    tau = g.schedule.tau
    t = floor(log(q) / log(tau))
    while tau ** (t + 1) <= q:
        t += 1
    while tau**t > q:
        t -= 1
    if q >= tau ** (t + 1) * (1.0 - graph.BOUNDARY_SNAP_REL):
        t += 1
    x = q / tau**t
    sig = g.schedule.sigmas
    k = g.weights.k
    j = k - 1
    while j > 0 and sig[j] > x:
        j -= 1
    nxt = sig[j + 1] if j + 1 < k else tau
    if x >= nxt * (1.0 - graph.BOUNDARY_SNAP_REL):
        j += 1
        if j == k:
            t, j = t + 1, 0
    return t, j


def reference_evaluate(g, q):
    if q == 0:
        return np.zeros(g.weights.n)
    tau = g.schedule.tau
    s = floor(log(q) / log(tau))
    a = b = 1.0
    if (abs(s) + 2) * log(tau) >= graph._LOG_POWER_RANGE:
        a, b = tau ** (s // 2), tau ** (s - s // 2)
    x = q / a / b
    t, j = reference_locate(g, x)
    wrapped, sig_r, slope, height = reference_lines(g, j)
    x0 = np.where(wrapped, tau ** (t - 1), tau**t) * sig_r
    vals = x0 * height + slope * (x - x0)
    vals.sort()
    return vals if a == b == 1.0 else vals * a * b


def evaluate_points(g, rng, n_log):
    """q log-uniform over tau^-12 .. tau^12, grid abscissae tau^t sigma_j
    and points within 1e-13 of them (inside the snap) and 2e-12 (outside),
    q below 1, and q past the split of evaluate's power range."""
    tau, sig = g.schedule.tau, np.asarray(g.schedule.sigmas)
    span = 12 * log(tau)
    qs = [np.exp(rng.uniform(-span, span, n_log))]
    ts = rng.integers(-12, 13, size=n_log // 2)
    grid = np.concatenate([tau ** ts * sig[rng.integers(len(sig), size=len(ts))],
                           *(tau**t * sig for t in (-1, 0, 1))])
    qs += [grid, *(grid * (1 + e) for e in (-1e-13, 1e-13, -2e-12, 2e-12)),
           np.nextafter(grid, 0), np.nextafter(grid, np.inf)]
    big = graph._LOG_POWER_RANGE / log(tau)
    qs.append([0.0, 1e-3, 0.5, 1 - 1e-16, 1.0, 5e-324, 1e-300, sys.float_info.min,
               1e300, sys.float_info.max, tau ** -floor(big - 2), tau ** floor(big - 2)])
    qs.append(np.exp(rng.uniform(-700, 709, n_log // 4)))
    return np.concatenate([np.ravel(a) for a in qs])


def test_evaluate_matches_rebuilt_lines():
    rng = np.random.default_rng(11)
    configs = Path(__file__).resolve().parent.parent / "configs"
    cases = [(rg.load_config(path).graph(), 400) for path in sorted(configs.glob("*.json"))]
    cases += [(rg.load_config(extract_doc(i)).graph(), 60) for i in range(20)]
    alpha = rng.uniform(0.05, 3.0, 13)
    beta = rng.uniform(0.05, 3.0, 11)
    cases.append((make_instance(13, 11, alpha, beta * alpha.sum() / beta.sum(),
                                rng.uniform(1.05, 1.15, 143)), 400))
    for g, n_log in cases:
        with np.errstate(over="ignore"):
            for q in evaluate_points(g, rng, n_log).tolist():
                assert same_bits(rg.evaluate(g, q), reference_evaluate(g, q)), q


def test_line_table_follows_replaced_heights(l4m2_instance):
    g = l4m2_instance
    with pytest.raises(ValueError):
        g.u[0] = 0.0
    with pytest.raises(ValueError):
        g.lines.height[0, 0] = 0.0
    u2 = g.u + np.linspace(0.01, 0.02, g.weights.k)
    g2 = dataclasses.replace(g, u=u2)
    u2[0] = 5.0  # the graph holds its own copy
    assert g2.u[0] != 5.0 and not g2.u.flags.writeable
    for q in (0.37, 1.0, 1.3, 2.9, 41.0):
        assert same_bits(rg.evaluate(g2, q), reference_evaluate(g2, q))
        assert not np.array_equal(rg.evaluate(g2, q), rg.evaluate(g, q))
    for f in (None, *range(g.weights.d)):
        sys2 = rg.component_functions(g2, -1, 1, subgraph=f)
        grid, bp, values, slopes, labels = reference_extract(g2, -1, 1, f)
        assert same_bits(sys2.breakpoints, bp)
        assert same_bits(sys2.values, values)
        assert same_bits(sys2.slopes, slopes)
        assert [tuple(sys2.alphabet[c] for c in row) for row in sys2.labels] == labels
