"""The array-backed piece table against the per-piece loops it replaces.

The reference functions are the loop forms that work one piece at a
time: the per-subinterval extraction (all-pairs crossings, one sort per
piece, in `reference_extraction`), and below `cmd_export`; those that
read a piece table walk the rows of `conftest.WindowRows.pieces`.
Beside them is `evaluate` without the period line table: a linear scan
over sigma and the active lines rebuilt on every call.  The array forms
do the same float operations in the same order, so results must agree
exactly: bit-identical tables and values and the same CSV bytes.  The
exceptions are a window other than period 0, the tau^t tile of period
0, pinned bit for bit to a loop that scales it while the per-period
extraction stays its oracle up to rounding; and `evaluate`, held within
1e-12 q W of the boundary-snap formula it replaced and within 1e-14 q W
of exact rational evaluation.

`reference_check_system` and `reference_check_proper_direct` check a
piece table one piece at a time; `test_analyze` holds them as the
independent oracle of the statuses `run_all_checks` reads off the line
table.
"""

import dataclasses
import functools
import json
import sys
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from math import floor, inf, lcm, log
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
from regraph import analyze, graph
from regraph.cli import load_config, main

from conftest import make_instance, window_grid, window_rows
from reference_extraction import reference_active_lines, reference_dedupe, reference_extract
from test_export_csv import ladder_l13m11

N_INSTANCES = 50
N_EXTRACT = 60


def reference_rel(x, q, w):
    """x / (w q), and 0 where x is 0."""
    if x == 0.0:
        return 0.0
    with np.errstate(divide="ignore"):
        return float(np.float64(x) / q / w)


def reference_check_system(sys, tol=1e-9):
    """Every test is x > tol * W * q, W the largest |slope| in the table."""
    expected = tuple(sorted(sys.alphabet))
    worst = 0.0
    witness = None
    w_max = max(abs(float(s)) for piece in sys.pieces for s in piece.slopes)
    for pi, piece in enumerate(sys.pieces):
        if tuple(sorted(piece.labels)) != expected:
            return analyze.CheckResult(
                "system", analyze.FAIL, tol, -1.0, {"piece": pi, "q": piece.q_lo},
                note="slope labels are not a permutation of the alphabet")
        gaps = np.diff(piece.values)
        if np.any(-gaps > tol * w_max * piece.q_lo):
            return analyze.CheckResult(
                "system", analyze.FAIL, tol, reference_rel(float(gaps.min()), piece.q_lo, w_max),
                {"piece": pi, "q": piece.q_lo}, note="components out of order")
        for q in (piece.q_lo, 0.5 * (piece.q_lo + piece.q_hi), piece.q_hi):
            resid = abs(float(np.sum(piece.values_at(q))))
            rel = reference_rel(resid, q, w_max)
            if rel > worst:
                worst, witness = rel, {"q": q, "kind": "sum"}
            if resid > tol * w_max * q:
                return analyze.CheckResult("system", analyze.FAIL, tol, rel, {"q": q},
                                           note="component sum off the expected line")
    for pi in range(len(sys.pieces) - 1):
        left, right = sys.pieces[pi], sys.pieces[pi + 1]
        jump = np.abs(left.values_at(left.q_hi) - right.values)
        j = float(jump.max())
        rel = reference_rel(j, right.q_lo, w_max)
        if rel > worst:
            worst, witness = rel, {"q": right.q_lo, "kind": "jump", "i": int(jump.argmax()) + 1}
        if j > tol * w_max * right.q_lo:
            return analyze.CheckResult("system", analyze.FAIL, tol, rel,
                                       {"q": right.q_lo, "i": int(jump.argmax()) + 1},
                                       note="component discontinuous across breakpoint")
    first = sys.pieces[0]
    over = float(np.max(np.abs(first.values))) - w_max * sys.q_lo
    if over > tol * w_max * sys.q_lo:
        return analyze.CheckResult("system", analyze.FAIL, tol,
                                   reference_rel(over, sys.q_lo, w_max), {"q": sys.q_lo},
                                   note="first-period values inconsistent with vanishing at 0")
    return analyze.CheckResult("system", analyze.PASS, tol, worst, witness)


def reference_values_at(sys, q):
    idx = int(np.searchsorted(sys.breakpoints, q, side="right")) - 1
    return sys.pieces[min(max(idx, 0), len(sys.pieces) - 1)].values_at(q)


def reference_check_proper_direct(sys, tol=1e-9):
    """A gap is open when it exceeds tol * W * q, W the largest |slope| in the
    table, and a slack fails below -tol * W."""
    best = np.inf
    witness = None
    w_max = max(abs(float(s)) for piece in sys.pieces for s in piece.slopes)
    for b in range(1, len(sys.pieces)):
        left, right = sys.pieces[b - 1], sys.pieces[b]
        q = sys.breakpoints[b]
        vals = right.values
        lsum = np.cumsum(left.slopes)
        rsum = np.cumsum(right.slopes)
        for i in range(1, sys.n):
            gap = vals[i] - vals[i - 1]
            if gap <= tol * w_max * q:
                continue
            slack = float(rsum[i - 1] - lsum[i - 1])
            if slack < best:
                best, witness = slack, {"q": float(q), "i": i}
    if witness is None:
        best = 0.0
    status = analyze.PASS if best >= -tol * w_max else analyze.FAIL
    return analyze.CheckResult("proper-direct", status, tol, float(best), witness)


def reference_export(cfg) -> bytes:
    sys_ = window_rows(rg.component_functions(cfg.graph(), cfg.t_min, cfg.t_max))
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
        cfg = load_config(random_doc(i))
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
        rows, reference = sys.values_at(qs), window_rows(sys)
        assert rows.shape == (len(qs), sys.n)
        for q, row in zip(qs, rows):
            assert np.array_equal(row, sys.values_at(q))
            assert np.array_equal(row, reference_values_at(reference, q))
        assert sys.values_at(np.array([])).shape == (0, sys.n)


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


def reference_tile(g, grid0, sys0, t_lo, t_hi):
    """grid, breakpoints and values of the window: period 0's times tau^t, period by period."""
    tau = g.schedule.tau
    grid, bp, values = [], [], []
    for t in range(t_lo, t_hi + 1):
        grid += [tau**t * q for q in grid0[:-1]]
        bp += [tau**t * q for q in sys0.breakpoints[:-1]]
        values += [tau**t * row for row in sys0.values]
    grid.append(tau ** (t_hi + 1))
    bp.append(tau ** (t_hi + 1))
    return np.array(grid), np.array(bp), np.array(values)


def check_tiled_window(g, t_lo, t_hi):
    """Period 0 is the cell loop's, bit for bit; the window is its tiles, bit
    for bit; and the cell loop over the window agrees up to rounding."""
    table0 = rg.component_functions(g, 0, 0)
    sys0, grid0 = window_rows(table0), window_grid(g, table0)
    grid, bp, values, slopes, labels = reference_extract(g, 0, 0)
    assert same_bits(grid0, grid)
    assert same_bits(sys0.breakpoints, bp)
    assert same_bits(sys0.values, values)
    assert same_bits(sys0.slopes, slopes)
    assert [tuple(sys0.alphabet[c] for c in row) for row in sys0.labels] == labels

    table = rg.component_functions(g, t_lo, t_hi)
    sys, sys_grid = window_rows(table), window_grid(g, table)
    periods = t_hi - t_lo + 1
    grid, bp, values = reference_tile(g, grid0, sys0, t_lo, t_hi)
    assert same_bits(sys_grid, grid)
    assert same_bits(sys.breakpoints, bp)
    assert same_bits(sys.values, values)
    assert same_bits(sys.slopes, np.tile(sys0.slopes, (periods, 1)))
    assert np.array_equal(sys.labels, np.tile(sys0.labels, (periods, 1)))
    assert (sys.q_lo, sys.q_hi) == (grid[0], grid[-1])

    grid, bp, values, slopes, labels = reference_extract(g, t_lo, t_hi)
    assert same_bits(sys_grid, grid)
    assert len(sys.breakpoints) == len(bp)
    assert [tuple(sys.alphabet[c] for c in row) for row in sys.labels] == labels
    assert same_bits(sys.slopes, slopes)
    assert np.all(np.abs(sys.breakpoints - bp) <= 1e-14 * bp)
    w_max = np.max(np.abs(slopes))
    assert np.all(np.abs(sys.values - values) <= 1e-14 * w_max * bp[:-1, None])


def test_extraction_matches_loop(all_fixture_instances):
    cases = [(g, 0, 2) for g in all_fixture_instances.values()]
    cases += [(make_instance(*args), -1, 1) for args in DEGENERATE]
    for i in range(N_EXTRACT):
        cfg = load_config(extract_doc(i))
        cases.append((cfg.graph(), cfg.t_min, cfg.t_max))
    for g, t_lo, t_hi in cases:
        check_tiled_window(g, t_lo, t_hi)
    assert {g.weights.d for g, _, _ in cases} >= {1, 2}


def test_window_memory_does_not_grow_with_periods():
    # only period 0's rows are stored, and the window tiles just its 1-D grid
    # and breakpoints: 20 periods of the ladder's (13,11) instance peak within
    # 1.25x of one period
    g = load_config(ladder_l13m11(1)).graph()

    def peak(periods):
        tracemalloc.start()
        try:
            rg.component_functions(g, 0, periods - 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = peak(1)
    assert peak(20) <= 1.25 * base


def test_pieces_are_the_window_indices(fig_instance):
    # pieces is the window's piece indices, and piece i reads period 0's row
    # i mod P0 times the power of its period, the row rule of values_at
    for t_hi in (0, 2):
        sys = rg.component_functions(fig_instance, 0, t_hi)
        assert sys.pieces == range(len(sys.breakpoints) - 1)
        p0 = len(sys.values0)
        for i in sys.pieces:
            assert np.array_equal(sys.values_at(sys.breakpoints[i]),
                                  sys.power[i // p0] * sys.values0[i % p0])


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


def reference_evaluate(g, q):
    """evaluate's rule on rebuilt lines: x = q / tau^s in period 0, s stepped
    once where x falls outside [1, tau), the last row j with sigma_j <= x by a
    linear scan, scaled back by tau^s in halves."""
    if q == 0:
        return np.zeros(g.weights.n)
    tau, sig = g.schedule.tau, g.schedule.sigmas
    s = floor(log(q) / log(tau))
    a, b = tau ** (s // 2), tau ** (s - s // 2)
    x = q / a / b
    if x < 1 or x >= tau:  # one step of s where log q / log tau rounded across tau^s
        s = s + 1 if x >= tau else s - 1
        a, b = tau ** (s // 2), tau ** (s - s // 2)
        x = q / a / b
    j = len(sig) - 1
    while j > 0 and sig[j] > x:
        j -= 1
    wrapped, sig_r, slope, height = reference_lines(g, j)
    x0 = np.where(wrapped, tau**-1, 1.0) * sig_r
    vals = x0 * height + slope * (x - x0)
    vals.sort()
    return vals * a * b


def snap_evaluate(g, q):
    """evaluate as it was with a boundary snap: q placed in period t by
    floor(log_tau q) corrected by exact power comparisons, then moved onto
    the next grid abscissa when within 1e-12 of it; tau^s split in two halves
    only where a power of tau near q leaves the float range."""
    snap, log_range = 1e-12, 700.0
    if q == 0:
        return np.zeros(g.weights.n)
    tau, sig, k = g.schedule.tau, g.schedule.sigmas, g.weights.k
    s = floor(log(q) / log(tau))
    a = b = 1.0
    if (abs(s) + 2) * log(tau) >= log_range:
        a, b = tau ** (s // 2), tau ** (s - s // 2)
    x = q / a / b
    t = floor(log(x) / log(tau))
    while tau ** (t + 1) <= x:
        t += 1
    while tau**t > x:
        t -= 1
    if x >= tau ** (t + 1) * (1.0 - snap):
        t += 1
    xt = x / tau**t
    j = k - 1
    while j > 0 and sig[j] > xt:
        j -= 1
    if xt >= (sig[j + 1] if j + 1 < k else tau) * (1.0 - snap):
        j += 1
        if j == k:
            t, j = t + 1, 0
    wrapped, sig_r, slope, height = reference_lines(g, j)
    x0 = np.where(wrapped, tau ** (t - 1), tau**t) * sig_r
    vals = x0 * height + slope * (x - x0)
    vals.sort()
    return vals * a * b


def near_grid_points(g, rng, n):
    """n grid abscissae tau^t sigma_j with t in -12..12, every grid abscissa
    of periods -1..1, and points within 1e-13 and 2e-12 of each and one ulp
    either side."""
    tau, sig = g.schedule.tau, np.asarray(g.schedule.sigmas)
    ts = rng.integers(-12, 13, size=n)
    grid = np.concatenate([tau ** ts * sig[rng.integers(len(sig), size=len(ts))],
                           *(tau**t * sig for t in (-1, 0, 1))])
    return np.concatenate([grid, *(grid * (1 + e) for e in (-1e-13, 1e-13, -2e-12, 2e-12)),
                           np.nextafter(grid, 0), np.nextafter(grid, np.inf)])


def far_grid_points(g):
    """Every grid abscissa of the periods +-floor(700 / ln tau) and of the one
    below each, near the ends of the float range, and the points within 1e-13
    of each and one ulp either side."""
    tau, sig = g.schedule.tau, np.asarray(g.schedule.sigmas)
    top = floor(700 / log(tau))
    grid = np.concatenate([tau**t * sig for t in (top - 1, top, -top - 1, -top)])
    return np.concatenate([grid, grid * (1 - 1e-13), grid * (1 + 1e-13),
                           np.nextafter(grid, 0), np.nextafter(grid, np.inf)])


def evaluate_points(g, rng, n_log):
    """q log-uniform over tau^-12 .. tau^12, the near_grid_points, q below 1,
    and q past the periods whose powers of tau are within e^700."""
    tau = g.schedule.tau
    span = 12 * log(tau)
    qs = [np.exp(rng.uniform(-span, span, n_log)), near_grid_points(g, rng, n_log // 2)]
    big = 700.0 / log(tau)
    qs.append([0.0, 1e-3, 0.5, 1 - 1e-16, 1.0, 5e-324, 1e-300, sys.float_info.min,
               1e300, sys.float_info.max, tau ** -floor(big - 2), tau ** floor(big - 2)])
    qs.append(np.exp(rng.uniform(-700, 709, n_log // 4)))
    return np.concatenate([np.ravel(a) for a in qs])


def evaluate_cases(rng):
    """(graph, n_log): the four configs, 20 seeded random instances and one (13,11)."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    cases = [(load_config(path).graph(), 400) for path in sorted(configs.glob("*.json"))]
    cases += [(load_config(extract_doc(i)).graph(), 60) for i in range(20)]
    alpha = rng.uniform(0.05, 3.0, 13)
    beta = rng.uniform(0.05, 3.0, 11)
    cases.append((make_instance(13, 11, alpha, beta * alpha.sum() / beta.sum(),
                                rng.uniform(1.05, 1.15, 143)), 400))
    return cases


def test_evaluate_matches_rebuilt_lines():
    # bit for bit against the rebuilt lines; within 1e-12 q W (W the largest
    # |slope|) of the snap formula, whose snap extrapolates a row by up to 1e-12 q
    rng = np.random.default_rng(11)
    for g, n_log in evaluate_cases(rng):
        w = np.max(np.abs(g.lines.slope))
        for q in evaluate_points(g, rng, n_log).tolist():
            with np.errstate(over="ignore"):
                got = rg.evaluate(g, q)
                ref = reference_evaluate(g, q)
                old = snap_evaluate(g, q)
            assert same_bits(got, ref), q
            with np.errstate(invalid="ignore"):  # inf - inf where both overflow
                assert (np.where(got == old, 0.0, np.abs(got - old)) <= 1e-12 * q * w).all(), q


class ExactLines:
    """The values the float line data rebuilt from g's fields define, in exact
    rationals: at q, period t and row j by exact comparison of q with
    tau^t sigma_j, then every line x0 height + slope (x - x0) at x = q / tau^t,
    times tau^t."""

    def __init__(self, g):
        self.g = g
        self.tau = Fraction(g.schedule.tau)
        self.sig = [Fraction(s) for s in g.schedule.sigmas]
        self.power = functools.lru_cache(maxsize=None)(lambda t: self.tau**t)
        self.row = functools.lru_cache(maxsize=None)(self._row)

    def _row(self, j):
        wrapped, sig_r, slope, height = reference_lines(self.g, j)
        x0 = np.where(wrapped, self.g.schedule.tau**-1, 1.0) * sig_r
        return [(Fraction(a), Fraction(a * h), Fraction(s))
                for a, h, s in zip(x0.tolist(), height.tolist(), slope.tolist())]

    def __call__(self, q):
        q = Fraction(q)
        t = floor(log(q) / log(self.g.schedule.tau))
        while self.power(t + 1) <= q:
            t += 1
        while self.power(t) > q:
            t -= 1
        j = bisect_right(self.sig, q / self.power(t)) - 1
        # tau^t (y0 + s (x - x0)) with tau^t x = q: no product of two long fractions,
        # sorted as integer numerators over one common denominator
        vals = [self.power(t) * (y0 - s * x0) + s * q for x0, y0, s in self.row(j)]
        den = lcm(*(v.denominator for v in vals))
        return sorted(vals, key=lambda v: v.numerator * (den // v.denominator))


def test_evaluate_exact_near_grid():
    # an x that rounds across a grid abscissa reads the neighbouring row, which
    # agrees there: the error stays at rounding level, not 1e-12 q extrapolation.
    # Near the ends of the float range log q / log tau can round across a power
    # of tau; s then steps, so x is not read 1e-13 outside [1, tau)
    rng = np.random.default_rng(13)
    for i, (g, n_log) in enumerate(evaluate_cases(rng)):
        exact = ExactLines(g)
        w = float(np.max(np.abs(g.lines.slope)))
        qs = near_grid_points(g, rng, n_log // 8)
        qs = rng.choice(qs, min(len(qs), 700), replace=False)
        if i < 8:  # the four configs and four random instances
            qs = np.append(qs, far_grid_points(g))
        for q in qs.tolist():
            got = rg.evaluate(g, q).tolist()
            err = max(abs(Fraction(a) - b) for a, b in zip(got, exact(q)))
            assert float(err) <= 1e-14 * q * w, q


#: weights near the float range: some anchors y0 and period-0 values do not
#: fit a float, yet every value below period 0 does (|P(q)| <= q W)
NEAR_TOP = {"l": 3, "m": 4, "alpha": [1e306] * 3, "beta": [7.5e305] * 4,
            "rho": [2] * 12, "window": {"t_min": 0, "t_max": 0}}


def test_evaluate_overflowing_period_zero_anchor():
    # evaluate reads the node heights one period lower and agrees with the
    # snap formula, which placed the lines in q's own period
    g = load_config(NEAR_TOP).graph()
    assert not np.isfinite(g.lines.y0).all()
    w = float(np.max(np.abs(g.lines.slope)))
    rng = np.random.default_rng(17)
    for q in evaluate_points(g, rng, 400).tolist():
        got = rg.evaluate(g, q)
        assert not np.isnan(got).any(), q
        assert (got[1:] >= got[:-1]).all(), q
        if q < 1:
            assert np.isfinite(got).all(), q
        with np.errstate(over="ignore", invalid="ignore"):
            old = snap_evaluate(g, q)
        if np.isfinite(old).all():
            assert (np.abs(got - old) <= 1e-12 * q * w).all(), q


@pytest.fixture
def guarded_calls(monkeypatch):
    """The np.errstate entries while the test runs: evaluate enters one on
    its guarded route only, the unguarded one none."""
    calls, errstate = [], np.errstate

    def counted(**kwargs):
        calls.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    return calls


def test_evaluate_routes_agree(monkeypatch, guarded_calls):
    # the unguarded route gives the guarded route's bits wherever it is taken;
    # a bound of inf forces the guarded route.  Most points take the unguarded one
    rng = np.random.default_rng(19)
    calls = guarded = 0
    for g, n_log in evaluate_cases(rng) + [(load_config(NEAR_TOP).graph(), 400)]:
        qs = evaluate_points(g, rng, n_log).tolist()
        assert g.lines.bound > 0  # its reduction enters np.errstate once
        guarded_calls.clear()
        got = [rg.evaluate(g, q) for q in qs]
        calls, guarded = calls + len(qs), guarded + len(guarded_calls)
        if g.lines.bound == inf:  # the near-top graph: every q > 0 is guarded
            assert len(guarded_calls) == len(qs) - qs.count(0.0)
        with monkeypatch.context() as patch:
            patch.setitem(vars(g.lines), "bound", inf)
            for q, values in zip(qs, got):
                assert same_bits(values, rg.evaluate(g, q)), q
    assert guarded < 0.2 * calls, (guarded, calls)


def test_evaluate_route_threshold(guarded_calls):
    # l = m = 1, alpha = beta = [4], rho = [2]: q on both sides of the first
    # period s whose tau * bound * (tau^s + 1) reaches half the largest float.
    # Each side equals the rebuilt lines, +-inf exactly where they overflow,
    # and raises no RuntimeWarning (an error under this suite's filter)
    g = load_config({"l": 1, "m": 1, "alpha": [4], "beta": [4], "rho": [2],
                     "window": {"t_min": 0, "t_max": 1}}).graph()
    tau, bound = g.schedule.tau, g.lines.bound
    assert bound == np.max(np.abs(g.lines.y0 / g.lines.x0)) + 4
    top = floor(log(sys.float_info.max / 2 / (tau * bound)) / log(tau))
    while tau * bound * (tau**top + 1) < sys.float_info.max / 2:
        top += 1
    overflows = []
    for s in range(top - 3, 1024):  # tau^1023 * nextafter(tau, 0) is the largest float
        for x in (1.0, 1.25, 1.5, np.nextafter(tau, 0)):
            q = tau**s * x
            guarded_calls.clear()
            got = rg.evaluate(g, q)
            assert len(guarded_calls) == (s >= top), q
            with np.errstate(over="ignore"):
                ref = reference_evaluate(g, q)
            assert same_bits(got, ref), q
            overflows.append(np.isinf(got).any())
    assert overflows[-1] and not overflows[0]


def test_line_table_follows_replaced_heights(l4m2_instance):
    g = l4m2_instance
    with pytest.raises(ValueError):
        g.u[0] = 0.0
    with pytest.raises(ValueError):
        g.lines.y0[0, 0] = 0.0
    u2 = g.u + np.linspace(0.01, 0.02, g.weights.k)
    g2 = dataclasses.replace(g, u=u2)
    u2[0] = 5.0  # the graph holds its own copy
    assert g2.u[0] != 5.0 and not g2.u.flags.writeable
    for q in (0.37, 1.0, 1.3, 2.9, 41.0):
        assert same_bits(rg.evaluate(g2, q), reference_evaluate(g2, q))
        assert not np.array_equal(rg.evaluate(g2, q), rg.evaluate(g, q))
    check_tiled_window(g2, -1, 1)


def test_line_table_order():
    # each kind's lines sit in ascending segment index, the order the
    # extraction ranks ties by, and a line wrapped (r > j) is anchored at
    # sigma_r / tau, below 1, the others at sigma_r; the extraction codes a
    # line's slope label from r, rising r mod l and falling l + r mod m
    cases = [load_config(extract_doc(i)).graph() for i in range(20)]
    cases += [make_instance(l, m, [1.0] * l, [l / m] * m, [1.5] * lcm(l, m))
              for l, m in ((1, 1), (4, 2), (2, 4), (3, 3), (6, 4), (5, 1))]
    for g in cases:
        w, lines = g.weights, g.lines
        for j in range(w.k):
            ref = reference_active_lines(g, 0, j)
            ref = sorted(ref[: w.l], key=lambda a: a[1]) + sorted(ref[w.l:], key=lambda a: a[1])
            assert lines.r[j].tolist() == [a[1] for a in ref]
            sig = [g.schedule.sigmas[a[1]] for a in ref]
            assert same_bits(lines.x0[j], [s * g.tau**-1 if a[2] == -1 else s
                                           for s, a in zip(sig, ref)])
            assert (lines.x0[j] < 1.0).tolist() == (lines.r[j] > j).tolist()
            code = np.where(np.arange(w.n) < w.l, lines.r[j] % w.l, w.l + lines.r[j] % w.m)
            assert [w.slope_labels[c] for c in code] == [a[6] for a in ref]
            assert lines.slope[j].tolist() == [a[5] for a in ref]
