import sys

import numpy as np
import pytest

import regraph as rg
from regraph.graph import EmptyWindow, NegativeAbscissa, NonFiniteAbscissa
from regraph.render import _chords

from conftest import make_instance, random_instance
from reference_extraction import reference_extract, reference_table_values


# ------------------------------------------------------------------ chords

def chord_ids(g, t_lo, t_hi):
    """(kind, r, t) of every chord meeting the window, in render's order:
    period, r, rising before falling.  From period t_lo - 1 only those
    reaching past tau^t_lo, i.e. with r + span > k."""
    w = g.weights
    return [(kind, r, t) for t in range(t_lo - 1, t_hi + 1) for r in range(w.k)
            for kind, span in (("A", w.l), ("B", w.m)) if t >= t_lo or r + span > w.k]


def chords(g, t_lo, t_hi):
    """{(kind, r, t): (start, end)} of the chords render_svg draws."""
    t, falls, x0, y0, x1, y1 = _chords(g, t_lo, t_hi)
    ids = chord_ids(g, t_lo, t_hi)
    assert [(kind, tt) for kind, _, tt in ids] == list(zip(np.where(falls, "B", "A"), t))
    return {i: ((a, b), (c, d)) for i, a, b, c, d in zip(ids, x0, y0, x1, y1)}


def test_node_points(fig_instance):
    g = fig_instance
    segs = chords(g, 0, 2)
    assert segs[("A", 0, 0)][0] == (1.0, g.u[0])
    assert segs[("B", 0, 0)][0] == (1.0, g.v[0])
    x2, y2 = segs[("B", 0, 2)][0]
    assert x2 == pytest.approx(16.0, rel=1e-12)
    assert y2 == pytest.approx(16.0 * g.v[0], rel=1e-12)


def test_node_period_wrap(fig_instance):
    g = fig_instance
    w = g.weights
    # index k in period t is the same point as index 0 in period t+1
    segs = chords(g, 0, 1)
    assert segs[("B", w.k - w.m, 0)][1] == pytest.approx(segs[("A", 0, 1)][0], rel=1e-12)


def test_segment_counts(fig_instance):
    g = fig_instance
    t, falls, x0, *_ = _chords(g, 0, 0)
    assert len(t) == 15  # 6 rising + 6 falling + 3 clipped protruders
    assert (t == 0).sum() == 12
    prot = t == -1
    assert prot.sum() == 3
    assert (x0[prot] == 1.0).all()  # start clipped to tau^0
    assert (~falls[prot]).sum() == 2
    assert falls[prot].sum() == 1


def test_segment_count_formula():
    rng = np.random.default_rng(4040)
    for _ in range(20):
        g = random_instance(rng)
        w = g.weights
        t_lo = int(rng.integers(-2, 2))
        t_hi = t_lo + int(rng.integers(0, 3))
        segs = chords(g, t_lo, t_hi)
        assert len(segs) == (t_hi - t_lo + 1) * 2 * w.k + (w.n - 2)


def test_segment_slopes_match_labels():
    rng = np.random.default_rng(4041)
    for _ in range(15):
        g = random_instance(rng)
        w = g.weights
        for (kind, r, _), ((x0, y0), (x1, y1)) in chords(g, 0, 1).items():
            want = w.alpha_at(r + 1) if kind == "A" else -w.beta_at(r + 1)
            assert (y1 - y0) / (x1 - x0) == pytest.approx(want, abs=1e-9)


def test_segment_scaling(fig_instance):
    g = fig_instance
    tau = g.schedule.tau
    s0 = chords(g, 0, 0)
    s1 = chords(g, 1, 1)
    assert len(s0) == len(s1)
    for (kind, r, t), (start, end) in s0.items():
        b_start, b_end = s1[(kind, r, t + 1)]
        assert np.allclose(np.array(b_start), tau * np.array(start), rtol=1e-12)
        assert np.allclose(np.array(b_end), tau * np.array(end), rtol=1e-12)


def test_segment_joints(fig_instance):
    # rising segment ending at an upper node meets the falling segment
    # starting there, and vice versa
    g = fig_instance
    w = g.weights
    segs = chords(g, 0, 1)
    for r in range(w.k):
        a = segs[("A", r, 0)]
        rr, tt = (r + w.l) % w.k, (r + w.l) // w.k
        b = segs[("B", rr, tt)]
        assert a[1] == pytest.approx(b[0], rel=1e-9)
    for r in range(w.k):
        b = segs[("B", r, 0)]
        rr, tt = (r + w.m) % w.k, (r + w.m) // w.k
        a = segs[("A", rr, tt)]
        assert b[1] == pytest.approx(a[0], rel=1e-9)


def test_empty_window_rejected(fig_instance):
    with pytest.raises(EmptyWindow):
        rg.render_svg(fig_instance, 2, 1)
    with pytest.raises(EmptyWindow):
        rg.component_functions(fig_instance, 1, 0)


# -------------------------------------------------------------- evaluation

def test_evaluate_origin(fig_instance):
    assert np.array_equal(rg.evaluate(fig_instance, 0.0), np.zeros(5))


def test_evaluate_negative_rejected(fig_instance):
    with pytest.raises(NegativeAbscissa):
        rg.evaluate(fig_instance, -0.5)


@pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf")])
def test_evaluate_non_finite_rejected(fig_instance, q):
    with pytest.raises(NonFiniteAbscissa):
        rg.evaluate(fig_instance, q)
    assert issubclass(NonFiniteAbscissa, ValueError)


@pytest.mark.parametrize("q", [5e-324, 1e-310, 1e-305, 1e-300, 1e300, 1.7e308,
                               1.7976931348623157e308])
def test_evaluate_extreme_q_finite(all_fixture_instances, q):
    # with tau = 10 the period power below 5e-324 rounds to zero
    tau10 = make_instance(1, 1, (1.0,), (1.0,), [10.0])
    for g in [*all_fixture_instances.values(), tau10]:
        vals = rg.evaluate(g, q)
        assert vals.shape == (g.weights.n,)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) >= 0)
        # P(q) = tau^s P(q / tau^s), checked where the result is a normal float
        if 1e-300 < q < 1e308:
            s = 200 if q > 1 else -200
            ref = g.tau**s * rg.evaluate(g, q / g.tau**s)
            assert np.allclose(vals, ref, rtol=1e-12, atol=0.0)


def test_evaluate_fig_at_one(fig_instance):
    g = fig_instance
    vals = rg.evaluate(g, 1.0)
    assert len(vals) == 5
    assert np.all(np.diff(vals) >= 0)
    assert np.any(np.isclose(vals, g.u[0], atol=1e-12))
    assert np.any(np.isclose(vals, g.v[0], atol=1e-12))
    assert g.v[0] > g.u[0]


def test_evaluate_scaling():
    rng = np.random.default_rng(9090)
    for _ in range(15):
        g = random_instance(rng)
        tau = g.schedule.tau
        for _ in range(10):
            q = float(rng.uniform(0.2, 20.0))
            a = rg.evaluate(g, q)
            b = rg.evaluate(g, tau * q)
            assert np.allclose(b, tau * a, rtol=1e-9, atol=1e-12)


def test_evaluate_sum_zero_everywhere():
    rng = np.random.default_rng(9091)
    for _ in range(15):
        g = random_instance(rng)
        for _ in range(10):
            q = float(rng.uniform(0.05, 50.0))
            vals = rg.evaluate(g, q)
            assert len(vals) == g.weights.n
            assert abs(vals.sum()) <= 1e-9 * max(1.0, q)


def test_evaluate_boundary_continuity(fig_instance):
    g = fig_instance
    for q in (1.0, 4.0, 2.0, 2 ** (1 / 3)):
        lo = rg.evaluate(g, q * (1 - 1e-13))
        hi = rg.evaluate(g, q * (1 + 1e-13))
        at = rg.evaluate(g, q)
        assert np.allclose(lo, at, atol=1e-9)
        assert np.allclose(hi, at, atol=1e-9)


def test_evaluate_below_first_period(fig_instance):
    vals = rg.evaluate(fig_instance, 0.01)
    assert abs(vals.sum()) <= 1e-9


# ---------------------------------------------------------------- extraction

def test_grid_values_fig(fig_instance):
    sys1 = rg.component_functions(fig_instance, 0, 0)
    c = 2 ** (1 / 3)
    want = [1, c, c * c, 2, 2 * c, 2 * c * c, 4]
    assert np.allclose(sys1.grid, want, rtol=1e-12)
    assert sys1.q_lo == 1.0 and sys1.q_hi == 4.0


def test_pieces_tile_window(fig_instance):
    sys1 = rg.component_functions(fig_instance, 0, 2)
    assert sys1.pieces[0].q_lo == sys1.q_lo
    assert sys1.pieces[-1].q_hi == pytest.approx(sys1.q_hi, rel=1e-15)
    for left, right in zip(sys1.pieces[:-1], sys1.pieces[1:]):
        assert left.q_hi == right.q_lo
    assert len(sys1.breakpoints) == len(sys1.pieces) + 1


def test_piece_slopes_are_label_permutation():
    rng = np.random.default_rng(31337)
    for _ in range(12):
        g = random_instance(rng)
        sys1 = rg.component_functions(g, 0, 1)
        alphabet = sorted(g.weights.slope_labels)
        for piece in sys1.pieces:
            assert sorted(piece.labels) == alphabet
            for lab, s in zip(piece.labels, piece.slopes):
                kind, i = lab
                want = g.weights.alpha[i - 1] if kind == "A" else -g.weights.beta[i - 1]
                assert s == want


def test_components_sorted_and_zero_sum():
    rng = np.random.default_rng(31338)
    for _ in range(12):
        g = random_instance(rng)
        sys1 = rg.component_functions(g, 0, 1)
        for piece in sys1.pieces:
            for q in (piece.q_lo, 0.5 * (piece.q_lo + piece.q_hi), piece.q_hi):
                vals = piece.values_at(q)
                assert np.all(np.diff(vals) >= -1e-9 * max(1.0, q))
                assert abs(vals.sum()) <= 1e-9 * max(1.0, q)


def test_component_continuity():
    rng = np.random.default_rng(31339)
    for _ in range(12):
        g = random_instance(rng)
        sys1 = rg.component_functions(g, 0, 1)
        for left, right in zip(sys1.pieces[:-1], sys1.pieces[1:]):
            jump = np.abs(left.values_at(left.q_hi) - right.values)
            assert jump.max() <= 1e-9 * max(1.0, right.q_lo)


def test_extraction_matches_evaluate():
    rng = np.random.default_rng(31340)
    for _ in range(10):
        g = random_instance(rng)
        sys1 = rg.component_functions(g, 0, 2)
        qs = rng.uniform(sys1.q_lo, sys1.q_hi, size=25)
        for q in qs:
            assert np.allclose(
                sys1.values_at(float(q)), rg.evaluate(g, float(q)),
                rtol=1e-9, atol=1e-9,
            )


def test_self_similarity_of_extraction(fig_instance):
    g = fig_instance
    tau = g.schedule.tau
    s0 = rg.component_functions(g, 0, 0)
    s1 = rg.component_functions(g, 1, 1)
    assert len(s0.pieces) == len(s1.pieces)
    assert np.allclose(s1.breakpoints, tau * s0.breakpoints, rtol=1e-9)
    for a, b in zip(s0.pieces, s1.pieces):
        assert np.array_equal(a.slopes, b.slopes)
        assert np.allclose(b.values, tau * a.values, rtol=1e-9, atol=1e-12)


def test_two_component_instance(classical_instance):
    sys1 = rg.component_functions(classical_instance, 0, 0)
    # one interior crossing splits the single period into two pieces
    assert len(sys1.pieces) == 2
    cross = sys1.breakpoints[1]
    assert 1.0 < cross < 3.0
    assert np.array_equal(sys1.pieces[0].slopes, [1.0, -1.0])
    assert np.array_equal(sys1.pieces[1].slopes, [-1.0, 1.0])
    for piece in sys1.pieces:
        for q in (piece.q_lo, piece.q_hi):
            vals = piece.values_at(q)
            assert vals[1] == pytest.approx(-vals[0], abs=1e-12)


def test_coincident_lines_survive_extraction():
    # duplicated weights give parallel equal-slope lines; extraction must
    # stay total and keep the alphabet intact
    g = make_instance(2, 2, (1.0, 1.0), (1.0, 1.0), [1.5, 1.5])
    sys1 = rg.component_functions(g, 0, 1)
    alphabet = sorted(g.weights.slope_labels)
    for piece in sys1.pieces:
        assert sorted(piece.labels) == alphabet


@pytest.mark.parametrize("call", [
    lambda g: rg.component_functions(g, 0, 2000),
    lambda g: rg.render_svg(g, 0, 2000),
    lambda g: rg.run_all_checks(g, t_base=2000),
], ids=["component_functions", "render_svg", "run_all_checks"])
def test_window_power_overflow_is_typed(call):
    # tau = 2: tau^2000 is not a float
    g = make_instance(1, 1, (1.0,), (1.0,), [2.0])
    with pytest.raises(rg.ConstructError, match="^window: "):
        call(g)


WINDOW_CALLS = {
    "component_functions": lambda g, t: rg.component_functions(g, t, t),
    "render_svg": lambda g, t: rg.render_svg(g, t, t),
    "run_all_checks": lambda g, t: rg.run_all_checks(g, t_base=t),
}


# tau = 2: 2^-1022 is the smallest normal float, as in load_config's window rule
@pytest.mark.parametrize("t", [-1023, -1074, -2000])
@pytest.mark.parametrize("name", WINDOW_CALLS)
def test_window_below_normal_floats_is_typed(name, t):
    g = make_instance(1, 1, (1.0,), (1.0,), [2.0])
    with pytest.raises(rg.ConstructError, match="^window: "):
        WINDOW_CALLS[name](g, t)


@pytest.mark.parametrize("name", WINDOW_CALLS)
def test_window_at_smallest_normal_float_runs(name):
    g = make_instance(1, 1, (1.0,), (1.0,), [2.0])
    result = WINDOW_CALLS[name](g, -1022)
    if name == "component_functions":
        assert result.q_lo == sys.float_info.min
        assert np.isfinite(result.values).all()
    if name == "run_all_checks":
        assert result.ok


def test_subgraph_extraction(l4m2_instance):
    # the reference cell loop extracts each class as a system of its own
    g = l4m2_instance
    w = g.weights
    rng = np.random.default_rng(5)
    for f in range(w.d):
        labels, gamma = w.class_labels(f), w.class_gamma(f)
        table = reference_extract(g, 0, 1, subgraph=f)
        grid, bp, values, _, piece_labels = table
        assert values.shape == (len(bp) - 1, w.n_prime)
        for row in piece_labels:
            assert sorted(row) == sorted(labels)
        for q in rng.uniform(grid[0], grid[-1], size=12):
            vals = reference_table_values(table, float(q))
            assert abs(vals.sum() - gamma * q) <= 1e-9 * max(1.0, abs(gamma * q))


def test_subgraphs_partition_full_system(l2m2_instance):
    g = l2m2_instance
    rng = np.random.default_rng(6)
    full = rg.component_functions(g, 0, 1)
    subs = [reference_extract(g, 0, 1, subgraph=f) for f in range(g.weights.d)]
    for q in rng.uniform(full.q_lo, full.q_hi, size=20):
        merged = np.sort(np.concatenate([reference_table_values(s, float(q)) for s in subs]))
        assert np.allclose(merged, full.values_at(float(q)), rtol=1e-9, atol=1e-12)
