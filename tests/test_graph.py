import numpy as np
import pytest

import regraph as rg

from conftest import make_instance, random_instance


# ------------------------------------------------------------------- nodes

def test_node_points(fig_instance):
    g = fig_instance
    x, y = rg.lower_node(g, 0, 0)
    assert (x, y) == (1.0, g.u[0])
    x, y = rg.upper_node(g, 0, 0)
    assert (x, y) == (1.0, g.v[0])
    x2, y2 = rg.upper_node(g, 0, 2)
    assert x2 == pytest.approx(16.0, rel=1e-12)
    assert y2 == pytest.approx(16.0 * g.v[0], rel=1e-12)


def test_node_period_wrap(fig_instance):
    g = fig_instance
    # index k in period t is the same point as index 0 in period t+1
    assert rg.lower_node(g, 6, 0) == pytest.approx(rg.lower_node(g, 0, 1), rel=1e-12)


# ---------------------------------------------------------------- segments

def test_segment_counts(fig_instance):
    segs = rg.segments_in_window(fig_instance, 0, 0)
    assert len(segs) == 15  # 6 rising + 6 falling + 3 clipped protruders
    assert sum(1 for s in segs if s.t == 0) == 12
    prot = [s for s in segs if s.t == -1]
    assert len(prot) == 3
    assert all(s.clipped_start for s in prot)
    assert sum(1 for s in prot if s.kind == "A") == 2
    assert sum(1 for s in prot if s.kind == "B") == 1


def test_segment_count_formula():
    rng = np.random.default_rng(4040)
    for _ in range(20):
        g = random_instance(rng)
        w = g.weights
        t_lo = int(rng.integers(-2, 2))
        t_hi = t_lo + int(rng.integers(0, 3))
        segs = rg.segments_in_window(g, t_lo, t_hi)
        assert len(segs) == (t_hi - t_lo + 1) * 2 * w.k + (w.n - 2)


def test_segment_slopes_match_labels():
    rng = np.random.default_rng(4041)
    for _ in range(15):
        g = random_instance(rng)
        for s in rg.segments_in_window(g, 0, 1):
            assert s.geometric_slope == pytest.approx(s.slope, abs=1e-9)
            kind, i = s.label
            want = g.weights.alpha[i - 1] if kind == "A" else -g.weights.beta[i - 1]
            assert s.slope == want


def test_segment_scaling(fig_instance):
    g = fig_instance
    tau = g.schedule.tau
    s0 = rg.segments_in_window(g, 0, 0)
    s1 = rg.segments_in_window(g, 1, 1)
    assert len(s0) == len(s1)
    key = lambda s: (s.t, s.r, s.kind)
    for a, b in zip(sorted(s0, key=key), sorted(s1, key=key)):
        assert (b.t, b.r, b.kind) == (a.t + 1, a.r, a.kind)
        assert np.allclose(np.array(b.start), tau * np.array(a.start), rtol=1e-12)
        assert np.allclose(np.array(b.end), tau * np.array(a.end), rtol=1e-12)


def test_segment_joints(fig_instance):
    # rising segment ending at an upper node meets the falling segment
    # starting there, and vice versa
    g = fig_instance
    w = g.weights
    segs = {(s.kind, s.r, s.t): s for s in rg.segments_in_window(g, 0, 1)}
    for r in range(w.k):
        a = segs[("A", r, 0)]
        rr, tt = (r + w.l) % w.k, (r + w.l) // w.k
        b = segs[("B", rr, tt)]
        assert a.end == pytest.approx(b.start, rel=1e-9)
    for r in range(w.k):
        b = segs[("B", r, 0)]
        rr, tt = (r + w.m) % w.k, (r + w.m) // w.k
        a = segs[("A", rr, tt)]
        assert b.end == pytest.approx(a.start, rel=1e-9)


def test_empty_window_rejected(fig_instance):
    with pytest.raises(rg.EmptyWindow):
        rg.segments_in_window(fig_instance, 2, 1)
    with pytest.raises(rg.EmptyWindow):
        rg.component_functions(fig_instance, 1, 0)


# -------------------------------------------------------------- evaluation

def test_evaluate_origin(fig_instance):
    assert np.array_equal(rg.evaluate(fig_instance, 0.0), np.zeros(5))


def test_evaluate_negative_rejected(fig_instance):
    with pytest.raises(rg.NegativeAbscissa):
        rg.evaluate(fig_instance, -0.5)


@pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf")])
def test_evaluate_non_finite_rejected(fig_instance, q):
    with pytest.raises(rg.NonFiniteAbscissa):
        rg.evaluate(fig_instance, q)
    assert issubclass(rg.NonFiniteAbscissa, ValueError)


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


def test_subgraph_extraction(l4m2_instance):
    g = l4m2_instance
    w = g.weights
    rng = np.random.default_rng(5)
    for sg in g.subgraphs:
        sub = rg.component_functions(g, 0, 1, subgraph=sg.f)
        assert sub.n == w.n_prime
        assert sub.alphabet == sg.labels
        assert sub.gamma == pytest.approx(sg.gamma, abs=1e-14)
        for piece in sub.pieces:
            assert sorted(piece.labels) == sorted(sg.labels)
        for q in rng.uniform(sub.q_lo, sub.q_hi, size=12):
            vals = sub.values_at(float(q))
            assert abs(vals.sum() - sg.gamma * q) <= 1e-9 * max(1.0, abs(sg.gamma * q))


def test_subgraphs_partition_full_system(l2m2_instance):
    g = l2m2_instance
    rng = np.random.default_rng(6)
    full = rg.component_functions(g, 0, 1)
    subs = [rg.component_functions(g, 0, 1, subgraph=f) for f in range(g.weights.d)]
    for q in rng.uniform(full.q_lo, full.q_hi, size=20):
        merged = np.sort(np.concatenate([s.values_at(float(q)) for s in subs]))
        assert np.allclose(merged, full.values_at(float(q)), rtol=1e-9, atol=1e-12)
