import re

import numpy as np
import pytest

import regraph as rg
from regraph.weights import WeightError


def pair_sum_extremes(w):
    """max and min over i, j of alpha_i + beta_j, from all l * m pairs."""
    pairs = [a + b for a in w.alpha for b in w.beta]
    return max(pairs), min(pairs)


def test_fig_constants():
    w = rg.validate_weights(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0))
    assert (w.n, w.k, w.d) == (5, 6, 1)
    assert (w.n // w.d, w.k // w.d) == (5, 6)
    assert pair_sum_extremes(w) == (3.5, 1.5)


def test_single_pair_constants():
    w = rg.validate_weights(1, 1, (1.0,), (1.0,))
    assert (w.n, w.k, w.d) == (2, 1, 1)
    assert pair_sum_extremes(w) == (2.0, 2.0)


def test_kd_product():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        l, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.uniform(0.1, 2.0, l)
        b = rng.uniform(0.1, 2.0, m)
        b *= a.sum() / b.sum()
        w = rg.validate_weights(l, m, a, b)
        assert w.k * w.d == l * m
        assert w.n == l + m
        hi, lo = pair_sum_extremes(w)
        assert lo <= hi
        # float addition rounds monotonically, so the extremes are the sums of
        # the extremes, bit for bit; proper-sufficient reads them that way
        assert (hi, lo) == (max(w.alpha) + max(w.beta), min(w.alpha) + min(w.beta))


def test_balance_violated():
    with pytest.raises(WeightError, match=r"^weight sums differ: "):
        rg.validate_weights(2, 2, (1.0, 2.0), (2.0, 2.0))


def test_negative_weight():
    with pytest.raises(WeightError, match=r"^alpha\[1\] = -1\.0 is negative$"):
        rg.validate_weights(2, 1, (2.0, -1.0), (1.0,))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("group", ["alpha", "beta"])
def test_non_finite_weight(value, group):
    # a NaN or infinite imbalance compares false against the tolerance
    alpha, beta = [1.0, 1.0], [2.0]
    if group == "alpha":
        alpha[1] = value
    else:
        beta[0] = value
    with pytest.raises(WeightError, match=rf"{group}\[[01]\] = .* is not finite"):
        rg.validate_weights(2, 1, alpha, beta)
    with pytest.raises(WeightError, match="is not finite"):
        rg.validate_weights(1, 1, [value], [value])


def test_overflowing_weight_sum():
    # finite entries whose sum overflows: |inf - inf| is NaN, not an imbalance
    big = [1e308, 1e308]
    for alpha, beta in ((big, big), (big, [1e308, 1.0]), ([1e308, 1.0], big)):
        with pytest.raises(WeightError, match=r"^weight sums overflow a float: ") as info:
            rg.validate_weights(2, 2, alpha, beta)
        # the whole message is the overflow one, not the imbalance one
        assert re.fullmatch(r"weight sums overflow a float: (inf|1e\+308), (inf|1e\+308)",
                            str(info.value))
    # sums just below the largest float are still accepted
    assert rg.validate_weights(2, 2, [1e308, 7e307], [1e308, 7e307]).k == 2


def test_all_zero():
    with pytest.raises(WeightError, match=r"^all weights are zero$"):
        rg.validate_weights(2, 2, (0.0, 0.0), (0.0, 0.0))


def test_zero_entries_allowed():
    w = rg.validate_weights(2, 1, (0.0, 1.0), (1.0,))
    assert w.alpha == (0.0, 1.0)
    assert pair_sum_extremes(w)[1] == 1.0


def test_length_mismatch():
    with pytest.raises(WeightError, match=r"^expected 3 alpha entries, got 2$"):
        rg.validate_weights(3, 1, (1.0, 2.0), (3.0,))
    with pytest.raises(WeightError, match=r"^expected 1 beta entries, got 2$"):
        rg.validate_weights(2, 1, (1.0, 2.0), (1.0, 2.0))
    with pytest.raises(WeightError, match=r"^group sizes must be positive, got l=0, m=1$"):
        rg.validate_weights(0, 1, (), (0.0,))


def test_balance_tolerance_boundary():
    rg.validate_weights(1, 1, (1.0,), (1.0 + 5e-13,))
    with pytest.raises(WeightError, match=r"^weight sums differ: "):
        rg.validate_weights(1, 1, (1.0,), (1.0 + 5e-12,))


def test_balance_tolerance_is_relative():
    # weights times c give the graph times c, so they are accepted alike
    rng = np.random.default_rng(0)
    for _ in range(200):
        l, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        alpha, beta = rng.uniform(0.2, 3.0, size=l), rng.uniform(0.2, 3.0, size=m)
        beta *= alpha.sum() / beta.sum()
        for c in (1e-3, 1.0, 1e3, 1e6):
            rg.validate_weights(l, m, c * alpha, c * beta)
            with pytest.raises(WeightError, match=r"^weight sums differ: "):
                rg.validate_weights(l, m, c * alpha, c * beta * (1.0 + 1e-9))


def slope_vector(w):
    """The n-component slope alphabet (alpha_1..alpha_l, -beta_1..-beta_m)."""
    return np.concatenate([np.asarray(w.alpha), -np.asarray(w.beta)])


def test_slope_vector_order_and_sum():
    w = rg.validate_weights(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0))
    assert np.array_equal(slope_vector(w), [0.5, 1.0, 1.5, -2.0, -1.0])
    assert w.slope_labels == (("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2))
    assert abs(slope_vector(w).sum()) < 1e-12


def test_slope_vector_sum_randomized():
    rng = np.random.default_rng(991)
    for _ in range(60):
        l, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.uniform(0.0, 4.0, l)
        b = rng.uniform(0.1, 4.0, m)
        b *= a.sum() / b.sum() if a.sum() > 0 else 1.0
        if a.sum() == 0:
            continue
        w = rg.validate_weights(l, m, a, b)
        assert abs(slope_vector(w).sum()) <= 1e-11


def test_class_labels_and_gamma():
    # worked non-coprime example: classes split by weight subscript parity
    w = rg.validate_weights(2, 2, (1.0, 2.0), (2.0, 1.0))
    assert w.class_labels(0) == (("A", 1), ("B", 1))
    assert w.class_labels(1) == (("A", 2), ("B", 2))
    assert w.class_gamma(0) == -1.0
    assert w.class_gamma(1) == 1.0


def test_class_gammas_cancel():
    rng = np.random.default_rng(515)
    seen_d = set()
    for _ in range(40):
        l, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.uniform(0.2, 3.0, l)
        b = rng.uniform(0.2, 3.0, m)
        b *= a.sum() / b.sum()
        w = rg.validate_weights(l, m, a, b)
        total = sum(w.class_gamma(f) for f in range(w.d))
        assert abs(total) <= 1e-12
        # class_gamma sums the class's weights in label order, bit for bit
        for f in range(w.d):
            terms = []
            for kind, i in w.class_labels(f):
                terms.append(w.alpha[i - 1] if kind == "A" else -w.beta[i - 1])
            assert w.class_gamma(f).hex() == float(sum(terms)).hex()
        labels = [lab for f in range(w.d) for lab in w.class_labels(f)]
        assert sorted(labels) == sorted(w.slope_labels)
        seen_d.add(w.d)
    # coprime sizes: the single class carries the whole alphabet and sums to 0
    assert 1 in seen_d and max(seen_d) > 1
