import math
import warnings

import numpy as np
import pytest

import regraph as rg
from regraph import construct

from conftest import make_instance, random_instance
from test_growth_terms import reference_propagate


# ---------------------------------------------------------------- schedules

def test_sigma_examples():
    sch = rg.ExpansionSchedule.from_factors([rg.PowerForm(2.0, 1, 3)] * 6)
    assert sch.tau == 4.0  # exact: exponents sum to 2
    assert sch.sigma_at(0) == 1.0
    assert abs(sch.sigma_at(3) - 2.0) < 1e-12
    assert abs(sch.sigma_at(9) - 8.0) < 1e-12  # extension: tau * sigma_3


def test_sigma_extension_negative_index():
    sch = rg.ExpansionSchedule.from_factors([1.5, 2.0])
    tau = sch.tau
    assert abs(sch.sigma_at(-1) - sch.sigma_at(1) / tau) < 1e-15
    assert abs(sch.sigma_at(-2) - 1.0 / tau) < 1e-15


def test_psi_basics():
    sch = rg.ExpansionSchedule.from_factors([rg.PowerForm(2.0, 1, 3)] * 6)
    assert sch.psi(4, 0) == 1.0
    assert abs(sch.psi(0, 5) - 2 ** (5 / 3)) < 1e-12
    for r in range(6):
        assert abs(sch.psi(r, 6) - sch.tau) < 1e-12


def test_psi_period_shift():
    rng = np.random.default_rng(42)
    sch = rg.ExpansionSchedule.from_factors(rng.uniform(1.1, 2.5, 6))
    for r in range(6):
        for s in range(8):
            assert sch.psi(r, s + 6) == pytest.approx(sch.tau * sch.psi(r, s), rel=1e-12)


def test_sigma_strictly_increasing():
    sch = rg.ExpansionSchedule.from_factors([1.2, 1.01, 3.0, 1.5])
    sig = [sch.sigma_at(r) for r in range(9)]
    assert all(a < b for a, b in zip(sig, sig[1:]))


def test_invalid_factors():
    with pytest.raises(rg.ConstructError, match=r"^factor 1 is 1\.0, must exceed 1$"):
        rg.ExpansionSchedule.from_factors([1.2, 1.0])
    with pytest.raises(rg.ConstructError, match=r"^factor 0 is 0\.9, must exceed 1$"):
        rg.ExpansionSchedule.from_factors([0.9])
    with pytest.raises(rg.ConstructError, match=r"^schedule needs at least one factor$"):
        rg.ExpansionSchedule.from_factors([])
    with pytest.raises(rg.ConstructError, match=r"^factor 0 is 0\.79\d*, must exceed 1$"):
        rg.ExpansionSchedule.from_factors([rg.PowerForm(2.0, -1, 3)])
    with pytest.raises(rg.ConstructError,
                       match=r"^exponent denominator must be positive, got 0$"):
        rg.PowerForm(2.0, 1, 0)
    with pytest.raises(rg.ConstructError, match=r"^power base must be positive, got 0$"):
        rg.PowerForm(0, 1, 3)
    with pytest.raises(rg.ConstructError,  # tau = inf
                       match=r"^period ratio tau = inf is not a finite float$"):
        rg.ExpansionSchedule.from_factors([1e200, 1e200])
    with pytest.raises(rg.ConstructError,  # the factor itself overflows
                       match=r"^period ratio tau = inf is not a finite float$"):
        rg.ExpansionSchedule.from_factors([rg.PowerForm(1e200, 3, 1)])


def test_power_form_value():
    assert abs(rg.PowerForm(2.0, 1, 3).value - 2 ** (1 / 3)) < 1e-15


@pytest.mark.parametrize("base, num, want", [
    (2.0, -10**400, 0.0),  # num / den is beyond the float range, the power underflows
    (0.5, 10**400, 0.0),
    (1.0, 10**400, 1.0),
    (1.0, -10**400, 1.0),
    (2.0, 10**400, math.inf),  # and overflows
    (0.5, -10**400, math.inf),
    (2.0, 5000, math.inf),
    (2.0, -5000, 0.0),
], ids=["2^-big", "0.5^big", "1^big", "1^-big", "2^big", "0.5^-big", "2^5000", "2^-5000"])
def test_power_form_value_beyond_float_exponents(base, num, want):
    assert rg.PowerForm(base, num, 3).value == want


def test_schedule_length_checked():
    w = rg.validate_weights(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0))
    sch = rg.ExpansionSchedule.from_factors([1.5, 1.5])
    msg = r"^schedule has 2 factors, weights require k=6$"
    with pytest.raises(rg.ConstructError, match=msg):
        rg.solve_uv(w, sch)
    with pytest.raises(rg.ConstructError, match=msg):
        rg.solve_uv_oracle(w, sch)


# ------------------------------------------------------- U, V coefficients

def test_U_classical():
    w = rg.validate_weights(1, 1, (1.0,), (1.0,))
    sch = rg.ExpansionSchedule.from_factors([3.0])
    # (rho - 1) - (rho^2 - rho) = -(rho - 1)^2
    _, _, _, U, V = rg.growth_terms(w, sch)
    assert U[0] == pytest.approx(-4.0, abs=1e-12)
    assert V[0] == pytest.approx(4.0, abs=1e-12)


def test_U_fig_value():
    w = rg.validate_weights(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0))
    sch = rg.ExpansionSchedule.from_factors([rg.PowerForm(2.0, 1, 3)] * 6)
    expected = 0.5 - 1.0 * (2 ** (5 / 3) - 2.0)
    assert rg.growth_terms(w, sch)[3][0] == pytest.approx(expected, rel=1e-12)


def test_U_constant_under_full_symmetry():
    w = rg.validate_weights(2, 2, (1.5, 1.5), (1.5, 1.5))
    sch = rg.ExpansionSchedule.from_factors([1.3, 1.3])
    _, _, _, U, V = rg.growth_terms(w, sch)
    us = {round(U[r], 14) for r in range(2)}
    vs = {round(V[r], 14) for r in range(2)}
    assert len(us) == 1 and len(vs) == 1


@pytest.mark.parametrize("l, m, alpha, beta, rho", [
    (1, 1, (1.0,), (1.0,), [1e160]),  # tau^2 overflows
    (2, 3, (1.0, 1.0), (2 / 3,) * 3, [1e34] * 6),  # tau * sigma_4 overflows
])
def test_overflowing_node_system_raises_construct_error(l, m, alpha, beta, rho):
    w = rg.validate_weights(l, m, alpha, beta)
    sch = rg.ExpansionSchedule.from_factors(rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (rg.build_graph, rg.solve_uv):
            with pytest.raises(rg.ConstructError):
                solve(w, sch)


# ------------------------------------------------------------------ solves

def test_classical_closed_form():
    g = make_instance(1, 1, (1.0,), (1.0,), [3.0])
    assert abs(g.u[0] + 0.5) < 1e-12
    assert abs(g.v[0] - 0.5) < 1e-12


def test_symmetric_antisymmetry():
    # alpha = beta termwise makes the upper system the exact mirror image
    for rho in ([2.0], [1.5], [4.0]):
        g = make_instance(1, 1, (1.0,), (1.0,), rho)
        assert g.u[0] == -g.v[0]


def test_recurrence_residuals_fig(fig_instance):
    g = fig_instance
    w, sch = g.weights, g.schedule
    scale = max(1.0, np.abs(g.u).max(), np.abs(g.v).max())
    _, _, chi, U, V = rg.growth_terms(w, sch)
    for r in range(w.k):
        ru = g.u[r] - chi[r] * g.u[(r + w.n) % w.k] + U[r]
        rv = g.v[r] - chi[r] * g.v[(r + w.n) % w.k] + V[r]
        assert abs(ru) <= 1e-9 * scale
        assert abs(rv) <= 1e-9 * scale


def test_recurrence_residuals_randomized():
    rng = np.random.default_rng(160894)
    for _ in range(80):
        g = random_instance(rng)
        w, sch = g.weights, g.schedule
        scale = max(1.0, np.abs(g.u).max(), np.abs(g.v).max())
        _, _, chi, U, V = rg.growth_terms(w, sch)
        for r in range(w.k):
            ru = g.u[r] - chi[r] * g.u[(r + w.n) % w.k] + U[r]
            rv = g.v[r] - chi[r] * g.v[(r + w.n) % w.k] + V[r]
            assert abs(ru) <= 1e-9 * scale
            assert abs(rv) <= 1e-9 * scale


def test_closed_matches_oracle_randomized():
    rng = np.random.default_rng(271828)
    for _ in range(120):
        g = random_instance(rng)
        uo, vo = rg.solve_uv_oracle(g.weights, g.schedule)
        assert np.allclose(g.u, uo, rtol=1e-9, atol=1e-12)
        assert np.allclose(g.v, vo, rtol=1e-9, atol=1e-12)


def test_solve_dispatch():
    g1 = make_instance(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0), [1.2] * 6)
    g2 = make_instance(2, 2, (1.0, 2.0), (2.0, 1.0), [1.4, 1.7])
    assert g1.weights.d == 1 and g2.weights.d == 2
    for g in (g1, g2):
        uo, vo = rg.solve_uv_oracle(g.weights, g.schedule)
        assert np.allclose(g.u, uo, rtol=1e-12, atol=1e-14)
        assert np.allclose(g.v, vo, rtol=1e-12, atol=1e-14)


def test_build_graph_methods_agree(l4m2_instance):
    g = l4m2_instance
    u, v = rg.solve_uv(g.weights, g.schedule)
    assert np.array_equal(g.u, u) and np.array_equal(g.v, v)
    uo, vo = rg.solve_uv_oracle(g.weights, g.schedule)
    assert np.allclose(g.u, uo, rtol=1e-9, atol=1e-12)
    assert np.allclose(g.v, vo, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("l, m, rho_lo, rho_hi", [(13, 11, 1.5, 2.0), (31, 29, 1.01, 1.02)])
def test_solve_large_period_power_no_overflow(l, m, rho_lo, rho_hi):
    # tau^n exceeds the float range here, the node system itself does not
    g = random_instance(np.random.default_rng(l * m), l=l, m=m, rho_lo=rho_lo, rho_hi=rho_hi)
    with pytest.raises(OverflowError):
        g.schedule.tau ** g.weights.n
    assert np.isfinite(g.u).all() and np.isfinite(g.v).all()
    uo, vo = rg.solve_uv_oracle(g.weights, g.schedule)
    assert np.allclose(g.u, uo, rtol=1e-9, atol=1e-12)
    assert np.allclose(g.v, vo, rtol=1e-9, atol=1e-12)


def test_propagation_recovers_v():
    rng = np.random.default_rng(55)
    for _ in range(50):
        g = random_instance(rng)
        vp = reference_propagate(g.weights, g.schedule, g.u)
        scale = max(1.0, np.abs(g.v).max())
        assert np.abs(vp - g.v).max() <= 1e-9 * scale


def test_product_identity():
    rng = np.random.default_rng(606)
    for _ in range(50):
        g = random_instance(rng)
        w, sch = g.weights, g.schedule
        for r in range(w.k):
            prod = 1.0
            for j in range(w.k):
                prod *= construct.chi(w, sch, (r + j * w.n) % w.k)
            assert prod == pytest.approx(sch.tau**w.n, rel=1e-12)


def test_product_identity_per_class():
    rng = np.random.default_rng(607)
    for _ in range(50):
        g = random_instance(rng)
        w, sch = g.weights, g.schedule
        if w.d == 1:
            continue
        kp, np_ = w.k // w.d, w.n // w.d
        for f in range(w.d):
            for h in range(kp):
                prod = 1.0
                for j in range(kp):
                    hh = (h + j * np_) % kp
                    prod *= construct.chi(w, sch, f + w.d * hh)
                assert prod == pytest.approx(sch.tau**np_, rel=1e-12)


def test_node_slope_conditions():
    # rising chord between consecutive node columns has exactly the rising
    # weight as slope; falling chord the falling weight
    rng = np.random.default_rng(77)
    for _ in range(40):
        g = random_instance(rng)
        w, sch = g.weights, g.schedule
        for r in range(w.k):
            sr = sch.sigma_at(r)
            sl = sch.sigma_at(r + w.l)
            sm = sch.sigma_at(r + w.m)
            rise = (sl * g.v[(r + w.l) % w.k] - sr * g.u[r]) / (sl - sr)
            fall = (sm * g.u[(r + w.m) % w.k] - sr * g.v[r]) / (sm - sr)
            assert rise == pytest.approx(w.alpha[r % w.l], abs=1e-9)
            assert fall == pytest.approx(-w.beta[r % w.m], abs=1e-9)
