"""The array growth terms against the scalar formulas and loops they replace.

The reference functions below are the per-r forms that `growth_terms`
replaced: U_r and V_r written over `ExpansionSchedule.psi` and the cyclic
weight subscripts, and the Python loops of `solve_uv`'s coefficient
set-up, the dense oracle's assembly and the three one-sided properness
checks.  The array forms do the same float operations, so results must
agree exactly: bit-identical arrays and equal `CheckResult`s, including
the witness of the first minimum.  `reference_propagate` recovers v from
u along the rising segments, a consistency check of the two node
systems.
"""

from math import lcm

import numpy as np
import pytest

import regraph as rg
from regraph import analyze, construct

N_RANDOM = 320


def reference_U(w, sch, r):
    pl, pn = sch.psi(r, w.l), sch.psi(r, w.n)
    return w.alpha[r % w.l] * (pl - 1.0) - w.beta[(r + w.l) % w.m] * (pn - pl)


def reference_V(w, sch, r):
    pm, pn = sch.psi(r, w.m), sch.psi(r, w.n)
    return -w.beta[r % w.m] * (pm - 1.0) + w.alpha[(r + w.m) % w.l] * (pn - pm)


def reference_solve_uv(w, sch):
    U = [reference_U(w, sch, r) for r in range(w.k)]
    V = [reference_V(w, sch, r) for r in range(w.k)]
    mult = [construct.chi(w, sch, r) for r in range(w.k)]
    u, v = np.empty(w.k), np.empty(w.k)
    for f in range(w.d):
        idx = [f + w.d * ((j * (w.n // w.d)) % (w.k // w.d)) for j in range(w.k // w.d)]
        m = [mult[r] for r in idx]
        u[idx] = construct._solve_block([U[r] for r in idx], m)
        v[idx] = construct._solve_block([V[r] for r in idx], m)
    return u, v


def reference_oracle(w, sch):
    M = np.eye(w.k)
    rhs_u, rhs_v = np.empty(w.k), np.empty(w.k)
    for r in range(w.k):
        M[r, (r + w.n) % w.k] -= construct.chi(w, sch, r)
        rhs_u[r] = -reference_U(w, sch, r)
        rhs_v[r] = -reference_V(w, sch, r)
    return np.linalg.solve(M, rhs_u), np.linalg.solve(M, rhs_v)


def reference_propagate(w, sch, u):
    v = np.empty(w.k)
    for r in range(w.k):
        pl = sch.psi(r, w.l)
        v[(r + w.l) % w.k] = (u[r] + w.alpha[r % w.l] * (pl - 1.0)) / pl
    return v


def reference_sufficient(w, sch, tol=0.0):
    pairs = [a + b for a in w.alpha for b in w.beta]
    if min(pairs) <= 0:
        return analyze.CheckResult("proper-sufficient", analyze.NOT_APPLICABLE, tol, 0.0, None,
                                   note="some pair sum alpha_i + beta_j is zero")
    rhs = max(pairs) / min(pairs)
    best, wit = np.inf, None
    for r in range(w.k):
        lhs = (sch.psi(r, w.n) + 1.0) / (sch.psi(r, w.l) + sch.psi(r, w.m))
        if lhs - rhs < best:
            best, wit = lhs - rhs, {"r": r, "lhs": lhs, "rhs": rhs}
    status = analyze.PASS if best >= -tol else analyze.NOT_SUFFICIENT
    return analyze.CheckResult("proper-sufficient", status, tol, float(best), wit)


def reference_termwise(w, sch, tol=0.0):
    best, wit = np.inf, None
    for r in range(w.k):
        s = reference_V(w, sch, r) - reference_U(w, sch, r)
        if s < best:
            best, wit = s, {"r": r}
    status = analyze.PASS if best >= -tol else analyze.NOT_SUFFICIENT
    return analyze.CheckResult("proper-termwise", status, tol, float(best), wit)


def reference_m1(w, sch, tol=0.0):
    if w.m != 1:
        return analyze.CheckResult("proper-m1", analyze.NOT_APPLICABLE, tol, 0.0, None,
                                   note="requires m = 1 and beta_1 = l")
    best, wit = np.inf, None
    for r in range(1, w.l + 1):
        bound = (w.alpha[r - 1] + w.beta[0]) / (w.alpha[r % w.l] + w.beta[0])
        s = sch.factors[r - 1] - bound
        if s < best:
            best, wit = s, {"r": r, "bound": bound}
    status = analyze.PASS if best >= -tol else analyze.NOT_SUFFICIENT
    return analyze.CheckResult("proper-m1", status, tol, float(best), wit)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


KINDS = ("plain", "power-form", "m1", "tied")


def random_pair(rng):
    """(kind, weights, schedule): a plain draw, a PowerForm schedule, m = 1
    with beta_1 = l, or dyadic weights whose terms tie exactly."""
    l, m = (int(x) for x in rng.integers(1, 6, size=2))
    kind = int(rng.integers(0, 4))
    if kind == 2:
        m = 1
    k = lcm(l, m)
    if kind == 3:
        # dyadic weights on a constant power-of-two schedule: many terms tie
        alpha = rng.choice([0.5, 1.0, 1.5, 2.0], size=l)
        beta = rng.choice([0.5, 1.0, 2.0], size=m)
        beta *= alpha.sum() / beta.sum()
        rho = [float(rng.choice([2.0, 4.0]))] * k
    else:
        alpha = rng.uniform(0.05, 3.0, size=l)
        if kind == 2:
            alpha *= l / alpha.sum()
            beta = np.array([float(l)])
        else:
            beta = rng.uniform(0.05, 3.0, size=m)
            beta *= alpha.sum() / beta.sum()
        if kind == 1:
            rho = [rg.PowerForm(float(rng.uniform(1.5, 5.0)), int(rng.integers(1, 4)),
                                int(rng.integers(1, 5))) for _ in range(k)]
        else:
            rho = rng.uniform(1.05, 3.0, size=k)
    return (KINDS[kind], rg.validate_weights(l, m, alpha, beta),
            rg.ExpansionSchedule.from_factors(rho))


@pytest.fixture(scope="module")
def pairs(all_fixture_instances, improper_instance):
    fixtures = [("fixture", g.weights, g.schedule)
                for g in (*all_fixture_instances.values(), improper_instance)]
    rng = np.random.default_rng(20261018)
    return fixtures + [random_pair(rng) for _ in range(N_RANDOM)]


def test_instance_set_covers_the_shapes(pairs):
    kinds = [kind for kind, _, _ in pairs]
    assert all(kinds.count(kind) >= 50 for kind in KINDS)
    assert sum(w.n > w.k for _, w, _ in pairs) >= 50  # l | m or m | l: psi(r, n) needs tau^2
    # a minimum attained more than once, so that the first-minimum witness matters
    tied = 0
    for _, w, sch in pairs:
        _, _, _, U, V = rg.growth_terms(w, sch)
        tied += np.count_nonzero(V - U == (V - U).min()) > 1
    assert tied >= 20


def test_growth_terms_match_scalar_formulas(pairs):
    for _, w, sch in pairs:
        pl, pm, chi, U, V = rg.growth_terms(w, sch)
        r = range(w.k)
        assert bits(pl) == bits([sch.psi(i, w.l) for i in r])
        assert bits(pm) == bits([sch.psi(i, w.m) for i in r])
        assert bits(chi) == bits([construct.chi(w, sch, i) for i in r])
        assert bits(U) == bits([reference_U(w, sch, i) for i in r])
        assert bits(V) == bits([reference_V(w, sch, i) for i in r])


def test_solves_match_loop_set_up(pairs):
    for _, w, sch in pairs:
        u, v = rg.solve_uv(w, sch)
        ur, vr = reference_solve_uv(w, sch)
        assert bits(u) == bits(ur) and bits(v) == bits(vr)
        uo, vo = rg.solve_uv_oracle(w, sch)
        uro, vro = reference_oracle(w, sch)
        assert bits(uo) == bits(uro) and bits(vo) == bits(vro)


def test_one_sided_checks_match_loops(pairs):
    statuses = set()
    for _, w, sch in pairs:
        report = rg.run_all_checks(rg.build_graph(w, sch))
        for name, reference in (("proper-sufficient", reference_sufficient),
                                ("proper-termwise", reference_termwise),
                                ("proper-m1", reference_m1)):
            res = report.entry(name)
            assert res == reference(w, sch)
            statuses.add((res.name, res.status))
    for name in ("proper-sufficient", "proper-termwise", "proper-m1"):
        assert (name, analyze.PASS) in statuses
        assert (name, analyze.NOT_SUFFICIENT) in statuses
    assert ("proper-m1", analyze.NOT_APPLICABLE) in statuses
