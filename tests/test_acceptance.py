"""Acceptance battery.

Each test below covers one release criterion and prints a single
``criterion NN: PASS/FAIL`` line on the real terminal (bypassing capture),
so a plain ``pytest tests/test_acceptance.py`` run shows the verdict table.
"""

from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
from regraph.analyze import NOT_SUFFICIENT, PASS
from regraph.cli import main
from regraph.construct import chi

from conftest import window_rows
from reference_extraction import reference_extract, reference_table_values

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FIG_CONFIG = str(CONFIG_DIR / "l3m2_cuberoot.json")


@pytest.fixture
def announce(capfd):
    def _go(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)

    return _go


def draw_params(rng, l=None, m=None, rho_lo=1.05, rho_hi=3.0):
    if l is None:
        l = int(rng.integers(1, 5))
    if m is None:
        m = int(rng.integers(1, 5))
    alpha = rng.uniform(0.05, 3.0, size=l)
    beta = rng.uniform(0.05, 3.0, size=m)
    beta *= alpha.sum() / beta.sum()
    w = rg.validate_weights(l, m, tuple(alpha), tuple(beta))
    factors = rng.uniform(rho_lo, rho_hi, size=w.k)
    return w, rg.ExpansionSchedule.from_factors(factors)


def graph_validity(g, t_lo=0, t_hi=2, tol=1e-9):
    """Exact slope alphabet on every piece, zero-sum and continuity within tol.

    The zero-sum bound is absolute, so instances with a large full-period
    ratio are sampled on a window ending at q = 1 (self-similarity makes the
    verdict window-independent, and values stay at machine scale there).
    """
    if g.tau ** (t_hi + 1) > 1e3:
        t_lo, t_hi = -3, -1
    sys_ = rg.component_functions(g, t_lo, t_hi)
    rows = window_rows(sys_)
    alphabet = sorted(sys_.alphabet)
    lo, hi = sys_.breakpoints[:-1], sys_.breakpoints[1:]
    for q_lo, codes in zip(lo, rows.labels):
        if sorted(sys_.alphabet[c] for c in codes) != alphabet:
            return False, f"label multiset broken at q={q_lo:.6g}"
    # piece i's components at q are values[i] + slopes[i] * (q - lo[i]), at
    # both ends and the midpoint of the piece, and the left piece's at each
    # interior breakpoint against the right piece's values there
    sums = [np.sum(rows.values + rows.slopes * (q - lo)[:, None], axis=1)
            for q in (lo, 0.5 * (lo + hi), hi)]
    worst_sum = float(np.max(np.abs(sums)))
    jump = rows.values[:-1] + rows.slopes[:-1] * (lo[1:] - lo[:-1])[:, None] - rows.values[1:]
    worst_jump = float(np.max(np.abs(jump), initial=0.0))
    ok = worst_sum <= tol and worst_jump <= tol
    return ok, f"max |sum residual| {worst_sum:.3g}, max jump {worst_jump:.3g}"


def test_criterion_01_reference_instance(fig_instance, announce):
    g = fig_instance
    ok_tau = abs(g.tau - 4.0) <= 1e-12
    ok_order = bool(np.all(g.v > g.u))
    ok_direct = rg.run_all_checks(g).entry("proper-direct").status == PASS
    ok_cli = main(["check", FIG_CONFIG]) == 0
    ok = ok_tau and ok_order and ok_direct and ok_cli
    announce(
        f"criterion 01: {'PASS' if ok else 'FAIL'} - reference instance: "
        f"tau={g.tau:.12g}, v>u everywhere, direct properness, CLI exit 0"
    )
    assert ok, (ok_tau, ok_order, ok_direct, ok_cli)


def test_criterion_02_solver_cross_validation(announce):
    rng = np.random.default_rng(1202)
    worst = 0.0
    count = 0
    for l in range(1, 5):
        for m in range(1, 5):
            for _ in range(7):
                w, sch = draw_params(rng, l, m)
                u_c, v_c = rg.solve_uv(w, sch)
                u_o, v_o = rg.solve_uv_oracle(w, sch)
                ok = np.allclose(u_c, u_o, rtol=1e-9, atol=1e-12) and np.allclose(
                    v_c, v_o, rtol=1e-9, atol=1e-12
                )
                assert ok, (l, m, u_c, u_o)
                scale = np.maximum(1.0, np.abs(np.concatenate([u_o, v_o])))
                res = np.abs(np.concatenate([u_c, v_c]) - np.concatenate([u_o, v_o]))
                worst = max(worst, float(np.max(res / scale)))
                count += 1
    announce(
        f"criterion 02: PASS - closed-form vs dense-solve agreement on "
        f"{count} instances, worst relative residual {worst:.3g}"
    )
    assert count >= 100


def test_criterion_03_graph_validity(all_fixture_instances, announce):
    rng = np.random.default_rng(1203)
    failures = []
    details = []
    for name, g in all_fixture_instances.items():
        ok, detail = graph_validity(g)
        details.append(detail)
        if not ok:
            failures.append((name, detail))
    for trial in range(25):
        w, sch = draw_params(rng)
        ok, detail = graph_validity(rg.build_graph(w, sch))
        details.append(detail)
        if not ok:
            failures.append((f"random[{trial}]", detail))
    status = "PASS" if not failures else "FAIL"
    announce(
        f"criterion 03: {status} - slope alphabet, zero sum and continuity on "
        f"{len(details)} instances (tol 1e-9)"
    )
    assert not failures, failures


def test_criterion_04_regularity(all_fixture_instances, announce):
    rng = np.random.default_rng(1204)
    graphs = list(all_fixture_instances.values())
    graphs += [rg.build_graph(*draw_params(rng)) for _ in range(25)]
    bad = []
    worst = 0.0
    for i, g in enumerate(graphs):
        result = rg.run_all_checks(g, tol=1e-9).entry("regular")
        if result.status != PASS:
            bad.append((i, result.status, result.note))
        # the window 0..2 is tiled from period 0; evaluate reads no table
        sys_ = rg.component_functions(g, 0, 2)
        bp = sys_.breakpoints
        qs = np.concatenate([bp, 0.5 * (bp[:-1] + bp[1:])])
        w_max = float(np.max(np.abs(window_rows(sys_).slopes)))
        for q, row in zip(qs, sys_.values_at(qs)):
            dev = float(np.max(np.abs(row - rg.evaluate(g, q))))
            worst = max(worst, dev / (q * w_max))
            if dev > 1e-9 * q * w_max:
                bad.append((i, float(q), dev))
    status = "PASS" if not bad else "FAIL"
    announce(
        f"criterion 04: {status} - node-system residual within 1e-9 and the tiled "
        f"window 0..2 matching evaluate on {len(graphs)} instances, worst {worst:.3g} q max|slope|"
    )
    assert not bad, bad


def test_criterion_05_product_identity(all_fixture_instances, announce):
    rng = np.random.default_rng(1205)
    cases = list(all_fixture_instances.values())
    cases += [rg.build_graph(*draw_params(rng)) for _ in range(40)]
    worst = 0.0
    for g in cases:
        w, sch = g.weights, g.schedule
        chis = np.array([chi(w, sch, r) for r in range(w.k)])
        full = float(np.prod(chis))
        worst = max(worst, abs(full - sch.tau**w.n) / sch.tau**w.n)
        for f in range(w.d):
            idx = {(f + j * w.n) % w.k for j in range(w.k // w.d)}
            per_class = float(np.prod(chis[sorted(idx)]))
            target = sch.tau**(w.n // w.d)
            worst = max(worst, abs(per_class - target) / target)
    ok = worst <= 1e-12
    announce(
        f"criterion 05: {'PASS' if ok else 'FAIL'} - expansion-product identity "
        f"on {len(cases)} instances, worst relative error {worst:.3g}"
    )
    assert ok, worst


def test_criterion_06_sufficiency_implies_properness(announce):
    seed = 20260818
    rng = np.random.default_rng(seed)
    trials = 1000
    counterexamples = 0
    escalation_failures = 0
    for _ in range(trials):
        l = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        alpha = rng.uniform(0.05, 3.0, size=l)
        beta = rng.uniform(0.05, 3.0, size=m)
        beta *= alpha.sum() / beta.sum()
        w = rg.validate_weights(l, m, tuple(alpha), tuple(beta))
        factors = rng.uniform(1.05, 3.0, size=w.k)
        sch = rg.ExpansionSchedule.from_factors(factors)
        for _ in range(40):
            g = rg.build_graph(w, sch)
            report = rg.run_all_checks(g)
            if report.entry("proper-sufficient").status == PASS:
                break
            factors = 1.0 + (factors - 1.0) * 1.5
            sch = rg.ExpansionSchedule.from_factors(factors)
        else:
            escalation_failures += 1
            continue
        nodes_ok = bool(np.all(g.v >= g.u))
        direct_ok = report.entry("proper-direct").status == PASS
        if not (nodes_ok and direct_ok):
            counterexamples += 1
    ok = counterexamples == 0 and escalation_failures == 0
    announce(
        f"criterion 06: {'PASS' if ok else 'FAIL'} - ratio condition implies "
        f"properness on {trials} escalated random instances (seed {seed}), "
        f"{counterexamples} counterexamples"
    )
    assert ok, (counterexamples, escalation_failures)


def test_criterion_07_sharpness_split(fig_instance, announce):
    g = fig_instance
    report = rg.run_all_checks(g)
    result = report.entry("proper-sufficient")
    lhs_expected = (2.0 ** (5.0 / 3.0) + 1.0) / (2.0 + 2.0 ** (2.0 / 3.0))
    rhs_expected = 7.0 / 3.0
    lhs = result.witness["lhs"]
    rhs = result.witness["rhs"]
    ok_values = (
        abs(lhs - lhs_expected) <= 1e-12 * lhs_expected
        and abs(rhs - rhs_expected) <= 1e-12 * rhs_expected
    )
    ok_status = result.status == NOT_SUFFICIENT
    direct = report.entry("proper-direct")
    ok = ok_values and ok_status and direct.status == PASS
    announce(
        f"criterion 07: {'PASS' if ok else 'FAIL'} - one-sided ratio test "
        f"inconclusive (lhs {lhs:.6g} < bound {rhs:.6g}) while direct check passes"
    )
    assert ok, (lhs, rhs, result.status, direct.status)


def test_criterion_08_schedule_designer(announce):
    rng = np.random.default_rng(1208)
    l, m = 3, 1
    failures = []
    trials = 0
    for delta in (0.0, 0.01, 0.1):
        for _ in range(30):
            alpha = rng.uniform(0.05, 3.0, size=l)
            alpha *= float(l) / alpha.sum()
            w = rg.validate_weights(l, m, tuple(alpha), (float(l),))
            factors = []
            for r in range(1, l + 1):
                a_r = w.alpha[r - 1]
                a_next = w.alpha[r % l]
                bound = (a_r + l) / (a_next + l)
                factors.append(max(bound * (1.0 + delta), 1.0 + 1e-6))
            sch = rg.ExpansionSchedule.from_factors(factors)
            g = rg.build_graph(w, sch)
            report = rg.run_all_checks(g)
            m1 = report.entry("proper-m1")
            direct = report.entry("proper-direct")
            trials += 1
            if m1.status != PASS or direct.status != PASS or not np.all(g.v >= g.u):
                failures.append((delta, alpha, m1.status, direct.status))
    ok = not failures
    announce(
        f"criterion 08: {'PASS' if ok else 'FAIL'} - single-fall schedules built "
        f"from the per-step bound stay proper across {trials} trials "
        f"(margins 0, 0.01, 0.1)"
    )
    assert ok, failures


def test_criterion_09_subgraph_partition(l2m2_instance, l4m2_instance, announce):
    # each class is extracted on its own by the reference cell loop and
    # held against the package's full table
    worst_sum = 0.0
    for g in (l2m2_instance, l4m2_instance):
        w = g.weights
        assert w.d == 2
        gammas = [w.class_gamma(f) for f in range(w.d)]
        assert abs(sum(gammas)) <= 1e-12
        full = rg.component_functions(g, 0, 2)
        parts = [reference_extract(g, 0, 2, subgraph=f) for f in range(w.d)]
        for f, part in enumerate(parts):
            bp = part[1]
            for q_lo, q_hi in zip(bp[:-1], bp[1:]):
                for q in (q_lo, 0.5 * (q_lo + q_hi)):
                    res = abs(float(np.sum(reference_table_values(part, q))) - gammas[f] * q)
                    worst_sum = max(worst_sum, res)
        # the two halves together reproduce the full system
        mids = 0.5 * (full.breakpoints[:-1] + full.breakpoints[1:])
        for q, row in zip(mids, full.values_at(mids)):
            merged = np.sort(np.concatenate([reference_table_values(p, q) for p in parts]))
            assert np.allclose(merged, row, rtol=1e-12, atol=1e-12)
        ok_full, detail = graph_validity(g)
        assert ok_full, detail
    ok = worst_sum <= 1e-9
    announce(
        f"criterion 09: {'PASS' if ok else 'FAIL'} - interleaved instances split "
        f"into balanced subgraphs, worst class-sum residual {worst_sum:.3g}"
    )
    assert ok, worst_sum


def test_criterion_10_classical_endpoints(classical_instance, announce):
    g = classical_instance
    ok = abs(g.u[0] + 0.5) <= 1e-12 and abs(g.v[0] - 0.5) <= 1e-12
    announce(
        f"criterion 10: {'PASS' if ok else 'FAIL'} - symmetric two-component "
        f"instance pins node ordinates at -1/2 and +1/2"
    )
    assert ok, (g.u[0], g.v[0])
