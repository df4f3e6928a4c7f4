import dataclasses

import numpy as np
import pytest

import regraph as rg
from regraph import analyze

from conftest import make_instance, random_instance


def test_fig_report(fig_instance):
    rep = rg.run_all_checks(fig_instance)
    assert rep.entry("system").status == "pass"
    assert rep.entry("regular").status == "pass"
    assert rep.entry("proper-direct").status == "pass"
    assert rep.entry("proper-nodes").status == "pass"
    assert rep.entry("proper-nodes").margin > 0
    assert rep.entry("proper-sufficient").status == "not-sufficient"
    assert rep.entry("proper-m1").status == "not-applicable"
    assert rep.ok  # not-sufficient / not-applicable do not flag the instance


def test_fig_sufficient_witness_values(fig_instance):
    res = analyze.check_proper_sufficient(
        fig_instance.weights, fig_instance.schedule
    )
    lhs = (2 ** (5 / 3) + 1) / (2 + 2 ** (2 / 3))
    assert res.witness["lhs"] == pytest.approx(lhs, rel=1e-12)
    assert res.witness["rhs"] == pytest.approx(7 / 3, rel=1e-12)
    assert res.status == "not-sufficient"


def test_classical_checks(classical_instance):
    rep = rg.run_all_checks(classical_instance)
    assert rep.ok
    nodes = rep.entry("proper-nodes")
    assert nodes.status == "pass"
    assert nodes.margin == pytest.approx(1.0, abs=1e-12)
    # the symmetric instance satisfies the ratio condition with equality:
    # psi^2+1 = 10, psi^1+psi^1 = 6, Omega/omega = 1
    suff = rep.entry("proper-sufficient")
    assert suff.status == "pass"


def test_improper_instance_flagged(improper_instance):
    rep = rg.run_all_checks(improper_instance)
    nodes = rep.entry("proper-nodes")
    assert nodes.status == "fail"
    assert nodes.witness == {"r": 5}
    assert nodes.margin == pytest.approx(-0.16160183, abs=1e-6)
    assert rep.entry("proper-direct").status == "fail"
    assert not rep.ok
    # the structural checks still hold: the graph is valid, just not proper
    assert rep.entry("system").status == "pass"
    assert rep.entry("regular").status == "pass"


def test_check_system_detects_broken_slope(fig_instance):
    sys1 = rg.component_functions(fig_instance, 0, 1)
    slopes = sys1.slopes.copy()
    slopes[3, 0] = 0.0
    broken = dataclasses.replace(sys1, slopes=slopes)
    assert analyze.check_system(broken).status == "fail"


def test_check_system_detects_wrong_label(fig_instance):
    sys1 = rg.component_functions(fig_instance, 0, 1)
    labels = sys1.labels.copy()
    labels[0, 0] = sys1.alphabet.index(("A", 1))
    broken = dataclasses.replace(sys1, labels=labels)
    res = analyze.check_system(broken)
    # piece 0 now repeats label A1; only fails if it was not A1 already
    if sys1.pieces[0].labels[0] != ("A", 1):
        assert res.status == "fail"
        assert res.witness["piece"] == 0


def test_check_regular_detects_perturbation(fig_instance):
    sys1 = rg.component_functions(fig_instance, 0, 1)
    idx = len(sys1.pieces) // 2
    values = sys1.values.copy()
    values[idx, 0] -= 1e-3
    broken = dataclasses.replace(sys1, values=values)
    assert analyze.check_regular(fig_instance, broken).status == "fail"


@pytest.fixture(scope="module")
def fig_table(fig_instance):
    return rg.component_functions(fig_instance, 0, 2)


def with_non_finite(sys, field, bad):
    """The table with one entry of field set to bad, and the piece it lands in."""
    p = len(sys.values) // 3
    arr = getattr(sys, field).copy()
    if field == "breakpoints":
        arr[p + 1] = bad  # right end of piece p, left end of piece p + 1
    else:
        arr[p, 1] = bad
    return dataclasses.replace(sys, **{field: arr}), p


NON_FINITE = [(field, bad) for field in ("breakpoints", "values", "slopes")
              for bad in (np.nan, np.inf, -np.inf)]


@pytest.mark.parametrize("field,bad", NON_FINITE)
def test_check_system_fails_on_non_finite(fig_table, field, bad):
    broken, p = with_non_finite(fig_table, field, bad)
    res = analyze.check_system(broken)
    assert res.status == "fail" and res.witness["piece"] == p
    assert "non-finite" in res.note


@pytest.mark.parametrize("field,bad", NON_FINITE)
def test_check_regular_fails_on_non_finite(fig_instance, fig_table, field, bad):
    broken, p = with_non_finite(fig_table, field, bad)
    res = analyze.check_regular(fig_instance, broken)
    assert res.status == "fail" and res.witness["piece"] == p
    assert "non-finite" in res.note


@pytest.mark.parametrize("field,bad", NON_FINITE)
def test_check_proper_direct_fails_on_non_finite(fig_table, field, bad):
    broken, p = with_non_finite(fig_table, field, bad)
    res = analyze.check_proper_direct(broken)
    assert res.status == "fail" and res.witness["piece"] == p
    assert "non-finite" in res.note


def test_check_regular_window_too_small(fig_instance):
    sys1 = rg.component_functions(fig_instance, 0, 0)
    res = analyze.check_regular(fig_instance, sys1)
    assert res.status == "error"
    assert "InsufficientWindow" in res.note


def test_direct_check_window_translation_invariance(improper_instance, fig_instance):
    for g in (improper_instance, fig_instance):
        verdicts = set()
        for t0 in (-1, 0, 1, 3):
            sys1 = rg.component_functions(g, t0, t0 + 2)
            verdicts.add(analyze.check_proper_direct(sys1).status)
        assert len(verdicts) == 1


def test_m1_condition_pass_equal_weights():
    g = make_instance(3, 1, (1.0, 1.0, 1.0), (3.0,), [1.01, 1.7, 2.3])
    res = analyze.check_proper_m1(g.weights, g.schedule)
    assert res.status == "pass"  # all bounds are exactly 1


def test_m1_condition_violated_bound():
    w = rg.validate_weights(3, 1, (2.0, 0.5, 0.5), (3.0,))
    sch = rg.ExpansionSchedule.from_factors([1.3, 1.01, 1.5])
    res = analyze.check_proper_m1(w, sch)
    assert res.status == "not-sufficient"
    assert res.witness["r"] == 1
    assert res.witness["bound"] == pytest.approx(10 / 7, rel=1e-12)


def test_m1_condition_not_applicable():
    w = rg.validate_weights(2, 1, (2.0, 1.0), (3.0,))
    sch = rg.ExpansionSchedule.from_factors([1.5, 1.5])
    assert analyze.check_proper_m1(w, sch).status == "not-applicable"
    w2 = rg.validate_weights(2, 2, (1.0, 2.0), (2.0, 1.0))
    sch2 = rg.ExpansionSchedule.from_factors([1.5, 1.5])
    assert analyze.check_proper_m1(w2, sch2).status == "not-applicable"


def test_sufficient_not_applicable_for_zero_pair():
    w = rg.validate_weights(2, 2, (0.0, 1.0), (0.0, 1.0))
    sch = rg.ExpansionSchedule.from_factors([1.5, 1.8])
    res = analyze.check_proper_sufficient(w, sch)
    assert res.status == "not-applicable"


def test_sufficient_passes_for_large_factors(fig_instance):
    # growing every factor eventually satisfies the ratio condition, and
    # the certified instance is then genuinely proper
    w = fig_instance.weights
    factors = np.array(fig_instance.schedule.factors)
    for _ in range(40):
        sch = rg.ExpansionSchedule.from_factors(factors)
        if analyze.check_proper_sufficient(w, sch).status == "pass":
            break
        factors = 1.0 + (factors - 1.0) * 2.0
    else:
        pytest.fail("ratio condition never became satisfiable")
    g = rg.build_graph(w, sch)
    assert analyze.check_proper_nodes(g).status == "pass"


SEED_IMPLICATIONS = 90210


def test_implication_chain_randomized():
    # certified ratio condition => termwise condition => nodes => direct
    rng = np.random.default_rng(SEED_IMPLICATIONS)
    checked = 0
    for _ in range(150):
        g = random_instance(rng)
        w, sch = g.weights, g.schedule
        suff = analyze.check_proper_sufficient(w, sch)
        term = analyze.check_proper_termwise(w, sch)
        nodes = analyze.check_proper_nodes(g)
        if suff.status == "pass":
            assert term.status == "pass"
        if term.status == "pass":
            assert nodes.status == "pass"
            checked += 1
        if nodes.status == "pass":
            sys1 = rg.component_functions(g, 0, 2)
            assert analyze.check_proper_direct(sys1).status == "pass"
    assert checked > 10  # the chain must actually have been exercised


def test_m1_implies_nodes_randomized():
    rng = np.random.default_rng(777)
    for _ in range(60):
        l = int(rng.integers(2, 5))
        alpha = rng.uniform(0.05, 2.0, size=l)
        alpha *= l / alpha.sum()  # balance against beta_1 = l
        w = rg.validate_weights(l, 1, alpha, (float(l),))
        sch = rg.ExpansionSchedule.from_factors(rng.uniform(1.05, 2.5, size=l))
        if analyze.check_proper_m1(w, sch).status != "pass":
            continue
        g = rg.build_graph(w, sch)
        assert analyze.check_proper_nodes(g).status == "pass"


def test_subgraph_check(l2m2_instance, l4m2_instance, fig_instance):
    assert analyze.check_subgraphs(l2m2_instance).status == "pass"
    assert analyze.check_subgraphs(l4m2_instance).status == "pass"
    assert analyze.check_subgraphs(fig_instance).status == "not-applicable"


def test_report_lines_and_entry(fig_instance):
    rep = rg.run_all_checks(fig_instance)
    lines = rep.lines()
    assert len(lines) == len(rep.results)
    assert any(line.startswith("proper-sufficient: NOT-SUFFICIENT") for line in lines)
    with pytest.raises(KeyError):
        rep.entry("nonexistent")
