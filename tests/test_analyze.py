import dataclasses
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
from regraph import analyze
from regraph.cli import load_config

from conftest import make_instance, random_instance

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    res = analyze.check_regular(fig_instance)
    assert res.status == "pass" and 0.0 < res.margin < 1e-15
    for height in ("u", "v"):
        h = getattr(fig_instance, height).copy()
        h[2] += 1e-6
        res = analyze.check_regular(dataclasses.replace(fig_instance, **{height: h}))
        assert res.status == "fail" and res.margin > 1e-7
        assert res.witness["kind"] == height
        assert res.note == "node heights off the node system"
    # a table that does not scale by tau is broken structurally as well
    sys1 = rg.component_functions(fig_instance, 0, 1)
    idx = len(sys1.pieces) // 2
    values = sys1.values.copy()
    values[idx, 0] -= 1e-3
    broken = dataclasses.replace(sys1, values=values)
    assert analyze.check_system(broken).status == "fail"


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


def with_non_finite_source(g, field, bad):
    """The graphs with one entry of the node-system data behind a table field
    set to bad: the sigma_r scale of the node abscissae for breakpoints, the
    node heights u and v for values, a weight alpha_i for slopes."""
    if field == "breakpoints":
        sigmas = list(g.schedule.sigmas)
        sigmas[3] = bad
        return [dataclasses.replace(
            g, schedule=dataclasses.replace(g.schedule, sigmas=tuple(sigmas)))]
    if field == "slopes":
        alpha = list(g.weights.alpha)
        alpha[1] = bad
        return [dataclasses.replace(
            g, weights=dataclasses.replace(g.weights, alpha=tuple(alpha)))]
    graphs = []
    for height in ("u", "v"):
        h = getattr(g, height).copy()
        h[3] = bad
        graphs.append(dataclasses.replace(g, **{height: h}))
    return graphs


@pytest.mark.parametrize("field,bad", NON_FINITE)
def test_check_regular_fails_on_non_finite(fig_instance, field, bad):
    for broken in with_non_finite_source(fig_instance, field, bad):
        res = analyze.check_regular(broken)
        assert res.status == "fail" and res.margin == np.inf
        assert "non-finite" in res.note
    if field == "values":
        assert [analyze.check_regular(b).witness for b in
                with_non_finite_source(fig_instance, field, bad)] == [
            {"r": 3, "kind": "u"}, {"r": 3, "kind": "v"}]


@pytest.mark.parametrize("field,bad", NON_FINITE)
def test_check_proper_direct_fails_on_non_finite(fig_table, field, bad):
    broken, p = with_non_finite(fig_table, field, bad)
    res = analyze.check_proper_direct(broken)
    assert res.status == "fail" and res.witness["piece"] == p
    assert "non-finite" in res.note


def test_direct_check_window_translation_invariance(improper_instance, fig_instance):
    # P(tau q) = tau P(q): every verdict and normalised margin is the same
    # wherever the period run_all_checks reads starts
    graphs = [load_config(path).graph() for path in sorted(CONFIG_DIR.glob("*.json"))]
    graphs += [fig_instance, improper_instance,
               make_instance(2, 2, [1.0, 0.0], [1.0, 0.0], [1.5, 1.7])]  # class 1 all zero
    statuses = set()
    for g in graphs:
        reports = [rg.run_all_checks(g, t_base=t) for t in (-20, -1, 0, 3, 10, 15)]
        for results in zip(*(rep.results for rep in reports)):
            assert len({r.status for r in results}) == 1, results
            margins = [r.margin for r in results]
            assert max(margins) - min(margins) <= 1e-12, results
            statuses.add((results[0].name, results[0].status))
    assert {("system", "pass"), ("subgraphs", "pass"), ("proper-direct", "fail")} <= statuses


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


def test_subgraph_check_detects_perturbed_height(l4m2_instance):
    # one u_r off moves only the lines of class r mod d
    graphs = [l4m2_instance, make_instance(3, 6, [1.0, 1.5, 0.5], [0.5] * 6,
                                           [1.3, 1.5, 1.2, 1.4, 1.25, 1.35])]
    for g in graphs:
        assert g.weights.d > 1
        assert analyze.check_subgraphs(g).status == "pass"
        for r in range(g.weights.k):
            u = g.u.copy()
            u[r] += 1e-6
            res = analyze.check_subgraphs(dataclasses.replace(g, u=u))
            assert res.status == "fail" and 1e-9 < res.margin < np.inf
            assert res.witness["f"] == r % g.weights.d
            assert res.note == "class lines off the class drift"


@pytest.mark.parametrize("height", ["u", "v"])
def test_subgraph_check_fails_on_nan_height(l4m2_instance, height):
    g = l4m2_instance
    for r in range(g.weights.k):
        h = getattr(g, height).copy()
        h[r] = np.nan
        res = analyze.check_subgraphs(dataclasses.replace(g, **{height: h}))
        assert res.status == "fail" and res.margin == np.inf
        assert res.witness["f"] == r % g.weights.d
        assert res.note == "non-finite class line value"


@pytest.mark.parametrize("t_base", [-20, 0, 10])
def test_closing_piece_tests_period_end(l4m2_instance, t_base):
    # bend the period's last piece so that it still starts where it did but
    # ends off the next period's first piece: the one jump sits at
    # tau^(t_base+1), seen only once the period is closed
    g = l4m2_instance
    period = rg.component_functions(g, t_base, t_base)
    slopes = period.slopes.copy()
    slopes[-1, 0] -= 1e-4
    slopes[-1, -1] += 1e-4
    bent = dataclasses.replace(period, slopes=slopes)
    assert analyze.check_system(bent).status == "pass"
    closed = analyze._close_period(bent, g.schedule.tau)
    assert len(closed.values) == len(period.values) + 1
    res = analyze.check_system(closed)
    assert res.status == "fail" and res.note == "component discontinuous across breakpoint"
    assert res.witness["q"] == period.q_hi
    assert analyze.check_system(analyze._close_period(period, g.schedule.tau)).status == "pass"


def test_run_all_checks_extracts_once(l4m2_instance, monkeypatch):
    calls = []
    extract = analyze.component_functions
    monkeypatch.setattr(analyze, "component_functions",
                        lambda *args: calls.append(args) or extract(*args))
    assert rg.run_all_checks(l4m2_instance, t_base=3).ok
    assert calls == [(l4m2_instance, 3, 3)]


def test_report_lines_and_entry(fig_instance):
    rep = rg.run_all_checks(fig_instance)
    lines = rep.lines()
    assert len(lines) == len(rep.results)
    assert any(line.startswith("proper-sufficient: NOT-SUFFICIENT") for line in lines)
    with pytest.raises(KeyError):
        rep.entry("nonexistent")
