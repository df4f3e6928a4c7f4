import dataclasses
import tracemalloc
from math import lcm
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
from regraph import analyze, graph
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


def close_period(sys, tau):
    """The table with the next period's first piece appended: row 0 times tau,
    as P(tau q) = tau P(q), so the period's end is an interior breakpoint."""
    end = tau * sys.breakpoints[1]
    return dataclasses.replace(
        sys, q_hi=float(end), breakpoints=np.append(sys.breakpoints, end),
        values=np.vstack([sys.values, tau * sys.values[0]]),
        slopes=np.vstack([sys.slopes, sys.slopes[:1]]),
        labels=np.vstack([sys.labels, sys.labels[:1]]))


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
    closed = close_period(bent, g.schedule.tau)
    assert len(closed.values) == len(period.values) + 1
    res = analyze.check_system(closed)
    assert res.status == "fail" and res.note == "component discontinuous across breakpoint"
    assert res.witness["q"] == period.q_hi
    assert analyze.check_system(close_period(period, g.schedule.tau)).status == "pass"


def test_run_all_checks_never_extracts(l4m2_instance, monkeypatch):
    def extract(*args):
        raise AssertionError("run_all_checks extracted a piece table")

    monkeypatch.setattr(graph, "_window", extract)
    monkeypatch.setattr(analyze, "component_functions", extract, raising=False)
    assert rg.run_all_checks(l4m2_instance, t_base=3).ok


def test_report_lines_and_entry(fig_instance):
    rep = rg.run_all_checks(fig_instance)
    lines = rep.lines()
    assert len(lines) == len(rep.results)
    assert any(line.startswith("proper-sufficient: NOT-SUFFICIENT") for line in lines)
    with pytest.raises(KeyError):
        rep.entry("nonexistent")


# ------------------------------------------- check on the line table's grid

def reproduction_set():
    """default_rng(0): 200 instances with l, m <= 5, rho ~ U[1.05, 3] and weights
    U[0.2, 3] balanced onto sum(alpha); 200 more with each weight zeroed with
    probability 0.3 (redrawn where a group is all zero); then the 5 instances of
    the benchmark ladder, drawn as it draws them."""
    rng = np.random.default_rng(0)
    graphs = []
    for zeroed in (False, True):
        count = 0
        while count < 200:
            l, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            alpha, beta = rng.uniform(0.2, 3.0, size=l), rng.uniform(0.2, 3.0, size=m)
            if zeroed:
                alpha[rng.random(l) < 0.3] = 0.0
                beta[rng.random(m) < 0.3] = 0.0
                if alpha.sum() == 0.0 or beta.sum() == 0.0:
                    continue
            beta *= alpha.sum() / beta.sum()
            graphs.append(make_instance(l, m, alpha, beta, rng.uniform(1.05, 3.0, size=lcm(l, m))))
            count += 1
    graphs.append(make_instance(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0), [rg.PowerForm(2.0, 1, 3)] * 6))
    rng = np.random.default_rng(20081025)
    for l, m in ((7, 5), (13, 11), (6, 4), (20, 15)):
        alpha, beta = rng.uniform(0.05, 3.0, size=l), rng.uniform(0.05, 3.0, size=m)
        beta *= alpha.sum() / beta.sum()
        graphs.append(make_instance(l, m, alpha, beta, rng.uniform(1.05, 1.15, size=lcm(l, m))))
    return graphs


def table_slack(sys, tol):
    """check_proper_direct's (B, n - 1) slacks and open gaps at the interior
    breakpoints, as its own arithmetic forms them."""
    csum = np.cumsum(sys.slopes, axis=1)
    gap = np.diff(sys.values[1:], axis=1)
    w_max = np.max(np.abs(sys.slopes))
    return csum[1:, :-1] - csum[:-1, :-1], ~(gap <= tol * w_max * sys.breakpoints[1:-1, None])


def test_grid_route_matches_table_route():
    # run_all_checks reads the line table at the grid abscissae; the table
    # route extracts period t_base, closes it with one piece and checks that
    tol = 1e-9
    graphs = reproduction_set()
    graphs += [load_config(path).graph() for path in sorted(CONFIG_DIR.glob("*.json"))]
    compared = 0
    statuses = set()
    for g in graphs:
        for t_base in (-20, 0, 10):
            report = rg.run_all_checks(g, tol, t_base)
            closed = close_period(rg.component_functions(g, t_base, t_base), g.schedule.tau)
            for got, want in ((report.entry("system"), analyze.check_system(closed, tol)),
                              (report.entry("proper-direct"),
                               analyze.check_proper_direct(closed, tol))):
                assert got.status == want.status, (g.weights, t_base, got, want)
                statuses.add((got.name, got.status))
            # the slacks of every (q, i) both routes test, q a grid abscissa
            x, ends = analyze._grid(g, t_base)
            slack, gap = analyze._grid_slack(g, ends)
            w_max = np.max(np.abs(g.lines.slope))
            grid_open = ~(gap <= tol * w_max * x[1][:, None])
            want_slack, want_open = table_slack(closed, tol)
            rows = np.searchsorted(closed.breakpoints, closed.grid[1:]) - 1
            assert np.array_equal(closed.breakpoints[rows + 1], closed.grid[1:])
            both = grid_open & want_open[rows]
            assert np.abs(slack - want_slack[rows])[both].max(initial=0.0) <= 1e-12
            compared += int(both.sum())
    assert compared > 10000
    assert {("system", "pass"), ("proper-direct", "pass"), ("proper-direct", "fail")} <= statuses


def test_zero_weight_verdicts_pinned():
    # proper-direct and proper-nodes disagree on this zero-weight instance; which
    # one the paper's definition backs is open, so today's verdicts are pinned
    g = make_instance(2, 4, [0.0, 3.0], [2.25, 0.0, 0.0, 0.75], [1.48, 2.24, 2.02, 2.66])
    report = rg.run_all_checks(g)
    assert report.entry("proper-direct").status == "pass"
    assert report.entry("proper-nodes").status == "fail"


def with_lines(g, **fields):
    """g with its line table's fields replaced, past the derivation from u, v."""
    broken = dataclasses.replace(g)
    object.__setattr__(broken, "lines", dataclasses.replace(g.lines, **fields))
    return broken


def test_grid_system_detects_broken_graph(fig_instance):
    g = fig_instance
    assert rg.run_all_checks(g).entry("system").status == "pass"
    u = g.u.copy()
    u[2] += 1e-6
    res = rg.run_all_checks(dataclasses.replace(g, u=u)).entry("system")
    assert res.status == "fail" and res.margin > 1e-8
    assert res.note == "component sum off the expected line"
    label = g.lines.label.copy()
    label[3, 0] = label[3, 1]
    res = rg.run_all_checks(with_lines(g, label=label), t_base=2).entry("system")
    assert res.status == "fail" and res.note == "slope labels are not a permutation of the alphabet"
    assert res.witness == {"j": 3, "q": pytest.approx(g.tau**2 * g.schedule.sigmas[3])}
    # shifting two lines by +-D keeps every sum and breaks vanishing at 0
    y0 = g.lines.y0.copy()
    y0[:, 0] += 10.0
    y0[:, -1] -= 10.0
    res = rg.run_all_checks(with_lines(g, y0=y0)).entry("system")
    assert res.status == "fail"
    assert res.note == "first-period values inconsistent with vanishing at 0"
    # a non-finite height never reaches a verdict
    for bad in (np.nan, np.inf, -np.inf):
        u = g.u.copy()
        u[3] = bad
        with pytest.raises(rg.ConstructError, match="^window: "):
            rg.run_all_checks(dataclasses.replace(g, u=u))


def test_run_all_checks_memory_large_k():
    # k = 899, n = 60: no O(k n^2) crossing arrays, no piece table
    g = random_instance(np.random.default_rng(31), 31, 29, 1.01, 1.02)
    assert g.weights.k == 899
    tracemalloc.start()
    try:
        rg.run_all_checks(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def exactly_balanced_instances(rng, count, scales):
    """Random instances with l, m <= 6 whose weights, multiplied by each scale,
    still balance exactly in floats, so that validate_weights accepts them."""
    out = []
    while len(out) < count:
        l, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        alpha, beta = rng.uniform(0.05, 3.0, size=l), rng.uniform(0.05, 3.0, size=m)
        beta *= alpha.sum() / beta.sum()
        if all((c * alpha).sum() == (c * beta).sum() for c in (1.0, *scales)):
            out.append((l, m, alpha, beta, rng.uniform(1.05, 3.0, size=lcm(l, m))))
    return out


def test_check_statuses_scale_invariant():
    # weights times c give the graph times c: no verdict may move
    scales = (1e6, 1e9)
    for l, m, alpha, beta, rho in exactly_balanced_instances(
            np.random.default_rng(2718), 80, scales):
        want = [r.status for r in rg.run_all_checks(make_instance(l, m, alpha, beta, rho)).results]
        for c in scales:
            g = make_instance(l, m, c * alpha, c * beta, rho)
            assert [r.status for r in rg.run_all_checks(g).results] == want, (l, m, c)
