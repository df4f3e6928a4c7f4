import dataclasses
import json
import tracemalloc
from math import lcm
from pathlib import Path

import numpy as np
import pytest

import regraph as rg
from regraph import analyze, graph
from regraph.cli import load_config, main

from conftest import make_instance, random_instance, window_grid, window_rows
from test_piece_table import reference_check_proper_direct, reference_check_system

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_fig_report(fig_instance):
    rep = rg.run_all_checks(fig_instance)
    assert rep.entry("system").status == "pass"
    assert rep.entry("regular").status == "pass"
    assert np.min(fig_instance.v - fig_instance.u) > 0  # every upper node above its lower
    assert rep.entry("proper-direct").status == "pass"
    assert rep.entry("proper-direct").margin > 0
    assert rep.entry("proper-sufficient").status == "not-sufficient"
    assert rep.entry("proper-m1").status == "not-applicable"
    assert rep.ok  # not-sufficient / not-applicable do not flag the instance


def test_fig_sufficient_witness_values(fig_instance):
    res = rg.run_all_checks(fig_instance).entry("proper-sufficient")
    lhs = (2 ** (5 / 3) + 1) / (2 + 2 ** (2 / 3))
    assert res.witness["lhs"] == pytest.approx(lhs, rel=1e-12)
    assert res.witness["rhs"] == pytest.approx(7 / 3, rel=1e-12)
    assert res.status == "not-sufficient"


def test_classical_checks(classical_instance):
    rep = rg.run_all_checks(classical_instance)
    assert rep.ok
    assert np.all(classical_instance.v >= classical_instance.u)
    direct = rep.entry("proper-direct")
    assert direct.status == "pass"
    assert direct.margin == pytest.approx(1.0, abs=1e-12)  # (v - u) / W, W = 1
    # the symmetric instance satisfies the ratio condition with equality:
    # psi^2+1 = 10, psi^1+psi^1 = 6, Omega/omega = 1
    suff = rep.entry("proper-sufficient")
    assert suff.status == "pass"


def test_improper_instance_flagged(improper_instance):
    rep = rg.run_all_checks(improper_instance)
    g = improper_instance
    assert g.v[5] - g.u[5] == pytest.approx(-0.16160183, abs=1e-6)
    direct = rep.entry("proper-direct")
    assert direct.status == "fail"
    assert direct.witness == {"r": 5}
    assert direct.margin == pytest.approx(-0.16160183 / 4.24, abs=1e-6)  # W = beta_2
    assert not rep.ok
    # the structural checks still hold: the graph is valid, just not proper
    assert rep.entry("system").status == "pass"
    assert rep.entry("regular").status == "pass"


def test_check_regular_detects_perturbation(fig_instance):
    res = rg.run_all_checks(fig_instance).entry("regular")
    assert res.status == "pass" and 0.0 < res.margin < 1e-15
    for height in ("u", "v"):
        h = getattr(fig_instance, height).copy()
        h[2] += 1e-6
        res = rg.run_all_checks(dataclasses.replace(fig_instance, **{height: h})).entry("regular")
        assert res.status == "fail" and res.margin > 1e-7
        assert res.witness["kind"] == height
        assert res.note == "node heights off the node system"


NON_FINITE = [(field, bad) for field in ("breakpoints", "values", "slopes")
              for bad in (np.nan, np.inf, -np.inf)]


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


def regular(g, tol=1e-9):
    """The regular check on its own.  run_all_checks raises ConstructError on
    a non-finite line value before it runs, so its non-finite FAIL path is
    reached only here."""
    return analyze._regular(g, rg.growth_terms(g.weights, g.schedule), tol)


@pytest.mark.parametrize("field,bad", NON_FINITE)
def test_check_regular_fails_on_non_finite(fig_instance, field, bad):
    for broken in with_non_finite_source(fig_instance, field, bad):
        res = regular(broken)
        assert res.status == "fail" and res.margin == np.inf
        assert "non-finite" in res.note
    if field == "values":
        assert [regular(b).witness for b in
                with_non_finite_source(fig_instance, field, bad)] == [
            {"r": 3, "kind": "u"}, {"r": 3, "kind": "v"}]


@pytest.mark.parametrize("field,bad", NON_FINITE)
def test_run_all_checks_fails_closed_on_non_finite(fig_instance, field, bad):
    # system and proper-direct never reach a verdict on a non-finite line value
    for broken in with_non_finite_source(fig_instance, field, bad):
        with pytest.raises(rg.ConstructError, match="^window: "):
            rg.run_all_checks(broken)


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


def entry(name, w, sch):
    """run_all_checks' result for check name on the graph of weights w and
    schedule sch."""
    return rg.run_all_checks(rg.build_graph(w, sch)).entry(name)


def test_m1_condition_pass_equal_weights():
    g = make_instance(3, 1, (1.0, 1.0, 1.0), (3.0,), [1.01, 1.7, 2.3])
    res = rg.run_all_checks(g).entry("proper-m1")
    assert res.status == "pass"  # all bounds are exactly 1


def test_m1_condition_violated_bound():
    w = rg.validate_weights(3, 1, (2.0, 0.5, 0.5), (3.0,))
    sch = rg.ExpansionSchedule.from_factors([1.3, 1.01, 1.5])
    res = entry("proper-m1", w, sch)
    assert res.status == "not-sufficient"
    assert res.witness["r"] == 1
    assert res.witness["bound"] == pytest.approx(10 / 7, rel=1e-12)


def test_m1_condition_not_applicable():
    w = rg.validate_weights(2, 2, (1.0, 2.0), (2.0, 1.0))
    sch = rg.ExpansionSchedule.from_factors([1.5, 1.5])
    assert entry("proper-m1", w, sch).status == "not-applicable"


def test_m1_condition_normalises_beta():
    # weights times c give the graph times c, so m = 1 applies whatever beta_1
    # is: the bound (alpha_r + beta_1) / (alpha_{r+1} + beta_1) is the paper's
    # (alpha_r + l) / (alpha_{r+1} + l) of the weights scaled to beta_1 = l
    w = rg.validate_weights(2, 1, (2.0, 1.0), (3.0,))
    res = entry("proper-m1", w, rg.ExpansionSchedule.from_factors([1.5, 1.5]))
    assert res.status == "pass" and res.witness == {"r": 1, "bound": 1.25}
    sch = rg.ExpansionSchedule.from_factors([3.0])
    want = entry("proper-m1", rg.validate_weights(1, 1, (1.0,), (1.0,)), sch)
    assert want.status == "pass" and want.witness == {"r": 1, "bound": 1.0}
    for c in (2.0, 1e6, 1e-6):
        assert entry("proper-m1", rg.validate_weights(1, 1, (c,), (c,)), sch) == want


def test_sufficient_not_applicable_for_zero_pair():
    w = rg.validate_weights(2, 2, (0.0, 1.0), (0.0, 1.0))
    sch = rg.ExpansionSchedule.from_factors([1.5, 1.8])
    res = entry("proper-sufficient", w, sch)
    assert res.status == "not-applicable"


def test_sufficient_passes_for_large_factors(fig_instance):
    # growing every factor eventually satisfies the ratio condition, and
    # the certified instance is then genuinely proper
    w = fig_instance.weights
    factors = np.array(fig_instance.schedule.factors)
    for _ in range(40):
        g = rg.build_graph(w, rg.ExpansionSchedule.from_factors(factors))
        report = rg.run_all_checks(g)
        if report.entry("proper-sufficient").status == "pass":
            break
        factors = 1.0 + (factors - 1.0) * 2.0
    else:
        pytest.fail("ratio condition never became satisfiable")
    assert np.all(g.v >= g.u)
    assert report.entry("proper-direct").status == "pass"


SEED_IMPLICATIONS = 90210


def test_implication_chain_randomized():
    # certified ratio condition => termwise condition => v >= u => direct
    rng = np.random.default_rng(SEED_IMPLICATIONS)
    checked = 0
    for _ in range(150):
        g = random_instance(rng)
        report = rg.run_all_checks(g)
        suff, term = (report.entry(name) for name in ("proper-sufficient", "proper-termwise"))
        nodes_ok = bool(np.all(g.v >= g.u))
        if suff.status == "pass":
            assert term.status == "pass"
        if term.status == "pass":
            assert nodes_ok
            checked += 1
        if nodes_ok:
            assert report.entry("proper-direct").status == "pass"
    assert checked > 10  # the chain must actually have been exercised


def test_m1_implies_nodes_randomized():
    rng = np.random.default_rng(777)
    for _ in range(60):
        l = int(rng.integers(2, 5))
        alpha = rng.uniform(0.05, 2.0, size=l)
        alpha *= l / alpha.sum()  # balance against beta_1 = l
        w = rg.validate_weights(l, 1, alpha, (float(l),))
        sch = rg.ExpansionSchedule.from_factors(rng.uniform(1.05, 2.5, size=l))
        g = rg.build_graph(w, sch)
        report = rg.run_all_checks(g)
        if report.entry("proper-m1").status != "pass":
            continue
        assert np.all(g.v >= g.u)
        assert report.entry("proper-direct").status == "pass"


def test_subgraph_check(l2m2_instance, l4m2_instance, fig_instance):
    assert rg.run_all_checks(l2m2_instance).entry("subgraphs").status == "pass"
    assert rg.run_all_checks(l4m2_instance).entry("subgraphs").status == "pass"
    # coprime group sizes form a single class: the report has no subgraphs entry
    assert fig_instance.weights.d == 1
    with pytest.raises(KeyError):
        rg.run_all_checks(fig_instance).entry("subgraphs")


def test_subgraph_check_fails_when_class_drifts_do_not_cancel():
    # the two drifts differ by 1.5e-12: inside the weights' relative balance
    # tolerance 1e-12 * 2, above the check's tol * W = 1e-15
    g = make_instance(2, 2, [1.0, 1.0], [1.0, 1.0 + 1.5e-12], [1.5, 2.0])
    res = rg.run_all_checks(g, tol=1e-15).entry("subgraphs")
    assert res.status == "fail" and res.witness is None
    assert res.note == "class drifts do not cancel"
    assert res.margin == pytest.approx(-1.5e-12, rel=1e-3)


def test_subgraph_check_detects_perturbed_height(l4m2_instance):
    # one u_r off moves only the lines of class r mod d
    graphs = [l4m2_instance, make_instance(3, 6, [1.0, 1.5, 0.5], [0.5] * 6,
                                           [1.3, 1.5, 1.2, 1.4, 1.25, 1.35])]
    for g in graphs:
        assert g.weights.d > 1
        assert rg.run_all_checks(g).entry("subgraphs").status == "pass"
        for r in range(g.weights.k):
            u = g.u.copy()
            u[r] += 1e-6
            res = rg.run_all_checks(dataclasses.replace(g, u=u)).entry("subgraphs")
            assert res.status == "fail" and 1e-9 < res.margin < np.inf
            assert res.witness["f"] == r % g.weights.d
            assert res.note == "class lines off the class drift"


def subgraphs(g, tol=1e-9):
    """The subgraphs check on its own, on the line table at the grid ends
    evaluated here, as graph._window_ends does, but without its float-range test:
    run_all_checks raises ConstructError on a non-finite line value before
    subgraphs runs, so its non-finite FAIL path is reached only here."""
    lines, sig = g.lines, np.asarray(g.schedule.sigmas)
    x = np.stack([sig, np.append(sig[1:], g.tau)])
    with np.errstate(over="ignore", invalid="ignore"):
        ends = lines.y0 + lines.slope * (x[..., None] - lines.x0)
    return analyze._subgraphs(g, x, ends, float(np.max(np.abs(lines.slope))), tol, 1.0)


@pytest.mark.parametrize("height", ["u", "v"])
def test_subgraph_check_fails_on_nan_height(l4m2_instance, height):
    g = l4m2_instance
    for r in range(g.weights.k):
        h = getattr(g, height).copy()
        h[r] = np.nan
        broken = dataclasses.replace(g, **{height: h})
        with pytest.raises(rg.ConstructError, match="^window: "):
            rg.run_all_checks(broken)
        res = subgraphs(broken)
        assert res.status == "fail" and res.margin == np.inf
        assert res.witness["f"] == r % g.weights.d
        assert res.note == "non-finite class line value"


def close_period(sys, tau):
    """The window's rows with the next period's first piece appended: row 0
    times tau, as P(tau q) = tau P(q), so the period's end is an interior
    breakpoint."""
    sys = window_rows(sys)
    end = tau * sys.breakpoints[1]
    return dataclasses.replace(
        sys, q_hi=float(end), breakpoints=np.append(sys.breakpoints, end),
        values=np.vstack([sys.values, tau * sys.values[0]]),
        slopes=np.vstack([sys.slopes, sys.slopes[:1]]),
        labels=np.vstack([sys.labels, sys.labels[:1]]))


@pytest.mark.parametrize("t_base", [-20, 0, 10])
def test_closing_piece_tests_period_end(l4m2_instance, t_base):
    # the grid reference reads the closing row at tau too: bend the bottom and
    # top lines of the last subinterval about sigma_{k-1} by +-D.  This keeps
    # their values there and every line sum, raises the slacks at sigma_{k-1},
    # and leaves the bottom slope sums falling only at tau^(t_base+1), where the
    # next period's first subinterval closes the period.  The node test reads
    # u, v and the weights, not the line table, so the bend does not reach it
    g = l4m2_instance
    j, sig = g.weights.k - 1, g.schedule.sigmas[-1]
    lines = g.lines
    at_sig = lines.y0[j] + lines.slope[j] * (sig - lines.x0[j])
    bottom, top = np.argmin(at_sig), np.argmax(at_sig)
    bend = 1e-3 * np.max(np.abs(lines.slope))
    slope, y0 = lines.slope.copy(), lines.y0.copy()
    for i, d in ((bottom, bend), (top, -bend)):
        slope[j, i] += d
        y0[j, i] -= d * (sig - lines.x0[j, i])
    assert rg.run_all_checks(g, t_base=t_base).entry("proper-direct").status == "pass"
    assert grid_proper_direct(g, t_base=t_base).status == "pass"
    bent = with_lines(g, slope=slope, y0=y0)
    report = rg.run_all_checks(bent, t_base=t_base)
    assert report.entry("system").status == "pass"
    assert report.entry("proper-direct").status == "pass"
    res = grid_proper_direct(bent, t_base=t_base)
    assert res.status == "fail"
    assert res.witness["q"] == pytest.approx(g.tau ** (t_base + 1), rel=1e-15)


def test_run_all_checks_never_extracts(l4m2_instance, monkeypatch):
    def extract(*args):
        raise AssertionError("run_all_checks extracted a piece table")

    monkeypatch.setattr(graph, "component_functions", extract)
    monkeypatch.setattr(analyze, "component_functions", extract, raising=False)
    assert rg.run_all_checks(l4m2_instance, t_base=3).ok


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_run_all_checks_rejects_bad_tolerance(tol):
    # the rule of load_config: 0 < tol <= the largest float.
    # A NaN tol would PASS system, regular and subgraphs on this broken graph
    g = load_config(CONFIG_DIR / "l4m2_interleaved.json").graph()
    u = g.u.copy()
    u[1] += 1e-3
    with pytest.raises(ValueError, match="^tol: "):
        rg.run_all_checks(dataclasses.replace(g, u=u), tol=tol)


class SealedLines:
    """A line table whose columns x0, y0 and slope may not be read once sealed:
    past the grid ends, check reads only r, and W comes from the weights."""

    def __init__(self, lines):
        self.lines, self.sealed = lines, False

    def __getattr__(self, name):
        if self.sealed and name in ("x0", "y0", "slope"):
            raise AssertionError(f"line table evaluated again: {name} read after _window_ends")
        return getattr(self.lines, name)


@pytest.mark.parametrize("instance", ["fig_instance", "l4m2_instance"])
def test_run_all_checks_evaluates_grid_once(instance, request, monkeypatch):
    # _window_ends evaluates the line table at the grid ends once per report and no
    # check evaluates it again; growth_terms is computed once.  d = 1 and d > 1
    g = dataclasses.replace(request.getfixturevalue(instance))
    watched = SealedLines(g.lines)
    object.__setattr__(g, "lines", watched)
    calls = {"_window_ends": 0, "growth_terms": 0}
    real_grid, real_terms = analyze._window_ends, analyze.growth_terms

    def grid(*args):
        calls["_window_ends"] += 1
        out = real_grid(*args)
        watched.sealed = True
        return out

    def terms(*args):
        calls["growth_terms"] += 1
        return real_terms(*args)

    monkeypatch.setattr(analyze, "_window_ends", grid)
    monkeypatch.setattr(analyze, "growth_terms", terms)
    report = rg.run_all_checks(g)
    assert report.ok
    assert ("subgraphs" in [r.name for r in report.results]) == (g.weights.d > 1)
    assert calls == {"_window_ends": 1, "growth_terms": 1}


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


def test_slope_labels_permute_each_row():
    # the extraction codes labels from r (rising r mod l, falling l + r mod m),
    # and no check reads them back: every row of every piece must hold each
    # slope label exactly once
    graphs = reproduction_set()
    graphs.append(random_instance(np.random.default_rng(31), 31, 29, 1.01, 1.02))
    for g in graphs:
        labels = rg.component_functions(g, 0, 0).labels0
        assert (np.sort(labels, axis=1) == np.arange(g.weights.n)).all(), g.weights


def table_slack(sys, tol):
    """proper-direct's (B, n - 1) slacks and open gaps at the interior
    breakpoints of a piece table: the bottom-i slope sums right minus left,
    and the gaps just right above tol * W * q."""
    csum = np.cumsum(sys.slopes, axis=1)
    gap = np.diff(sys.values[1:], axis=1)
    w_max = np.max(np.abs(sys.slopes))
    return csum[1:, :-1] - csum[:-1, :-1], ~(gap <= tol * w_max * sys.breakpoints[1:-1, None])


def grid_slack(g, ends):
    """The (k, n - 1) slacks and gaps of proper-direct's grid route at the
    grid abscissae sigma_1 .. sigma_{k-1}, tau of the grid ends
    (graph._window_ends), index i + 1 in column i.

    Just left of sigma_j is row j - 1, ordered by (value, -slope); just right
    is row j, ordered by (value, slope); at tau it is row 0 times tau.  The
    gaps are those just right.  Between grid abscissae the active lines are
    fixed, and at a crossing the order changes only within lines tied there,
    whose gaps are closed, so these are all the slacks that can fail.
    """
    k, slope = g.weights.k, g.lines.slope
    after = np.append(np.arange(1, k), 0)  # row j + 1, row 0 after row k - 1
    right = ends[0][after]
    right[-1] *= g.schedule.tau
    vals = np.concatenate([ends[1], right])
    slopes = np.concatenate([slope, slope[after]])
    order = np.lexsort((np.concatenate([-slope, slopes[k:]]), vals))
    csum = np.cumsum(np.take_along_axis(slopes, order, axis=1), axis=1)
    gap = np.diff(np.take_along_axis(right, order[k:], axis=1), axis=1)
    return csum[k:, :-1] - csum[:k, :-1], gap


def grid_proper_direct(g, tol=1e-9, t_base=0):
    """The grid route of proper-direct, the O(k n log n) reference of the node
    test: the least grid_slack where the gap at grid abscissa x is open (above
    tol * W * x), failing below -tol * W, vacuously proper without an open gap.
    The margin is in the units of the weights; the witness is the abscissa q
    of period t_base and the index i."""
    x, ends, power = graph._window_ends(g, t_base, t_base)
    w_max = float(np.max(np.abs(g.lines.slope)))
    with np.errstate(over="ignore", invalid="ignore"):
        slack, gap = grid_slack(g, ends)
    # components tied at x are exempt; a NaN gap is not tied, so it counts
    open_gap = ~(gap <= tol * w_max * x[1][:, None])
    if not open_gap.any():
        return analyze.CheckResult("proper-direct", analyze.PASS, tol, 0.0, None)
    slack = np.where(open_gap, slack, np.inf)
    b, i = np.unravel_index(np.argmin(slack), slack.shape)
    least = float(slack[b, i])
    return analyze.CheckResult(
        "proper-direct", analyze.PASS if least >= -tol * w_max else analyze.FAIL, tol, least,
        {"q": float(power[0] * x[1, b]), "i": int(i) + 1})


def test_grid_route_matches_table_route():
    # run_all_checks reads the line table at the grid abscissae, and
    # grid_proper_direct does for proper-direct; the table route extracts
    # period t_base and closes it with one piece.  The loop references referee
    # the statuses of run_all_checks and of the grid route in period 0 (the other
    # periods give the same verdicts:
    # test_direct_check_window_translation_invariance), and the slacks of the
    # two routes agree in every period tested
    tol = 1e-9
    graphs = reproduction_set()
    graphs += [load_config(path).graph() for path in sorted(CONFIG_DIR.glob("*.json"))]
    compared = 0
    statuses = set()
    for g in graphs:
        for t_base in (-20, 0, 10):
            report = rg.run_all_checks(g, tol, t_base)
            table = rg.component_functions(g, t_base, t_base)
            closed = close_period(table, g.schedule.tau)
            if t_base == 0:
                for got, reference in ((report.entry("system"), reference_check_system),
                                       (report.entry("proper-direct"),
                                        reference_check_proper_direct)):
                    want = reference(closed, tol)
                    assert got.status == want.status, (g.weights, got, want)
                    statuses.add((got.name, got.status))
                assert grid_proper_direct(g, tol).status == want.status
            # the slacks of every (q, i) both routes test, q a grid abscissa
            x, ends, _ = analyze._window_ends(g, t_base, t_base)
            slack, gap = grid_slack(g, ends)
            w_max = np.max(np.abs(g.lines.slope))
            grid_open = ~(gap <= tol * w_max * x[1][:, None])
            want_slack, want_open = table_slack(closed, tol)
            grid = window_grid(g, table)
            rows = np.searchsorted(closed.breakpoints, grid[1:]) - 1
            assert np.array_equal(closed.breakpoints[rows + 1], grid[1:])
            both = grid_open & want_open[rows]
            assert np.abs(slack - want_slack[rows])[both].max(initial=0.0) <= 1e-12
            compared += int(both.sum())
    assert compared > 10000
    assert {("system", "pass"), ("proper-direct", "pass"), ("proper-direct", "fail")} <= statuses


def bending_weight(g):
    """c_r = alpha_{r mod l} + beta_{r mod m}, the two weights that bend the
    graph at the nodes of index r."""
    w, r = g.weights, np.arange(g.weights.k)
    return np.asarray(w.alpha)[r % w.l] + np.asarray(w.beta)[r % w.m]


def test_grid_slacks_are_node_weights():
    # the argument of the node test: at the grid abscissa sigma_j (tau closes the
    # period, node 0 of the next) every slack at an open gap is 0 or +-c_j, and
    # the verdict is the grid route's, but where 0 < c_j <= tol * W
    tol = 1e-9
    verdicts = set()
    for g in reproduction_set():
        x, ends, _ = analyze._window_ends(g, 0, 0)
        slack, gap = grid_slack(g, ends)
        w_max, c = np.max(np.abs(g.lines.slope)), bending_weight(g)
        at_row = np.roll(c, -1)[:, None]  # row b is node (b + 1) mod k
        open_gap = ~(gap <= tol * w_max * x[1][:, None])
        off = np.min(np.abs([slack, slack - at_row, slack + at_row]), axis=0)
        assert off[open_gap].max(initial=0.0) <= 1e-12 * w_max, g.weights
        got = rg.run_all_checks(g, tol).entry("proper-direct").status
        if got != grid_proper_direct(g, tol).status:
            assert np.any((0 < c) & (c <= tol * w_max)), g.weights
        verdicts.add((got, bool(np.any(c == 0.0))))
    assert verdicts == {(s, z) for s in ("pass", "fail") for z in (False, True)}


ZERO_PAIR = {"l": 2, "m": 4, "alpha": [0.0, 3.0], "beta": [2.25, 0.0, 0.0, 0.75],
             "rho": [1.48, 2.24, 2.02, 2.66], "window": {"t_min": 0, "t_max": 1}}


def pair_graph(doc):
    return make_instance(doc["l"], doc["m"], doc["alpha"], doc["beta"], doc["rho"])


def test_zero_weight_pair_bends_nothing(capsys):
    # node r = 2 is inverted, but c_2 = alpha_0 + beta_2 = 0: the lines that
    # swap there have slope 0 and bend no component, so the graph is proper
    g = pair_graph(ZERO_PAIR)
    inverted = np.flatnonzero(g.v < g.u)
    assert inverted.tolist() == [2] and bending_weight(g)[2] == 0.0
    res = rg.run_all_checks(g).entry("proper-direct")
    assert res.status == "pass" and res.margin > 0
    assert grid_proper_direct(g).status == "pass"
    assert main(["check", json.dumps(ZERO_PAIR)]) == 0
    assert "proper-direct: PASS" in capsys.readouterr().out


def test_small_bending_weight_fails(capsys):
    # the same shape with c_2 = 3e-10, so c_2 / W = 1e-10 <= tol: the grid route
    # reads the slack -c_2 and passes it; the node test reads v_2 - u_2
    doc = dict(ZERO_PAIR, alpha=[2e-10, 3.0], beta=[2.25, 1e-10, 1e-10, 0.75])
    g = pair_graph(doc)
    w_max = 3.0
    assert 0 < bending_weight(g)[2] <= 1e-9 * w_max
    ref = grid_proper_direct(g)
    assert ref.status == "pass" and ref.margin == pytest.approx(-3e-10, rel=1e-6)
    res = rg.run_all_checks(g).entry("proper-direct")
    assert res.status == "fail" and res.witness == {"r": 2}
    assert res.margin == pytest.approx((g.v[2] - g.u[2]) / w_max, rel=1e-12)
    assert res.margin == pytest.approx(-0.2016, abs=1e-4)
    assert main(["check", json.dumps(doc)]) == 1
    assert "proper-direct: FAIL" in capsys.readouterr().out


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
    slope = g.lines.slope.copy()
    slope[3, 0] = 0.0
    res = rg.run_all_checks(with_lines(g, slope=slope)).entry("system")
    assert res.status == "fail" and res.note == "component sum off the expected line"
    # shifting two lines by +-D keeps every sum and breaks vanishing at 0
    y0 = g.lines.y0.copy()
    y0[:, 0] += 10.0
    y0[:, -1] -= 10.0
    res = rg.run_all_checks(with_lines(g, y0=y0)).entry("system")
    assert res.status == "fail"
    assert res.note == "first-period values inconsistent with vanishing at 0"


def test_nan_residual_fails():
    # finite terms whose partial sums overflow to +inf and -inf leave a NaN
    # residual; it fails with its witness and the non-finite note, never passes
    with np.errstate(over="ignore", invalid="ignore"):
        halves = np.array([[1e308, 1e308], [-1e308, -1e308]]).sum(axis=1)
        rel = np.array([0.0, 1e-17, abs(halves.sum()), 1e-16])
    assert np.isnan(rel[2])
    res = analyze._worst_residual("system", rel, 1e-9, lambda i: {"i": i},
                                  ("finite", "non-finite"))
    assert res.status == "fail" and res.margin == np.inf
    assert res.witness == {"i": 2} and res.note == "non-finite"


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
