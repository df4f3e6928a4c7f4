"""The classical case as an oracle: Roy's n-systems.

With l = 1, alpha = [(n - 1)/n] and beta = [1/n] * (n - 1), P + q/n is Roy's
normalisation of an n-system (Ann. of Math. 182, 2015), shifted so that the
components sum to 0 as regraph's do.  Its axioms are stated on the component
functions alone, so they check the graph without the construction's code:

  (S1) the components sum to 0;
  (S2) on every piece P + q/n has one component of slope 1, the others 0;
  (S3) where the rising component moves up from index a to index b,
       P_a = ... = P_b there.

(S3) says that P_1 + ... + P_i is convex where P_i < P_{i+1} (Schmidt and
Summerer, Acta Arith. 140, 2009), the properness that proper-direct decides.
With l = 1 and unequal beta the one rising component still carries every
transfer, and the (S3) test on the pieces gives proper-direct's verdict.
The mirror (m, l, beta, alpha), where m = 1, gets the same tests on its
components read as Q_i = -P_{n+1-i}, whose one rising component is the
mirror's falling one.
"""

from math import lcm

import numpy as np
import pytest

import regraph as rg

from conftest import make_instance, window_rows

TOL = 1e-9


def classical_graphs(rng, n, count):
    """count graphs (and their mirrors) of the classical weights with n
    components: half on a constant schedule rho ~ U[1.01, 20], half on
    rho_i = 1 + (rho - 1) U[0.5, 1.5]."""
    alpha, beta = [(n - 1) / n], [1 / n] * (n - 1)
    out = []
    for i in range(count):
        rho = np.full(n - 1, rng.uniform(1.01, 20.0))
        if i % 2:
            rho = 1.0 + (rho - 1.0) * rng.uniform(0.5, 1.5, size=n - 1)
        out.append((make_instance(1, n - 1, alpha, beta, rho),
                    make_instance(n - 1, 1, beta, alpha, rho)))
    return out


def roy_components(g, lone):
    """Breakpoints q, the components at each piece's left end, their slopes
    and the index of the lone group's one component per piece, over periods 0
    and 1, so that the period's closing abscissa tau is interior.  lone is
    "alpha" for l = 1; for m = 1 it is "beta" and the components are read as
    Q_i = -P_{n+1-i}, so the lone component rises in both."""
    rows = window_rows(rg.component_functions(g, 0, 1))
    code = 0 if lone == "alpha" else g.weights.l
    values, slopes, labels = rows.values, rows.slopes, rows.labels
    if lone == "beta":
        values, slopes, labels = -values[:, ::-1], -slopes[:, ::-1], labels[:, ::-1]
    assert np.all((labels == code).sum(axis=1) == 1)
    return rows.breakpoints[:-1], values, slopes, np.argmax(labels == code, axis=1)


def s3_transfers_tied(q, values, rising, w_max):
    """(S3): wherever the rising component moves up from index a to b, the
    components a..b are tied at that breakpoint, to TOL * W * q."""
    a, b = rising[:-1], rising[1:]
    spread = values[np.arange(1, len(q)), b] - values[np.arange(1, len(q)), a]
    return bool(np.all((b <= a) | (spread <= TOL * w_max * q[1:])))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_classical_graph_is_a_roy_system(n):
    rng = np.random.default_rng(100 + n)
    for pair in classical_graphs(rng, n, 30):
        for g, lone in zip(pair, ("alpha", "beta")):
            q, values, slopes, rising = roy_components(g, lone)
            # (S1)
            assert np.all(np.abs(values.sum(axis=1)) <= 1e-12 * q), g.schedule
            assert np.all(np.abs(slopes.sum(axis=1)) <= 1e-12)
            # (S2): slopes 0 and 1, the 1 on the lone group's component
            shifted = slopes + 1 / n
            assert np.all(np.abs(shifted - (np.arange(n) == rising[:, None])) <= 1e-12)
            # (S3), and every check passes
            assert s3_transfers_tied(q, values, rising, (n - 1) / n), g.schedule
            assert rg.run_all_checks(g).ok, g.schedule


def unequal_beta_pairs(rng, count):
    """count graphs with l = 1, n = 3..7 and unequal beta ~ U[0.05, 3] balanced
    onto alpha, rho ~ U[1.01, 3], each with its mirror."""
    out = []
    for _ in range(count):
        m = int(rng.integers(2, 7))
        alpha = np.array([rng.uniform(0.5, 3.0)])
        beta = rng.uniform(0.05, 3.0, size=m)
        beta *= alpha.sum() / beta.sum()
        rho = rng.uniform(1.01, 3.0, size=lcm(1, m))
        out.append((make_instance(1, m, alpha, beta, rho), make_instance(m, 1, beta, alpha, rho)))
    return out


def test_s3_is_the_properness_verdict():
    # l = 1 with unequal beta reaches improper graphs, which equal beta does not
    verdicts = []
    for pair in unequal_beta_pairs(np.random.default_rng(6), 300):
        for g, lone in zip(pair, ("alpha", "beta")):
            q, values, _, rising = roy_components(g, lone)
            w_max = max(max(g.weights.alpha), max(g.weights.beta))
            s3 = s3_transfers_tied(q, values, rising, w_max)
            direct = rg.run_all_checks(g).entry("proper-direct").status
            assert direct == ("pass" if s3 else "fail"), g.weights
            verdicts.append(s3)
    assert 0 < verdicts.count(False) < len(verdicts) // 2
