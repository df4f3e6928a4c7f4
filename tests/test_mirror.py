"""The mirror (l, m, alpha, beta) <-> (m, l, beta, alpha) as a free oracle.

Negating the graph swaps its rising and falling lines, so on the same
schedule the mirror instance's graph is -P reversed: its node heights are
u' = -v and v' = -u, its components P'_i = -P_(n+1-i).  The float
operations of both sides agree up to sign, so these hold bit for bit.
Every check but proper-m1 reads a mirror-invariant property and gives the
same status; proper-m1 applies only when m = 1, which the mirror turns
into l = 1.
"""

from math import lcm

import numpy as np
import pytest

import regraph as rg

from conftest import make_instance

N_PAIRS = 150


def mirror_pairs(seed, zero_p):
    """N_PAIRS (graph, mirror graph) pairs: l, m <= 5, weights U[0.05, 3] with
    each zeroed at probability zero_p (a draw with a side all zero is skipped,
    as it cannot balance), beta balanced onto the alpha sum, rho ~ U[1.05, 3]."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < N_PAIRS:
        l, m = (int(v) for v in rng.integers(1, 6, size=2))
        alpha = rng.uniform(0.05, 3.0, size=l) * (rng.random(l) >= zero_p)
        beta = rng.uniform(0.05, 3.0, size=m) * (rng.random(m) >= zero_p)
        rho = rng.uniform(1.05, 3.0, size=lcm(l, m))
        if alpha.sum() == 0 or beta.sum() == 0:
            continue
        beta *= alpha.sum() / beta.sum()
        pairs.append((make_instance(l, m, alpha, beta, rho),
                      make_instance(m, l, beta, alpha, rho)))
    return pairs


@pytest.mark.parametrize("seed, zero_p", [(7, 0.0), (10, 0.3)])
def test_mirror_is_minus_p_reversed(seed, zero_p):
    rng = np.random.default_rng(seed + 1000)
    for g, h in mirror_pairs(seed, zero_p):
        assert np.array_equal(h.u, -g.v) and np.array_equal(h.v, -g.u), g.weights
        tau = g.schedule.tau
        for q in [*tau ** rng.uniform(-3, 3, size=20), *g.schedule.sigmas]:
            assert np.array_equal(rg.evaluate(h, q), -rg.evaluate(g, q)[::-1]), (g.weights, q)
        s, s_mirror = rg.component_functions(g, 0, 0), rg.component_functions(h, 0, 0)
        assert np.array_equal(s_mirror.breakpoints, s.breakpoints), g.weights
        assert np.array_equal(s_mirror.values0, -s.values0[:, ::-1]), g.weights
        status = {r.name: r.status for r in rg.run_all_checks(g).results}
        mirror = {r.name: r.status for r in rg.run_all_checks(h).results}
        del status["proper-m1"], mirror["proper-m1"]
        assert mirror == status, g.weights
