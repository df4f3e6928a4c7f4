"""Shared fixtures: canonical instances and randomized instance builders."""

import dataclasses
from functools import cached_property
from math import lcm

import numpy as np
import pytest

import regraph as rg
from regraph.construct import RegularGraph
from regraph.graph import _window_ends
from regraph.render import _chords


def make_instance(l, m, alpha, beta, rho) -> RegularGraph:
    w = rg.validate_weights(l, m, alpha, beta)
    sch = rg.ExpansionSchedule.from_factors(rho)
    return rg.build_graph(w, sch)


def random_instance(rng, l=None, m=None, rho_lo=1.05, rho_hi=3.0):
    """Draw positive weights (balance-normalized onto the alpha sum) and a
    uniform random factor schedule of the required length."""
    if l is None:
        l = int(rng.integers(1, 5))
    if m is None:
        m = int(rng.integers(1, 5))
    alpha = rng.uniform(0.05, 3.0, size=l)
    beta = rng.uniform(0.05, 3.0, size=m)
    beta *= alpha.sum() / beta.sum()
    rho = rng.uniform(rho_lo, rho_hi, size=lcm(l, m))
    return make_instance(l, m, alpha, beta, rho)


@dataclasses.dataclass(frozen=True, eq=False)
class Row:
    """One maximal interval on which the sorted components are all linear:
    values[i] is P_{i+1} at q_lo, slopes[i] its slope and labels[i] its
    symbolic slope label."""

    q_lo: float
    q_hi: float
    values: np.ndarray
    slopes: np.ndarray
    labels: tuple

    def values_at(self, q: float) -> np.ndarray:
        return self.values + self.slopes * (q - self.q_lo)


@dataclasses.dataclass(frozen=True, eq=False)
class WindowRows:
    """A piece table as (P, n) arrays over its whole window: row i holds
    piece i's left-end values, slopes and slope-label codes into alphabet."""

    n: int
    q_lo: float
    q_hi: float
    breakpoints: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    labels: np.ndarray
    alphabet: tuple

    @cached_property
    def pieces(self):
        return [Row(float(self.breakpoints[i]), float(self.breakpoints[i + 1]),
                    self.values[i], self.slopes[i],
                    tuple(self.alphabet[c] for c in self.labels[i]))
                for i in range(len(self.values))]


def window_rows(system) -> WindowRows:
    """The window's (P, n) rows of a PiecewiseLinearSystem: piece i is period
    0's row i mod P0 with its values times power[i // P0]."""
    t, p = np.divmod(np.arange(len(system.breakpoints) - 1), len(system.values0))
    return WindowRows(
        n=system.n, q_lo=system.q_lo, q_hi=system.q_hi, breakpoints=system.breakpoints,
        values=system.power[t][:, None] * system.values0[p],
        slopes=system.slopes0[p], labels=system.labels0[p], alphabet=system.alphabet)


def window_grid(g, system) -> np.ndarray:
    """The subinterval boundaries tau^t sigma_j of the system's window and its
    terminus, each of them a breakpoint of the system."""
    grid = np.append(np.multiply.outer(system.power, g.schedule.sigmas), system.q_hi)
    assert np.isin(grid, system.breakpoints).all()
    return grid


def window_chords(g, t_lo, t_hi):
    """render's chord arrays over the window (render._chords), with the
    ordinates in plain units rather than render's power-of-two unit."""
    return _chords(g, t_lo, _window_ends(g, t_lo, t_hi)[2], 1.0)


@pytest.fixture(scope="session")
def fig_instance():
    """l=3, m=2 with all factors the cube root of 2 (full period ratio 4)."""
    return make_instance(
        3, 2, (0.5, 1.0, 1.5), (2.0, 1.0), [rg.PowerForm(2.0, 1, 3)] * 6
    )


@pytest.fixture(scope="session")
def classical_instance():
    """The symmetric two-component instance with factor 3."""
    return make_instance(1, 1, (1.0,), (1.0,), [3.0])


@pytest.fixture(scope="session")
def l2m2_instance():
    return make_instance(2, 2, (1.0, 2.0), (2.0, 1.0), [1.4, 1.7])


@pytest.fixture(scope="session")
def l4m2_instance():
    return make_instance(4, 2, (0.5, 1.5, 1.0, 2.0), (3.0, 2.0), [1.3, 1.2, 1.5, 1.25])


@pytest.fixture(scope="session")
def improper_instance():
    """Hand-tuned so the upper node dips below the lower one at index 5."""
    return make_instance(
        3, 2, (2.7, 2.3, 0.7), (1.46, 4.24),
        [1.0013, 1.0412, 1.0401, 1.0239, 1.0158, 1.0146],
    )


@pytest.fixture(scope="session")
def all_fixture_instances(
    fig_instance, classical_instance, l2m2_instance, l4m2_instance
):
    return {
        "l3m2_cuberoot": fig_instance,
        "l1m1_classical": classical_instance,
        "l2m2_interleaved": l2m2_instance,
        "l4m2_interleaved": l4m2_instance,
    }
