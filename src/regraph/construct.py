"""Node-height construction for regular self-similar graphs.

Everything here reduces to one cyclic linear system.  A schedule of
expansion factors rho_1..rho_k (each > 1) fixes partial products
sigma_r and the period ratio tau = sigma_k.  The unknown node heights
u_0..u_{k-1} (lower nodes) satisfy

    u_r - chi_r * u_{(r+n) mod k} = -U_r,

where chi_r is the growth across n consecutive steps starting at r and
U_r collects the two slope contributions of the segment pair based at
r.  The upper heights v_r satisfy the mirrored system with V_r.
growth_terms computes chi, U, V and the growths psi(r, l), psi(r, m)
for every r in one array pass over the sigmas of (at most) three
periods.  The system splits into gcd(l, m) independent cyclic blocks.
solve_uv solves each block in closed form by walking its cycle with
the affine step x <- (x + U_r) / chi_r, in O(k) and without forming
tau^n.  solve_uv_oracle assembles the same system as a dense matrix
from the same coefficient arrays and is otherwise independent of it,
as the cross-check in verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .weights import Weights


class ConstructError(ValueError):
    """Invalid construction input."""


class InvalidFactor(ConstructError):
    """Expansion factors must all exceed 1."""


class ScheduleMismatch(ConstructError):
    """Schedule length must equal lcm(l, m) of the paired weights."""


class SingularSystem(ConstructError):
    """The cyclic system has no unique solution."""


@dataclass(frozen=True)
class PowerForm:
    """An expansion factor given exactly as base ** (num / den).

    Keeping the exponent as a rational lets the schedule recover an
    exact period ratio when the exponents sum to an integer (e.g. six
    copies of 2 ** (1/3) give tau = 4 with no rounding drift).
    """

    base: float
    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise InvalidFactor(f"exponent denominator must be positive, got {self.den}")
        if self.base <= 0:
            raise InvalidFactor(f"power base must be positive, got {self.base}")

    @property
    def value(self) -> float:
        """base ** (num / den); inf where that overflows a float."""
        try:
            return float(self.base) ** (self.num / self.den)
        except OverflowError:
            return math.inf


FactorLike = Union[float, PowerForm]


@dataclass(frozen=True)
class ExpansionSchedule:
    """Multiplicative schedule rho_1..rho_k with its partial products.

    sigma_r for 0 <= r < k is the product of the first r factors
    (sigma_0 = 1) and tau = sigma_k is the full-period ratio.  The
    schedule extends to every integer index by sigma_{sk+h} =
    tau^s * sigma_h, so windows left of the base period need no special
    casing.
    """

    factors: tuple[float, ...]
    sigmas: tuple[float, ...]  # sigma_0 .. sigma_{k-1}
    tau: float

    @classmethod
    def from_factors(cls, factors: Sequence[FactorLike]) -> "ExpansionSchedule":
        """Validate factors (> 1 each) and precompute partial products.

        Entries may be plain numbers or PowerForm values; when every
        power-form exponent accumulates to an integer, tau is snapped to
        the exact product instead of the rounded running one.
        """
        if len(factors) == 0:
            raise InvalidFactor("schedule needs at least one factor")
        values = []
        exponents: dict[float, Fraction] = {}
        plain = 1.0
        for i, f in enumerate(factors):
            if isinstance(f, PowerForm):
                val = f.value
                exponents[f.base] = exponents.get(f.base, Fraction(0)) + Fraction(f.num, f.den)
            else:
                val = float(f)
                plain *= val
            if not val > 1.0:
                raise InvalidFactor(f"factor {i} is {val}, must exceed 1")
            values.append(val)
        sigmas = [1.0]
        for val in values[:-1]:
            sigmas.append(sigmas[-1] * val)
        tau = sigmas[-1] * values[-1]
        if exponents and all(e.denominator == 1 for e in exponents.values()):
            tau = plain
            try:
                for base, e in exponents.items():
                    tau *= float(base) ** int(e)
            except OverflowError:
                tau = math.inf
        if not math.isfinite(tau):
            raise InvalidFactor(f"period ratio tau = {tau} is not a finite float")
        return cls(factors=tuple(values), sigmas=tuple(sigmas), tau=tau)

    def __len__(self) -> int:
        return len(self.factors)

    def sigma_at(self, r: int) -> float:
        """Partial product sigma_r, extended to all integers r."""
        s, h = divmod(r, len(self.factors))
        return self.tau**s * self.sigmas[h]

    def psi(self, r: int, s: int) -> float:
        """Growth over s consecutive factors starting after index r:
        psi = sigma_{r+s} / sigma_r.  Periodic up to powers of tau:
        psi(r, s + k) = tau * psi(r, s)."""
        return self.sigma_at(r + s) / self.sigma_at(r)


def chi(weights: Weights, schedule: ExpansionSchedule, r: int) -> float:
    """Growth across one full slope cycle (n steps) starting at r."""
    return schedule.psi(r, weights.n)


def growth_terms(
    weights: Weights, schedule: ExpansionSchedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """psi(r, l), psi(r, m), chi_r, U_r and V_r for r = 0..k-1, as arrays.

    U_r pairs the rising contribution over the first l steps with the
    falling one over the remaining m; V_r is its mirror for the upper
    nodes.  sigma_0..sigma_{k+n-1} are the base-period sigmas times
    tau^0, tau^1 and (when n > k) tau^2, the float operations of
    ExpansionSchedule.sigma_at, so every entry equals its scalar psi
    formula bit for bit.  Raises ConstructError when a power of tau
    overflows a float; a sigma that overflows gives inf terms.
    """
    l, m, n, k = weights.l, weights.m, weights.n, weights.k
    if len(schedule) != k:
        raise ScheduleMismatch(f"schedule has {len(schedule)} factors, weights require k={k}")
    try:
        powers = [schedule.tau**s for s in range((k + n - 1) // k + 1)]
    except OverflowError as exc:
        raise ConstructError(f"node system overflows a float: {exc}") from exc
    sig = np.array(schedule.sigmas)
    # a[i] = alpha_{i+1}, b[i] = beta_{i+1} for i < k + m and i < k + l
    a = np.array(weights.alpha * ((k + m) // l + 1))
    b = np.array(weights.beta * ((k + l) // m + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.multiply.outer(powers, sig).ravel()
        pl, pm, pn = (sigma[s:s + k] / sig for s in (l, m, n))
        U = a[:k] * (pl - 1.0) - b[l:l + k] * (pn - pl)
        V = -b[:k] * (pm - 1.0) + a[m:m + k] * (pn - pm)
    return pl, pm, pn, U, V


def _solve_block(rhs: list[float], mult: list[float]) -> list[float]:
    """Periodic solution of x_{j+1} = (x_j + rhs_j) / mult_j, j mod p.

    One pass around the cycle from x = 0 gives c = x_p; a general start
    x_0 ends at x_0 * prod_j (1 / mult_j) + c, so the periodic start is
    x_0 = c / (1 - prod_j (1 / mult_j)).  Every factor of that product
    is below 1 (sigma is strictly increasing, so mult_j > 1), so it can
    neither overflow nor reach 1; it may underflow to 0, which is
    harmless.  A second pass fills the block; each step divides by
    mult_j > 1 and so shrinks the rounding error carried in x.
    """
    c = 0.0
    decay = 1.0
    for b, m in zip(rhs, mult):
        c = (c + b) / m
        decay *= 1.0 / m
    x = c / (1.0 - decay)
    out = []
    for b, m in zip(rhs, mult):
        out.append(x)
        x = (x + b) / m
    return out


def solve_uv(
    weights: Weights, schedule: ExpansionSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """Node heights for any weight system, in O(k).

    Segments with index congruent to f modulo d form an independent
    cyclic block of length k/d.  Walking it as h_j = f + d * ((j * n/d)
    mod k/d) turns the system into u_{h_{j+1}} = (u_{h_j} + U_{h_j}) /
    chi_{h_j}, solved by _solve_block (likewise v with V).  Raises
    ConstructError when the coefficients are not finite floats.
    """
    k, d = weights.k, weights.d
    kp, np_ = weights.k_prime, weights.n_prime
    _, _, mult, U, V = growth_terms(weights, schedule)
    if not np.isfinite([mult, U, V]).all():
        raise ConstructError("node system has non-finite coefficients")
    u = np.empty(k)
    v = np.empty(k)
    for idx in np.arange(d)[:, None] + d * (np.arange(kp) * np_ % kp):
        m = mult[idx].tolist()
        u[idx] = _solve_block(U[idx].tolist(), m)
        v[idx] = _solve_block(V[idx].tolist(), m)
    return u, v


def solve_uv_oracle(
    weights: Weights, schedule: ExpansionSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """Dense reference solve of the node-height system.

    Assembles the k x k cyclic matrix explicitly and hands it to a
    general linear solver.  Much slower than solve_uv and kept
    deliberately independent of it (the two share only the
    growth_terms coefficients); used as the second route in
    differential checks.
    """
    k, n = weights.k, weights.n
    _, _, mult, U, V = growth_terms(weights, schedule)
    r = np.arange(k)
    M = np.eye(k)
    M[r, (r + n) % k] -= mult
    try:
        u = np.linalg.solve(M, -U)
        v = np.linalg.solve(M, -V)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return u, v


def propagate_v_from_u(
    weights: Weights, schedule: ExpansionSchedule, u: np.ndarray
) -> np.ndarray:
    """Recover upper heights from lower ones along the rising segments.

    The rising segment based at r climbs with slope alpha_{r+1} over l
    steps, which forces v_{(r+l) mod k} = (u_r + alpha_{r+1} *
    (psi(r, l) - 1)) / psi(r, l).  Solving the two systems separately
    and comparing against this propagation is a consistency check on
    the whole construction.
    """
    k, l = weights.k, weights.l
    pl = growth_terms(weights, schedule)[0]
    r = np.arange(k)
    v = np.empty(k)
    v[(r + l) % k] = (u + np.asarray(weights.alpha)[r % l] * (pl - 1.0)) / pl
    return v


@dataclass(frozen=True, eq=False)
class LineTable:
    """The n lines above every grid subinterval j of one period, row j each.

    Columns 0..l-1 are the rising lines, based at segment indices j,
    j-1, ..., j-l+1; columns l..n-1 the falling lines, based at j, ...,
    j-m+1.  An index below zero wraps into the period before.  Each kind
    is stored in ascending order of its segment index r (mod k), the
    identity order the extraction ranks ties by.  There is exactly one
    line per slope label.  Per line: r, its anchor in period 0, slope
    and label, an index into weights.slope_labels.  The anchor is the
    line's base node: x0 = sigma_r (tau^-1 sigma_r if r wrapped, r > j)
    and y0 = x0 * height, the node height u_r rising or v_r falling (inf
    where that overflows).  In period t the line passes through
    (tau^t x0, tau^t y0).  All arrays are (k, n) and read-only.
    """

    r: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    slope: np.ndarray
    label: np.ndarray

    @classmethod
    def build(cls, weights: Weights, schedule: ExpansionSchedule,
              u: np.ndarray, v: np.ndarray) -> "LineTable":
        l, m, k = weights.l, weights.m, weights.k
        j = np.arange(k)[:, None]
        r = np.concatenate([np.sort((j - np.arange(c)) % k, axis=1) for c in (l, m)], axis=1)
        falls = np.arange(weights.n) >= l
        x0 = np.where(r > j, schedule.tau**-1, 1.0) * np.asarray(schedule.sigmas)[r]
        with np.errstate(over="ignore"):
            y0 = x0 * np.where(falls, v[r], u[r])
        table = cls(
            r=r,
            x0=x0,
            y0=y0,
            slope=np.where(falls, -np.asarray(weights.beta)[r % m],
                           np.asarray(weights.alpha)[r % l]),
            label=np.where(falls, l + r % m, r % l),
        )
        for a in vars(table).values():
            a.flags.writeable = False
        return table


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """A solved instance: weights, schedule and the node heights.

    u[r] and v[r] are the second coordinates of the lower and upper
    node rays based at segment index r; the actual plane points carry
    the sigma_r scale and a tau^t period factor on top (see the graph
    module).  lines is the period line table, derived from the other
    fields on construction (also by dataclasses.replace); u and v are
    read-only copies so that it cannot go stale.  Residue class f of
    the d subgraphs is the lines of that table with r = f (mod d), with
    slope alphabet weights.class_labels(f) and drift
    weights.class_gamma(f).
    """

    weights: Weights
    schedule: ExpansionSchedule
    u: np.ndarray
    v: np.ndarray
    lines: LineTable = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("u", "v"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(
            self, "lines", LineTable.build(self.weights, self.schedule, self.u, self.v))

    @property
    def tau(self) -> float:
        return self.schedule.tau


def build_graph(weights: Weights, schedule: ExpansionSchedule) -> RegularGraph:
    """Solve the node system and bundle the result."""
    u, v = solve_uv(weights, schedule)
    return RegularGraph(weights=weights, schedule=schedule, u=u, v=v)


__all__ = [
    "ConstructError",
    "InvalidFactor",
    "ScheduleMismatch",
    "SingularSystem",
    "PowerForm",
    "ExpansionSchedule",
    "chi",
    "growth_terms",
    "solve_uv_oracle",
    "solve_uv",
    "propagate_v_from_u",
    "LineTable",
    "RegularGraph",
    "build_graph",
]
