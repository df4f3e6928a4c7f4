"""Balanced weight systems and their slope alphabet.

A weight system is two ordered groups of non-negative reals whose sums
agree.  It fixes the slope alphabet used by every graph built on top of
it: the first group contributes the rising slopes, the second group the
falling ones.  Subscripts repeat cyclically, each group with its own
period, so the two groups only realign after lcm(l, m) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isfinite, lcm, log10
from typing import Sequence

DEFAULT_BALANCE_TOL = 1e-12


class WeightError(ValueError):
    """Invalid weight data."""


def _int_text(value: int) -> str:
    """value in decimal; past 20 digits its sign and digit count, "-<401 digits>".
    The one rule for input integers in error messages, shared by weights,
    graph, render and cli.  Counts the digits without converting value to a
    string, so it holds past int's string digit limit."""
    a = abs(value)
    if a < 10**20:
        return str(value)
    digits = int((a.bit_length() - 1) * log10(2))  # at most floor(log10 a)
    while a >= 10**digits:
        digits += 1
    return f"{'-' if value < 0 else ''}<{digits} digits>"


@dataclass(frozen=True)
class Weights:
    """Validated weight data; n = l + m, k = lcm(l, m) and d = gcd(l, m)
    are read off l and m.

    Ordering is significant: the graph construction depends on it, so no
    sorting or rescaling is ever applied.  Instances are immutable and
    safe to share.
    """

    l: int
    m: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    n = property(lambda self: self.l + self.m)
    k = property(lambda self: lcm(self.l, self.m))
    d = property(lambda self: gcd(self.l, self.m))

    @property
    def slope_labels(self) -> tuple[tuple[str, int], ...]:
        """Symbolic slope alphabet: ('A', i) rises with alpha_i, ('B', j) falls with beta_j."""
        return tuple(("A", i) for i in range(1, self.l + 1)) + tuple(
            ("B", j) for j in range(1, self.m + 1)
        )

    def class_labels(self, f: int) -> tuple[tuple[str, int], ...]:
        """Slope alphabet of the residue class f: segments with index = f (mod d)
        carry the weights whose 1-based subscript is = f+1 (mod d)."""
        return tuple(
            lab for lab in self.slope_labels if (lab[1] - 1) % self.d == f % self.d
        )

    def class_gamma(self, f: int) -> float:
        """Sum of the class-f slope alphabet; the classwise analogue of the zero sum."""
        return float(sum(self.alpha[i - 1] if kind == "A" else -self.beta[i - 1]
                         for kind, i in self.class_labels(f)))


def validate_weights(
    l: int,
    m: int,
    alpha: Sequence[float],
    beta: Sequence[float],
) -> Weights:
    """Validate raw weight input.

    Rejects non-finite and negative entries, the all-zero system,
    mismatched lengths, sums that overflow a float and unbalanced sums,
    |sum(alpha) - sum(beta)| > DEFAULT_BALANCE_TOL * max(sum(alpha),
    sum(beta)), a relative bound, so that weights times c are accepted
    alike.  Zero entries are allowed as long as not everything vanishes.
    """
    if l < 1 or m < 1:
        raise WeightError(
            f"group sizes must be positive, got l={_int_text(l)}, m={_int_text(m)}")
    alpha = tuple(float(a) for a in alpha)
    beta = tuple(float(b) for b in beta)
    if len(alpha) != l:
        raise WeightError(f"expected {_int_text(l)} alpha entries, got {len(alpha)}")
    if len(beta) != m:
        raise WeightError(f"expected {_int_text(m)} beta entries, got {len(beta)}")
    for name, values in (("alpha", alpha), ("beta", beta)):
        for i, value in enumerate(values):
            if not isfinite(value):
                raise WeightError(f"{name}[{i}] = {value} is not finite")
            if value < 0:
                raise WeightError(f"{name}[{i}] = {value} is negative")
    if max(alpha) == 0 and max(beta) == 0:
        raise WeightError("all weights are zero")
    total_alpha, total_beta = sum(alpha), sum(beta)
    if not (isfinite(total_alpha) and isfinite(total_beta)):
        raise WeightError(f"weight sums overflow a float: {total_alpha}, {total_beta}")
    imbalance, total = abs(total_alpha - total_beta), max(total_alpha, total_beta)
    if not imbalance <= DEFAULT_BALANCE_TOL * total:
        raise WeightError(
            f"weight sums differ: |{total_alpha} - {total_beta}| = {imbalance}"
            f" > {DEFAULT_BALANCE_TOL} * {total}"
        )
    return Weights(l=l, m=m, alpha=alpha, beta=beta)
