"""Oracle #1: truncated Euler products and the restricted-partition DP.

Both routes count the same thing — the coefficient of z^n in
prod_k (1 - z^k)^(-w(k)) equals the number of solutions of sum a_i x_i = n
over the expanded weight sequence — and the test suite holds them equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import binomial
from .sequences import (
    QUANTITIES,
    R_QUANTITIES,
    WeightFunction,
    WeightSequence,
    quantity_weights,
)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a formal power series modulo z^(N+1)."""

    degree_bound: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree_bound < 0:
            raise ValueError("degree_bound must be >= 0")
        if len(self.coeffs) != self.degree_bound + 1:
            raise ValueError("need exactly degree_bound + 1 coefficients")

    def coefficient(self, k: int) -> int:
        if k < 0 or k > self.degree_bound:
            raise IndexError(f"coefficient {k} outside truncation bound {self.degree_bound}")
        return self.coeffs[k]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.degree_bound != other.degree_bound:
            raise ValueError("can only multiply series with equal truncation bounds")
        n = self.degree_bound
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(n, tuple(out))


def one(degree_bound: int) -> TruncatedSeries:
    return TruncatedSeries(degree_bound, (1,) + (0,) * degree_bound)


def inverse_power_factor(
    k: int, w: int, degree_bound: int, *, rule: str = "stride"
) -> TruncatedSeries:
    """(1 - z^k)^(-w) mod z^(N+1).

    rule="stride" multiplies by the geometric series of z^k, w times;
    rule="binomial" writes coefficients directly as C(m + w - 1, m) at z^(km).
    The two must agree everywhere.
    """
    if k < 1:
        raise ValueError("part k must be >= 1")
    if w < 0:
        raise ValueError("weight must be >= 0")
    n = degree_bound
    if rule == "binomial":
        coeffs = [0] * (n + 1)
        for m in range(n // k + 1):
            coeffs[k * m] = binomial(m + w - 1, m) if w else (1 if m == 0 else 0)
        return TruncatedSeries(n, tuple(coeffs))
    if rule != "stride":
        raise ValueError(f"unknown factor rule {rule!r}")
    out = [1] + [0] * n
    for _ in range(w):
        for i in range(k, n + 1):
            out[i] += out[i - k]
    return TruncatedSeries(n, tuple(out))


def euler_product(
    weights: WeightFunction, degree_bound: int, *, rule: str = "stride"
) -> TruncatedSeries:
    """prod_k (1 - z^k)^(-w(k)) mod z^(N+1), factor by factor."""
    series = one(degree_bound)
    for k in range(1, min(weights.bound, degree_bound) + 1):
        w = weights(k)
        if w:
            series = series * inverse_power_factor(k, w, degree_bound, rule=rule)
    return series


def restricted_partition_row(a: WeightSequence, top: int) -> list[int]:
    """Numbers of solutions of sum a_i x_i = n with x_i >= 0, for n = 0..top
    (coin-counting DP)."""
    table = [0] * (top + 1)
    table[0] = 1
    for part in a.parts:
        for i in range(part, top + 1):
            table[i] += table[i - part]
    return table


def restricted_partition_dp(a: WeightSequence, n: int) -> int:
    """Number of solutions of sum a_i x_i = n with x_i >= 0 (coin-counting DP)."""
    if n < 0:
        return 0
    return restricted_partition_row(a, n)[n]


def _pa_weight_function(parts: tuple[int, ...], bound: int) -> WeightFunction:
    weights = [0] * bound
    for p in parts:
        if p <= bound:
            weights[p - 1] += 1
    return WeightFunction(bound, tuple(weights))


def oracle_value(
    quantity: str,
    n: int,
    *,
    r: int | None = None,
    parts: tuple[int, ...] | None = None,
    backend: str = "dp",
) -> int:
    """Count by weight sequence: DP by default, series coefficient on request.

    Every quantity returns 1 at n = 0 (the empty partition).
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if backend not in ("dp", "series"):
        raise ValueError(f"unknown backend {backend!r}")
    if quantity in R_QUANTITIES and r is None:
        raise ValueError(f"quantity {quantity!r} requires r")
    if quantity == "p_a":
        if not parts:
            raise ValueError("quantity 'p_a' requires parts")
        a = WeightSequence.from_parts(parts)
        if backend == "series":
            if n == 0:
                return 1
            return euler_product(_pa_weight_function(a.parts, n), n).coefficient(n)
        return restricted_partition_dp(a, n)
    if n == 0:
        return 1
    weights = quantity_weights(quantity, n, r)
    if backend == "series":
        return euler_product(weights, n).coefficient(n)
    return restricted_partition_dp(weights.expand(), n)
