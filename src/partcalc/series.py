"""Oracle #1: the truncated Euler product and the restricted-partition DP.

Both routes count the same thing — the coefficient of z^n in
prod_k (1 - z^k)^(-w(k)) equals the number of solutions of sum a_i x_i = n
over the expanded weight sequence — by different algorithms, and the test
suite holds them equal.  The series route (euler_product) fills the whole
row from the log-derivative recurrence n a(n) = sum_k b(k) a(n-k) in O(N^2)
exact steps; the DP route divides the row by (1 - z^k)^m once per distinct
part k of multiplicity m.  A truncated series is a plain sequence of its
coefficients, a tuple from euler_product and a list from
restricted_partition_row, so a[n] is the coefficient of z^n.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb
from operator import mul

from .sequences import (
    QUANTITIES,
    R_QUANTITIES,
    WeightFunction,
    WeightSequence,
    quantity_weights,
)

# A part of multiplicity m up to this takes m stride passes; above it one pass
# of the signed recurrence is cheaper (the two cross between m = 12 and 14
# for P_r at n = 100..300).
STRIDE_PASSES_UP_TO = 12

# Most parts the DP oracle expands a family's pattern into (the sum of the
# multiplicities of 1..n, counted before expanding); read at call time.
# pp(2000) expands 2,001,000.
DP_PART_LIMIT = 10**7


class CostGuardExceeded(RuntimeError):
    """A route's work is above its limit: the parts of a DP, the points of a
    Stirling congruence box, the multiplicity vectors of a theorem sum, or
    the n of a diagram enumeration."""


def euler_product(weights: WeightFunction, degree_bound: int) -> tuple[int, ...]:
    """Coefficients a(0..N) of prod_k (1 - z^k)^(-w(k)) mod z^(N+1), by the
    log-derivative recurrence.

    z d/dz log of the product is sum_k b(k) z^k with b(k) = sum_{d | k} d w(d),
    so the coefficients satisfy n a(n) = sum_{k=1..n} b(k) a(n-k).  Every
    division by n is exact; a remainder raises ArithmeticError.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    top = degree_bound
    b = [0] * (top + 1)
    for d in range(1, min(weights.bound, top) + 1):
        w = weights(d)
        if w:
            for k in range(d, top + 1, d):
                b[k] += d * w
    support = [(k, bk) for k, bk in enumerate(b) if bk]
    a = [1] + [0] * top
    for n in range(1, top + 1):
        total = 0
        for k, bk in support:
            if k > n:
                break
            total += bk * a[n - k]
        a[n], rest = divmod(total, n)
        if rest:
            raise ArithmeticError(f"log-derivative recurrence left remainder {rest} at n={n}")
    return tuple(a)


def restricted_partition_row(pairs: Iterable[tuple[int, int]], top: int) -> list[int]:
    """Numbers of solutions of sum a_i x_i = n with x_i >= 0, for n = 0..top,
    where each (k, m) of pairs puts part k into the a_i m times.

    The row is prod (1 - z^k)^(-m) mod z^(top+1), divided out one pair at a
    time.  A small m takes m stride passes g[i] += g[i - k]; a larger one
    takes one pass of g[i] = f[i] - sum_{j=1..J} (-1)^j C(m, j) g[i - jk],
    J = min(m, top // k), from (1 - z^k)^m = sum_j (-1)^j C(m, j) z^(jk).
    """
    table = [0] * (top + 1)
    table[0] = 1
    for k, m in pairs:
        if m > STRIDE_PASSES_UP_TO:
            terms = min(m, top // k)
            coeffs = [comb(m, j) if j % 2 else -comb(m, j) for j in range(1, terms + 1)]
            reach = (terms + 1) * k
            for i in range(k, top + 1):
                stop = i - reach
                table[i] += sum(map(mul, coeffs, table[i - k:stop if stop >= 0 else None:-k]))
            continue
        cells = range(k, top + 1)
        while m > 0:
            for i in cells:
                table[i] += table[i - k]
            m -= 1
    return table


def restricted_partition_dp(a: WeightSequence, n: int) -> int:
    """Number of solutions of sum a_i x_i = n with x_i >= 0 (coin-counting DP
    over the runs of equal parts of a)."""
    if n < 0:
        return 0
    return restricted_partition_row(a.runs(), n)[n]


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
            return euler_product(_pa_weight_function(a.parts, n), n)[n]
        return restricted_partition_dp(a, n)
    if n == 0:
        return 1
    weights = quantity_weights(quantity, n, r)
    if backend == "series":
        return euler_product(weights, n)[n]
    parts = sum(weights.weights)
    if parts > DP_PART_LIMIT:
        raise CostGuardExceeded(
            f"the DP would expand {quantity} at n = {n} into {parts} parts, above the limit "
            f"of {DP_PART_LIMIT}; --method oracle-series does not expand them"
        )
    return restricted_partition_dp(weights.expand(), n)
