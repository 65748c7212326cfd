"""Exact combinatorial kernels: binomials, lcm ranges, Stirling rows.

All values are plain Python integers (arbitrary precision); rationals appear
only in the Stirling-sum module, via fractions.Fraction.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def lcm_range(n: int) -> int:
    """Least common multiple of 1, 2, ..., n."""
    if n < 1:
        raise ValueError("lcm_range requires n >= 1")
    return math.lcm(*range(1, n + 1))


def stirling_first_unsigned(r: int) -> tuple[int, ...]:
    """Row (c(r, 1), ..., c(r, r)) of the unsigned Stirling numbers of the
    first kind, the coefficients of x^1..x^r in x (x+1) ... (x+r-1), by the
    recurrence c(m+1, k) = m c(m, k) + c(m, k-1)."""
    if r < 1:
        raise ValueError("stirling_first_unsigned requires r >= 1")
    row = [1]
    for m in range(1, r):
        grown = [m * c for c in row] + [0]
        for k in range(1, m + 1):
            grown[k] += row[k - 1]
        row = grown
    return tuple(row)
