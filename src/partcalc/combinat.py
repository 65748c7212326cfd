"""Exact combinatorial kernels: binomials, factorials, lcm ranges, Stirling rows.

All values are plain Python integers (arbitrary precision); rationals appear
only in the Stirling-sum module, via fractions.Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    return math.factorial(n)


def lcm_range(n: int) -> int:
    """Least common multiple of 1, 2, ..., n."""
    if n < 1:
        raise ValueError("lcm_range requires n >= 1")
    return math.lcm(*range(1, n + 1))


@dataclass(frozen=True)
class StirlingTable:
    """Row r of the unsigned Stirling numbers of the first kind.

    entries[k - 1] is c(r, k), the coefficient of x^k in the rising factorial
    x (x+1) ... (x+r-1).  Out-of-range indices read as 0.
    """

    r: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("StirlingTable requires r >= 1")
        if len(self.entries) != self.r:
            raise ValueError("StirlingTable needs exactly r entries")

    def __getitem__(self, k: int) -> int:
        if k < 1 or k > self.r:
            return 0
        return self.entries[k - 1]


def stirling_first_unsigned(r: int) -> StirlingTable:
    """Row c(r, 1..r), by the recurrence c(m+1, k) = m c(m, k) + c(m, k-1)."""
    if r < 1:
        raise ValueError("stirling_first_unsigned requires r >= 1")
    row = [1]
    for m in range(1, r):
        grown = [m * c for c in row] + [0]
        for k in range(1, m + 1):
            grown[k] += row[k - 1]
        row = grown
    return StirlingTable(r=r, entries=tuple(row))
