"""Exact combinatorial kernels of the Stirling sums: Stirling rows, and the
block coefficients that weight a sum's coordinates.  Binomials are
math.comb.

All values are plain Python integers (arbitrary precision); rationals appear
only in the Stirling-sum module and in verify, via fractions.Fraction.
"""

from __future__ import annotations

import math


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


def bounded_composition_count(total: int, copies: int, limit: int) -> int:
    """Number of (x_1..x_copies) with 0 <= x_i <= limit and sum x_i = total.

    Inclusion-exclusion over the coordinates pushed past the limit; returns 0
    outside the support [0, copies*limit].
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if total < 0:
        return 0
    out = 0
    for i in range(copies + 1):
        rest = total - i * (limit + 1)
        if rest < 0:
            break
        term = math.comb(copies, i) * math.comb(rest + copies - 1, copies - 1)
        out += term if i % 2 == 0 else -term
    return out
