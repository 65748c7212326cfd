"""Oracle #1: the truncated Euler product and the restricted-partition DP.

Both routes count the same thing — the coefficient of z^n in
prod_k (1 - z^k)^(-w(k)) equals the number of solutions of sum a_i x_i = n
over the expanded weight sequence — by different algorithms, and the test
suite holds them equal.  The series route (euler_product) fills the whole
row from the log-derivative recurrence n a(n) = sum_k b(k) a(n-k) in O(N^2)
exact steps; the DP route divides the row by (1 - z^k)^m once per distinct
part k of multiplicity m.  dp_work and series_work estimate their work in
big-integer multiply-adds, the unit the route choice compares, and both
oracles refuse a request whose estimate is above ORACLE_WORK_LIMIT.  A
truncated series is a plain sequence of its coefficients, a tuple from
euler_product and a list from restricted_partition_row, so a[n] is the
coefficient of z^n.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from itertools import compress
from math import comb
from operator import mul

from .sequences import (
    FAMILIES,
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

# Most big-integer multiply-adds an oracle may take on one request or one
# table row, by its estimate (dp_work, series_work); read at call time.
# pp(2000) takes about 2.3e7 by the DP and 2.0e6 by the series.
ORACLE_WORK_LIMIT = 10**8

# Multiply-adds that one coefficient of the series' row costs besides its
# recurrence pairs (reading its weight, starting its loop, the exact
# division), and that one part of the DP's weight sequence costs to list and
# group.  Measured on pp, p, pps and P_r at n = 3..160 on a shared 2-core VM:
# about 0.56 us a coefficient and 0.47 us a part, against 0.10 us a
# recurrence pair.
ROW_COST = 5


class CostGuardExceeded(RuntimeError):
    """A route's work is above its limit: the multiply-adds of an oracle, the
    parts of a DP, the points of a Stirling congruence box, the multiplicity
    vectors of a theorem sum, or the n of a diagram enumeration."""


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


def dp_work(pairs: Iterable[tuple[int, int]], top: int) -> int:
    """Estimated multiply-adds of the DP to top over the weight sequence
    whose (part, multiplicity) pairs are given: a cell per entry of its row,
    ROW_COST per part the sequence lists, and for each part k <= top of
    multiplicity m, one pass of top - k + 1 cells per copy when
    m <= STRIDE_PASSES_UP_TO, else one pass of min(m, top // k) terms per
    cell."""
    total = top
    for k, m in pairs:
        total += ROW_COST * m
        if k <= top:
            total += (top - k + 1) * (m if m <= STRIDE_PASSES_UP_TO else min(m, top // k))
    return total


def series_work(parts: Iterable[int], top: int) -> int:
    """Estimated multiply-adds of euler_product to top for weights that are
    nonzero exactly on parts: ROW_COST per coefficient of its row, and the
    pairs of its recurrence, top - k + 1 for each k <= top that some part
    divides (where b(k) != 0).

    When 1 is a part, as in every family, or a single part is at most top,
    the support is the multiples of the least part and the pairs have a
    closed form; otherwise the support is sieved over 1..top.
    """
    below = {d for d in parts if d <= top}
    least = min(below, default=top + 1)
    if least == 1 or len(below) < 2:
        j = top // least
        pairs = j * (top + 1) - least * j * (j + 1) // 2
    else:
        support = bytearray(top + 1)
        for d in below:
            support[d::d] = b"\1" * (top // d)
        pairs = support.count(1) * (top + 1) - sum(compress(range(top + 1), support))
    return pairs + ROW_COST * top


# A p_a request's estimates and its oracle read one sorted part list.
@functools.lru_cache(maxsize=16)
def _part_sequence(
    parts: tuple[int, ...],
) -> tuple[WeightSequence, tuple[tuple[int, int], ...]]:
    """The part list as a WeightSequence, with its runs."""
    a = WeightSequence.from_parts(parts)
    return a, tuple(a.runs())


def oracle_cost(
    backend: str,
    quantity: str,
    n: int,
    *,
    r: int | None = None,
    parts: tuple[int, ...] | None = None,
) -> tuple[int, str | None]:
    """(work, refusal) of the oracle backend ("dp" or "series") on a request:
    its estimated multiply-adds (dp_work or series_work), and why its guard
    refuses the request, or None when the guard admits it.

    The guard refuses work above ORACLE_WORK_LIMIT.  A family's series work
    is a lower bound of its DP work (every multiplicity is at least 1), so
    above the limit the DP refuses without reading the pattern; within it
    the DP also refuses a pattern of more than DP_PART_LIMIT parts, which it
    would expand.  A p_a row alone costs ROW_COST per coefficient, so a
    longer one than that admits is refused before its support is sieved.
    """
    if quantity == "p_a":
        if backend == "dp":
            work = dp_work(_part_sequence(tuple(parts))[1], n)
        elif ROW_COST * n > ORACLE_WORK_LIMIT:
            work = ROW_COST * n
        else:
            work = series_work(parts, n)
    else:
        work = series_work((1,), n)
        if backend == "dp" and work <= ORACLE_WORK_LIMIT:
            weights = quantity_weights(quantity, n, r).weights if n else ()
            count = sum(weights)
            if count > DP_PART_LIMIT:
                return work, (
                    f"the DP would expand {quantity} at n = {n} into {count} parts, above the "
                    f"limit of {DP_PART_LIMIT}; --method oracle-series does not expand them"
                )
            work = dp_work(enumerate(weights, start=1), n)
    if work > ORACLE_WORK_LIMIT:
        name = "DP" if backend == "dp" else "series"
        return work, (
            f"the {name} oracle needs at least {work} multiply-adds for {quantity} at "
            f"n = {n}, above the limit of {ORACLE_WORK_LIMIT}"
        )
    return work, None


def _pa_weight_function(parts: tuple[int, ...], bound: int) -> WeightFunction:
    weights = [0] * bound
    for p in parts:
        if p <= bound:
            weights[p - 1] += 1
    return WeightFunction(bound, tuple(weights))


def _admit(
    backend: str, quantity: str, n: int, r: int | None, parts: tuple[int, ...] | None
) -> None:
    """Validate an oracle request and raise CostGuardExceeded when
    oracle_cost refuses it; a p_a request within the limit by a ceiling of
    both estimates is admitted in O(1)."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if backend not in ("dp", "series"):
        raise ValueError(f"unknown backend {backend!r}")
    if quantity in R_QUANTITIES and r is None:
        raise ValueError(f"quantity {quantity!r} requires r")
    if quantity == "p_a" and not parts:
        raise ValueError("quantity 'p_a' requires parts")
    if quantity == "p_a":
        # Either estimate is at most this sum: every k <= n a pair of the
        # series, and every part a pass over the whole row of the DP.
        if n * (n + 1) // 2 + (ROW_COST + 1) * n + (ROW_COST + n) * len(parts) <= ORACLE_WORK_LIMIT:
            return
    refusal = oracle_cost(backend, quantity, n, r=r, parts=parts)[1]
    if refusal:
        raise CostGuardExceeded(refusal)


def oracle_value(
    quantity: str,
    n: int,
    *,
    r: int | None = None,
    parts: tuple[int, ...] | None = None,
    backend: str = "dp",
) -> int:
    """Count by weight sequence: DP by default, series coefficient on request.

    Every quantity returns 1 at n = 0 (the empty partition).  Raises
    CostGuardExceeded when oracle_cost refuses the request.
    """
    _admit(backend, quantity, n, r, parts)
    if quantity == "p_a":
        a = _part_sequence(tuple(parts))[0]
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
    return restricted_partition_dp(weights.expand(), n)


def oracle_row(
    quantity: str, top: int, *, r: int | None = None, backend: str = "dp"
) -> Sequence[int]:
    """A family's counts at n = 0..top from one oracle row: the series of
    euler_product, or one restricted_partition_row over the pattern's
    (part, multiplicity) pairs.  The guard is checked once, at top."""
    if quantity not in FAMILIES:
        raise ValueError(f"no oracle row for quantity {quantity!r}")
    _admit(backend, quantity, top, r, None)
    if top == 0:
        return (1,)
    weights = quantity_weights(quantity, top, r)
    if backend == "series":
        return euler_product(weights, top)
    return restricted_partition_row(enumerate(weights.weights, start=1), top)
