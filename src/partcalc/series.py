"""Oracle #1: the truncated Euler product and the restricted-partition DP.

Both routes count the same thing — the coefficient of z^n in
prod_k (1 - z^k)^(-w(k)) equals the number of solutions of sum a_i x_i = n
where part k appears w(k) times — by different algorithms, and the test
suite holds them equal.  Both read part k with its multiplicity w(k) and
never list the w(k) copies.  The series route (euler_product) fills the
whole row from the log-derivative recurrence n a(n) = sum_k b(k) a(n-k) in
O(N^2) exact steps; the DP route divides the row by (1 - z^k)^m once per distinct
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
from itertools import compress, groupby
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

# Most big-integer multiply-adds an oracle may take on one request or one
# table row, by its estimate (dp_work, series_work); read at call time.
# pp(2000) takes about 3.3e7 by the DP and 2.0e6 by the series.
ORACLE_WORK_LIMIT = 10**8

# Multiply-adds that one coefficient of the series' row costs besides its
# recurrence pairs (reading its weight, starting its loop, the exact
# division), and that one distinct part of the DP costs to set up its pass.
# Measured on pp, p, pps and P_r at n = 3..160 on a shared 2-core VM: about
# 0.56 us a coefficient, against 0.10 us a recurrence pair.
ROW_COST = 5


class CostGuardExceeded(RuntimeError):
    """A route's work is above its limit: the multiply-adds of an oracle, the
    points of a Stirling congruence box, the multiplicity vectors of a
    theorem sum, or the n of a diagram enumeration."""


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


# A p_a request's estimates and its oracle read one grouping of its parts.
@functools.lru_cache(maxsize=16)
def _part_pairs(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(part, multiplicity) of each distinct part, in increasing order."""
    return tuple((k, len(list(copies))) for k, copies in groupby(sorted(parts)))


def restricted_partition_dp(a: WeightSequence, n: int) -> int:
    """Number of solutions of sum a_i x_i = n with x_i >= 0 (coin-counting DP
    over the distinct parts of a, each with its multiplicity)."""
    if n < 0:
        return 0
    return restricted_partition_row(_part_pairs(a.parts), n)[n]


def dp_work(pairs: Iterable[tuple[int, int]], top: int) -> int:
    """Estimated multiply-adds of restricted_partition_row(pairs, top): a
    cell per entry of its row, ROW_COST per pair to set up its pass, and for
    each part k <= top of multiplicity m, top - k + 1 cells of m stride steps
    when m <= STRIDE_PASSES_UP_TO, else of min(m, top // k) signed terms.
    The j-th term multiplies by C(m, j), which has at most
    min(j * bits(m), m) bits, so it counts 2 units, for its add and its
    multiply's first word, and one more per further 64 bits."""
    total = top
    for k, m in pairs:
        total += ROW_COST
        if k > top:
            continue
        if m <= STRIDE_PASSES_UP_TO:
            units = m
        else:
            terms = min(m, top // k)
            bits = m.bit_length()
            short = min(terms, m // bits)  # the terms below m bits
            size = bits * short * (short + 1) // 2 + (terms - short) * m
            units = 2 * terms + -(-size // 64)
        total += (top - k + 1) * units
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


def _pairs(
    quantity: str, top: int, r: int | None, parts: tuple[int, ...] | None
) -> Iterable[tuple[int, int]]:
    """The (part, multiplicity) pairs the DP reads to top: those of parts for
    p_a, else the family's pattern on 1..top."""
    if quantity == "p_a":
        return _part_pairs(tuple(parts))
    return enumerate(quantity_weights(quantity, top, r).weights, start=1) if top else ()


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
    above the limit the DP refuses without reading the pattern.  A p_a row
    alone costs ROW_COST per coefficient, so a longer one than that admits
    is refused before its support is sieved.
    """
    if quantity == "p_a":
        if backend == "dp":
            work = dp_work(_pairs(quantity, n, r, parts), n)
        elif ROW_COST * n > ORACLE_WORK_LIMIT:
            work = ROW_COST * n
        else:
            work = series_work(parts, n)
    else:
        work = series_work((1,), n)
        if backend == "dp" and work <= ORACLE_WORK_LIMIT:
            work = dp_work(_pairs(quantity, n, r, parts), n)
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
    if quantity == "p_a" and (not parts or min(parts) < 1):
        raise ValueError("quantity 'p_a' requires positive parts")
    if quantity == "p_a":
        # Either estimate is at most this sum: every k <= n a pair of the
        # series; for the DP, ROW_COST a part, and on each cell at most
        # 3 m + m * m / 64 units for a part of multiplicity m, so at most
        # 3 L + L * L / 64 for all L parts.
        count = len(parts)
        units = 3 * count + -(-count * count // 64)
        if n * (n + 1) // 2 + (ROW_COST + 1) * n + ROW_COST * count + n * units <= ORACLE_WORK_LIMIT:
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
    """Count by weight sequence: DP by default, series coefficient on
    request; entry n of oracle_row.

    Every quantity returns 1 at n = 0 (the empty partition).  Raises
    CostGuardExceeded when oracle_cost refuses the request.
    """
    return oracle_row(quantity, n, r=r, parts=parts, backend=backend)[n]


def oracle_row(
    quantity: str,
    top: int,
    *,
    r: int | None = None,
    parts: tuple[int, ...] | None = None,
    backend: str = "dp",
) -> Sequence[int]:
    """Counts at n = 0..top from one oracle row: the series of euler_product,
    or one restricted_partition_row over the (part, multiplicity) pairs of
    the family's pattern or of parts.  The guard is checked once, at top."""
    _admit(backend, quantity, top, r, parts)
    if top == 0:
        return (1,)
    if backend == "dp":
        return restricted_partition_row(_pairs(quantity, top, r, parts), top)
    if quantity == "p_a":
        return euler_product(_pa_weight_function(parts, top), top)
    return euler_product(quantity_weights(quantity, top, r), top)
