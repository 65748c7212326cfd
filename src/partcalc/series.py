"""Oracle #1: the truncated Euler product and the restricted-partition DP.

Both routes count the same thing — the coefficient of z^n in
prod_k (1 - z^k)^(-w(k)) equals the number of solutions of sum a_i x_i = n
where part k appears w(k) times — by different algorithms, and the test
suite holds them equal.  Both read part k with its multiplicity w(k) from
sequences.pattern, the DP its pairs and the series their dense view, and
never list the w(k) copies.  The series route (euler_product) fills the
whole row from the log-derivative recurrence n a(n) = sum_k b(k) a(n-k) in
O(N^2) exact steps; the DP route multiplies the row by
(1 - z^k)^(-m) = sum_j C(m + j - 1, j) z^(jk) once per distinct part k of
multiplicity m, by m stride passes or by one C-level pass per j, whichever
_passes prices lower, in one pass over the pairs.  dp_work and series_work
estimate their work in big-integer multiply-adds, the unit the route choice
compares, and both oracles refuse a request whose estimate is above
ORACLE_WORK_LIMIT.  A truncated series is a plain sequence of its
coefficients, a tuple from euler_product and a list from
restricted_partition_row, so a[n] is the coefficient of z^n.

The theorem route's guard lives here too, so that a request can be priced
without loading formulas: VECTOR_LIMIT bounds the multiplicity vectors of
a theorem walk, vector_count(n) = p(n) counts them from one DP row, and
vector_reach() is the largest n within the limit.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from itertools import compress, repeat
from math import exp, expm1, log, log1p, log2, sqrt
from operator import add, itemgetter, mul

from .sequences import WeightFunction, WeightSequence, pattern, quantity_weights

# Most big-integer multiply-adds an oracle may take on one request or one
# table row, by its estimate (dp_work, series_work); read at call time.
# pp(2000) takes about 7.6e6 by the DP and 2.0e6 by the series.
ORACLE_WORK_LIMIT = 10**8

# Most multiplicity vectors the theorem route walks: p(60) = 966,467 is
# within, p(61) = 1,121,505 is not.  Read at call time (vector_reach).
VECTOR_LIMIT = 10**6

# Multiply-adds that one coefficient of the series' row costs besides its
# recurrence pairs (reading its weight, starting its loop, the exact
# division), and that one distinct part of the DP costs to set up its pass.
# Measured on pp, p, pps and P_r at n = 3..160 on a shared 2-core VM: about
# 0.56 us a coefficient, against 0.10 us a recurrence pair.
ROW_COST = 5

# Multiply-adds that one binomial pass of the DP costs to set up besides its
# cells: its coefficient, two slices and the map objects.  Measured on
# passes of 3..100 cells on a shared 2-core VM: about 1.5 us a pass, against
# 0.07 us a cell.
PASS_COST = 20

# Bits squared of a coefficient-by-entry product on a binomial pass that
# cost one unit more than its multiply-add; calibrated on DP rows from pp(100)
# to P_r(1000; r = 10^8), from 1-bit to 20,000-bit operands.
PRODUCT_BITS = 100_000

_LN2 = log(2)


class CostGuardExceeded(RuntimeError):
    """A route's work is above its limit: the multiply-adds of an oracle, the
    points of a Stirling congruence box, the bytes of a packed Stirling
    product, the multiplicity vectors of a theorem sum, or the stacks a
    diagram listing or walk visits."""


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

    The row is prod (1 - z^k)^(-m) mod z^(top+1), multiplied in one pair at
    a time by the branch that _passes prices lower: m stride passes
    g[i] += g[i - k], or one binomial pass.
    """
    table = [0] * (top + 1)
    table[0] = 1
    for k, m, _, binomial in _passes(pairs, top):
        if binomial:
            _binomial_pass(table, k, m)
            continue
        cells = range(k, top + 1)
        while m > 0:
            for i in cells:
                table[i] += table[i - k]
            m -= 1
    return table


def _binomial_pass(table: list[int], k: int, m: int) -> None:
    """Multiply table by (1 - z^k)^(-m) = sum_j C(m + j - 1, j) z^(jk): for each
    j, one C-level pass adds C(m + j - 1, j) times the row as it was to the
    row shifted by jk."""
    src = table[:]
    coeff = 1
    for j, shift in enumerate(range(k, len(table), k), start=1):
        coeff = coeff * (m + j - 1) // j
        table[shift:] = map(add, table[shift:], map(mul, repeat(coeff), src))


def _passes(pairs: Iterable[tuple[int, int]], top: int) -> list[tuple[int, int, int, bool]]:
    """(k, m, units, binomial) of multiplying a row to top by (1 - z^k)^(-m),
    for each pair with 1 <= k <= top and m >= 1, by the cheaper of two
    branches; the other pairs take no pass.

    m stride passes cost m (top - k + 1) units, one an add.  The binomial
    pass costs, for each j <= top // k, PASS_COST and top - jk + 1
    multiply-adds, each priced by size (_sized_units).  A tie goes to the
    stride passes.  Sizes only add to a binomial price, so the row's entry
    bits are read once, on the first part whose price without them beats
    its strides.
    """
    pairs = [(k, m) for k, m in pairs if k <= top and m]
    passes = []
    bits = None
    for k, m in pairs:
        strides = m * (top - k + 1)
        terms = top // k
        units = terms * (top + 1 + PASS_COST) - k * terms * (terms + 1) // 2
        if units < strides:
            if bits is None:
                bits = _entry_bits(pairs, top)
            units = _sized_units(k, m, top, bits, units, strides)
        passes.append((k, m, units, True) if units < strides else (k, m, strides, False))
    return passes


def _sized_units(k: int, m: int, top: int, bits: float, units: int, limit: int) -> int:
    """The binomial pass's units with each of its multiply-adds priced one
    more unit per PRODUCT_BITS of the product of the bits of C(m + j - 1, j)
    and of the entry it multiplies, taken as bits * (top - jk) / top (bits:
    _entry_bits); units is its price without sizes.  Counting stops at
    limit."""
    # C(m + j - 1, j) has at most min(j, m - 1) * bits(m + j - 1) bits.
    terms = top // k
    if min(terms, m - 1) * (m + terms - 1).bit_length() * bits < PRODUCT_BITS:
        return units
    log_coeff = 0.0
    for j in range(1, terms + 1):
        log_coeff += log2(m + j - 1) - log2(j)
        rest = top - j * k
        units += (rest + 1) * int(log_coeff * bits * rest / top // PRODUCT_BITS)
        if units >= limit:
            break
    return units


def _entry_bits(pairs: list[tuple[int, int]], top: int) -> float:
    """Bits of the largest entry of the row to top by the saddle-point
    bound, or 0 where a coarser bound already leaves every price of
    _sized_units unmoved.

    Every entry is below (c + top)^top for c copies of parts in all, and
    C(m + j - 1, j) below (m + top)^min(top, m - 1).  For every t > 0 each
    entry is also at most e^(top t) prod (1 - e^(-kt))^(-m); from
    -ln(1 - e^(-x)) <= 1/x that is at most 2 sqrt(top sum m/k) nats, at
    t = sqrt(sum m/k / top).  When neither coarse bound can move a price,
    0; else the saddle-point bound is taken where the derivative of its log
    vanishes, by Newton steps on ln t.  A multiplicity above 2^64 is read as
    2^64 here, so the bound then falls short, but such a part's own
    coefficients already price its pass.
    """
    counts = [m for _, m in pairs]
    most = max(counts, default=1)
    if top * (sum(counts) + top).bit_length() * min(top, most - 1) * (most + top).bit_length() < PRODUCT_BITS:
        return 0.0
    widest, spread = 0, 0.0
    for k, m in pairs:
        terms = top // k
        widest = max(widest, min(terms, m - 1) * (m + terms - 1).bit_length())
        spread += min(m, 1 << 64) / k
    t = sqrt(spread / top)
    if widest * 2 * top * t / _LN2 < PRODUCT_BITS:
        return 0.0
    weighted = [(k, float(min(m, 1 << 64))) for k, m in pairs]
    t = min(t, 100 / min(k for k, _ in weighted))
    for _ in range(40):
        slope, curve = top, 0.0
        for k, m in weighted:
            x = k * t
            if x < 100:
                q = 1 / expm1(x)
                slope -= m * k * q
                curve += m * k * k * q * (1 + q)
        # Newton on ln t for F = ln of the bound: dF/d(ln t) = t F' and
        # d2F/d(ln t)2 = t F' + t^2 F''; where that is not positive, F' < 0
        # and t grows.
        bend = slope + t * curve
        step = -slope / bend if bend > 0 else 2.0
        t *= exp(max(-2.0, min(2.0, step)))
        if abs(step) < 0.01:
            break
    log_bound = top * t - sum(m * log1p(-exp(-k * t)) for k, m in weighted if k * t < 100)
    return log_bound / _LN2


def restricted_partition_dp(a: WeightSequence, n: int) -> int:
    """Number of solutions of sum a_i x_i = n with x_i >= 0 (coin-counting DP
    over the distinct parts of a, each with its multiplicity)."""
    if n < 0:
        return 0
    return restricted_partition_row(pattern("p_a", n, None, a.parts), n)[n]


def dp_work(pairs: Iterable[tuple[int, int]], top: int) -> int:
    """Estimated multiply-adds of restricted_partition_row(pairs, top): a
    cell per entry of its row, ROW_COST per pair to set up its pass, and the
    units _passes prices for the branch the row takes."""
    pairs = tuple(pairs)
    return top + ROW_COST * len(pairs) + sum(map(itemgetter(2), _passes(pairs, top)))


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


# With VECTOR_LIMIT below p(64), guards read p(k) only at k <= 64
# (count_to_limit), so one row to 64 serves every guard of the process.
@functools.cache
def _counts_to_64() -> list[int]:
    return restricted_partition_row(enumerate([1] * 64, start=1), 64)


def vector_count(n: int) -> int:
    """|A_n| = p(n), the multiplicity vectors of a theorem sum at n, from
    the restricted-partition row with each part 1..n once, or for n <= 64
    from the one row to 64."""
    if n <= 64:
        return _counts_to_64()[n]
    return restricted_partition_row(enumerate([1] * n, start=1), n)[n]


def count_to_limit(count, n: int, limit: int) -> tuple[int, int]:
    """(n, count(n)), or (k, count(k)) for the first k of 64, 128, 256, ...
    below n with count(k) above limit; for a nondecreasing count, count(n)
    is at least as large.  A guard reads one row of at most 64 this way
    whatever n is, once the limit is below count(64)."""
    k = 64
    while k < n:
        value = count(k)
        if value > limit:
            return k, value
        k *= 2
    return n, count(n)


def vector_reach() -> int:
    """The theorem route's reach: the largest n with p(n) = |A_n| at most
    VECTOR_LIMIT, read at call time.  Every theorem guard and estimate reads
    it; p is nondecreasing, so exactly the n <= vector_reach() are within."""
    return _reach(VECTOR_LIMIT)


@functools.cache
def _reach(limit: int) -> int:
    n = 0
    while vector_count(n + 1) <= limit:
        n += 1
    return n


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
            work = dp_work(pattern(quantity, n, r, parts), n)
        elif ROW_COST * n > ORACLE_WORK_LIMIT:
            work = ROW_COST * n
        else:
            work = series_work(parts, n)
    else:
        work = series_work((1,), n)
        if backend == "dp" and work <= ORACLE_WORK_LIMIT:
            work = dp_work(pattern(quantity, n, r, parts), n)
    if work > ORACLE_WORK_LIMIT:
        name = "DP" if backend == "dp" else "series"
        return work, (
            f"the {name} oracle needs at least {work} multiply-adds for {quantity} at "
            f"n = {n}, above the limit of {ORACLE_WORK_LIMIT}"
        )
    return work, None


def _admit(
    backend: str, quantity: str, n: int, r: int | None, parts: tuple[int, ...] | None
) -> None:
    """Raise CostGuardExceeded when oracle_cost refuses an oracle request;
    a request within the limit by a ceiling of both estimates is admitted
    without pricing its passes.  Reading the pattern validates the
    quantity, r and parts, at bound 0 where the row alone is too long."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if backend not in ("dp", "series"):
        raise ValueError(f"unknown backend {backend!r}")
    # Either estimate is at most this sum for L copies of parts in all: the
    # series' work when 1 is a part, the most any parts cost it; for the DP,
    # a cell an entry, ROW_COST a part and at most m units a cell for a part
    # of multiplicity m, the price of its stride passes.  The pattern is read
    # only once the row alone is within the limit.
    row = series_work((1,), n) + n
    if row <= ORACLE_WORK_LIMIT:
        copies = sum(m for _, m in pattern(quantity, n, r, parts))
        if row + (ROW_COST + n) * copies <= ORACLE_WORK_LIMIT:
            return
    else:
        pattern(quantity, 0, r, parts)
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
    """Counts at n = 0..top from one oracle row: one
    restricted_partition_row over the quantity's pattern, or euler_product
    over its dense view.  The guard is checked once, at top."""
    if parts is not None:
        parts = tuple(parts)  # a list would not hash as a pattern key
    _admit(backend, quantity, top, r, parts)
    if top == 0:
        return (1,)
    if backend == "dp":
        return restricted_partition_row(pattern(quantity, top, r, parts), top)
    return euler_product(quantity_weights(quantity, top, r, parts), top)
