"""Closed-form evaluators: multiplicity-vector sums over A_n.

Every counting family reduces to

    sum over (l_1..l_n) with sum s*l_s = n  of  prod_s C(l_s + m_s - 1, l_s)

where m_s is the family's multiplicity pattern.  C(l + m - 1, l) counts the
ways to split l copies of part s among m indistinguishable-slot variables,
which is exactly the coefficient extraction the generating function performs.
One walk to a top serves every n <= top.  It visits each partial vector
(l_3..l_top) of weight w = sum s*l_s <= top once, depth first, holding one
path at a time, and adds its product of binomials to hist[w].  Parts 1 and
2 are closed together: one table, built from the same binomials, gives the
sum over (l_1, l_2) for every remainder R, so the sum at n is
sum_w hist[w] * tail[n - w].  The walk loops parts top..4, and part 3,
whose choices are the same for every partial vector of one weight, is
folded into hist afterwards.  _vector_row reads every n off one walk, and
_vector_sum reads one.  One fold, _fold, multiplies a row by (1 - z^s)^(-m)
for any integer m: it serves parts 1 to 3 and the factors of the
alternating sum's shift polynomial.  The table and the fold cover parts 1
to 3 only and read no oracle, so the walk stays an algorithm of its own.
Its time still grows with p(top) = |A_top|, which series.VECTOR_LIMIT
bounds: every guard, wrapper and estimate reads the one reach,
series.vector_reach().  That guard, the vector count and HypothesisError
live outside this module, so that a request that takes another route never
loads it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from operator import mul

from . import series
from .sequences import FAMILIES, quantity_weights, stated_family
from .series import CostGuardExceeded, oracle_row


# Only verify lists the vectors, once per n; the sums below walk A_n without
# them, so one cached list is enough.
@functools.lru_cache(maxsize=1)
def multiplicity_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    """All (l_1..l_n) with l_1 + 2 l_2 + ... + n l_n = n, in decreasing
    lexicographic order of the tuples as written."""
    if n < 1:
        raise ValueError("multiplicity_vectors requires n >= 1")
    out: list[tuple[int, ...]] = []
    _fill_vectors(1, n, [0] * n, out)
    return tuple(out)


def _fill_vectors(s: int, remaining: int, vec: list[int], out: list) -> None:
    """Append to out every completion of vec[:s-1] with parts s.. summing to
    remaining.  A module function rather than a closure: a closure that calls
    itself is a reference cycle, which would keep out alive until the cycle
    collector runs."""
    # Slots at index >= s-1 are zero on entry, because every loop below
    # ends on l = 0.
    if remaining == 0:
        out.append(tuple(vec))
        return
    if remaining < s:
        return
    for l in range(remaining // s, -1, -1):
        vec[s - 1] = l
        _fill_vectors(s + 1, remaining - s * l, vec, out)


def _check_reach(n: int) -> None:
    """Raise CostGuardExceeded when n is beyond series.vector_reach(); the
    message gives p(n), or p(k) at the first k = 64, 128, ... above the limit."""
    if n > series.vector_reach():
        limit = series.VECTOR_LIMIT
        k, count = series.count_to_limit(series.vector_count, n, limit)
        at_least = "" if k == n else f"at least p({k}) = "
        raise CostGuardExceeded(
            f"A_{n} has {at_least}{count} multiplicity vectors, above the limit of {limit}"
        )


def _vector_sum(n: int, weights: Sequence[int]) -> int:
    """sum over A_n of prod_s C(l_s + m_s - 1, l_s), with m_s = weights[s-1]:
    the histogram walk to n, read at n."""
    hist, tail = _vector_histogram(n, weights)
    return sum(map(mul, hist, reversed(tail)))


def _vector_row(top: int, weights: Sequence[int]) -> list[int]:
    """_vector_sum(n, weights[:n]) for n = 0..top, from one walk: entry n
    is sum_w hist[w] * tail[n - w]."""
    hist, tail = _vector_histogram(top, weights)
    return [sum(map(mul, hist[: n + 1], tail[n::-1])) for n in range(top + 1)]


def _vector_histogram(top: int, weights: Sequence[int]) -> tuple[list[int], list[int]]:
    """(hist, tail) of the theorem sums to top.  hist[w] sums
    prod_{s>=3} C(l_s + m_s - 1, l_s) over the partial vectors (l_3..l_top)
    of weight sum s*l_s = w, and tail is _tail_table(top, weights), which
    closes parts 1 and 2 for every remainder.  The walk checks its guard,
    _check_reach(top), before anything else.

    The walk covers (l_4..l_top).  Every partial vector of weight w takes
    the same choices of l_3, so part 3 is folded into the walk's whole
    histogram once (_fold).
    """
    _check_reach(top)
    hist = [0] * (top + 1)
    if top < 4:
        hist[0] = 1
    else:
        _fill_histogram(top, 0, 1, weights, hist)
    if top >= 3:
        _fold(hist, weights[2], 3)
    return hist, _tail_table(top, weights)


def _tail_table(n: int, weights: Sequence[int]) -> list[int]:
    """T[R] for R = 0..n: the sum over (l_1, l_2) with l_1 + 2 l_2 = R of
    C(l_1 + m_1 - 1, l_1) * C(l_2 + m_2 - 1, l_2), the theorem's factors of
    parts 1 and 2, where C(l + m - 1, l) is 1 at l = 0 whatever m is.

    With m_1 = 1 the first factor is 1, and T[R] = C(R // 2 + m_2, m_2) by
    the hockey-stick identity.  Otherwise T is 1 folded by both factors.
    """
    m1 = weights[0] if n > 0 else 1
    m2 = weights[1] if n > 1 else 0
    if m1 == 1:
        return [math.comb(R // 2 + m2, m2) for R in range(n + 1)]
    table = [1] + [0] * n
    _fold(table, m1, 1)
    _fold(table, m2, 2)
    return table


def _fold(row: list[int], m: int, s: int) -> None:
    """Multiply row, cut off after its last entry, by
    (1 - z^s)^(-m) = sum_l C(l + m - 1, l) z^(sl), for any integer m.  Each
    C(l + m - 1, l) is carried from l - 1 by an exact division; for m <= 0
    the factor is the polynomial (1 - z^s)^(-m), ended by its first zero
    coefficient.  Each nonzero entry adds its multiples to the entries sl
    above it, from the top entry down, so every entry is still the row's own
    when it is read."""
    top = len(row) - 1
    c, steps = 1, []
    for l in range(1, top // s + 1):
        c = c * (m + l - 1) // l
        if not c:
            break
        steps.append(c)
    for w in range(top - s, -1, -1):
        mass = row[w]
        if mass:
            i = w
            for c in steps:
                i += s
                if i > top:
                    break
                row[i] += c * mass


def _fill_histogram(s: int, weight: int, coeff: int, weights: Sequence[int], hist: list[int]) -> None:
    """Add coeff * prod_{4<=t<=s} C(l_t + m_t - 1, l_t) to hist[weight +
    sum t*l_t] for every (l_4..l_s) that keeps that index in hist; callers
    keep 4 <= s <= len(hist) - 1 - weight.

    Each call chooses l_s and goes on to part min(s - 1, room), the largest
    part that still fits, so no branch dead-ends; a partial vector with
    room below 4, or with no part above 3 left, ends its branch in one add.
    C(l + m - 1, l) is carried from l - 1 by an exact division, and a zero
    factor (m_s = 0) prunes every larger l_s.  A module function rather
    than a closure: a closure that calls itself is a reference cycle.
    """
    top = len(hist) - 1
    m = weights[s - 1]
    below = s - 1
    if below < 4:
        hist[weight] += coeff
    else:
        room = top - weight
        _fill_histogram(below if below < room else room, weight, coeff, weights, hist)
    c = 1
    l = 0
    w = weight + s
    while w <= top:
        l += 1
        c = c * (m + l - 1) // l
        if not c:
            break
        room = top - w
        if below < 4 or room < 4:
            hist[w] += coeff * c
        else:
            _fill_histogram(below if below < room else room, w, coeff * c, weights, hist)
        w += s


def _theorem_sum(quantity: str, n: int, r: int | None = None) -> int:
    """The family's vector sum at (n, r), in range and reach before its
    pattern is built."""
    stated_family(quantity, "formula", n, r)
    _check_reach(n)
    return _vector_sum(n, quantity_weights(quantity, n, r, None).weights)


def pp_formula(n: int) -> int:
    """Plane partitions of n via the multiplicity-vector sum (valid in the
    stated range of FAMILIES["pp"])."""
    return _theorem_sum("pp", n)


def ppr_formula(n: int, r: int) -> int:
    """Plane partitions of n with at most r rows (valid in the stated range
    of FAMILIES["pp_r"])."""
    return _theorem_sum("pp_r", n, r)


def pps_formula(n: int) -> int:
    """Strict plane partitions of n (valid in the stated range of FAMILIES["pps"])."""
    return _theorem_sum("pps", n)


def ppso_formula(n: int) -> int:
    """The odd-weighted count ppso(n) (valid in the stated range of FAMILIES["ppso"])."""
    return _theorem_sum("ppso", n)


def multipartition_formula(n: int, r: int) -> int:
    """r-component multipartitions of n (valid in the stated range of
    FAMILIES["P_r"])."""
    return _theorem_sum("P_r", n, r)


def ppr_inclusion_exclusion(n: int, r: int, pr_values: Callable[[int], int]) -> int:
    """pp_r(n) as an alternating sum of multipartition counts,
    sum_k c_k P_r(n - k), with c = _shift_coefficients(n, r).

    pr_values(k) must supply P_r(k) for 0 <= k <= n; it is read once for
    each k whose c_k is nonzero, and never otherwise.
    """
    if r < 1:
        raise ValueError("ppr_inclusion_exclusion requires r >= 1")
    if n < 0:
        return 0
    return sum(c * pr_values(n - k) for k, c in enumerate(_shift_coefficients(n, r)) if c)


def _shift_coefficients(n: int, r: int) -> list[int]:
    """Coefficients of z^0..z^n in prod_{j=1}^{r-1} (1 - z^j)^(r-j), the
    factor that turns the generating function of P_r into that of pp_r.

    The product is cut off after z^n and multiplied out one factor
    (1 - z^j)^(r-j) with j <= n at a time (_fold), in O(n^2 log n) steps
    whatever r is.
    """
    coeffs = [1] + [0] * n
    for j in range(1, min(r - 1, n) + 1):
        _fold(coeffs, j - r, j)
    return coeffs


def ppr_via_multipartition_formula(n: int, r: int) -> int:
    """pp_r(n) by the alternating sum, with P_r read as
    _multipartition_reader reads it; its oracle side is one DP row to n,
    built on the first k that reads it and never when none does."""
    return ppr_inclusion_exclusion(n, r, _multipartition_reader(n, r, lambda: oracle_row("P_r", n, r=r)))


def ppr_via_multipartition_row(top: int, r: int, dp_row: Sequence[int]) -> list[int]:
    """pp_r(0..top) by the alternating sum: entry n is sum_k c_k P_r(n - k),
    with c = _shift_coefficients(top, r) and each P_r(k) read once, as
    _multipartition_reader reads it, where dp_row holds P_r(0..top) by an
    oracle."""
    if r < 1:
        raise ValueError("ppr_via_multipartition_row requires r >= 1")
    if top < 0:
        raise ValueError("top must be >= 0")
    pr = _multipartition_reader(top, r, lambda: dp_row)
    values = [pr(k) for k in range(top + 1)]
    coeffs = _shift_coefficients(top, r)
    return [sum(map(mul, coeffs[: n + 1], values[n::-1])) for n in range(top + 1)]


def _multipartition_reader(top: int, r: int, dp_row: Callable[[], Sequence[int]]) -> Callable[[int], int]:
    """P_r(k) for 0 <= k <= top: the theorem sum wherever the formula
    hypothesis holds and k is within series.vector_reach(), and the oracle's
    dp_row()[k] elsewhere.  Each side is one row, built on the first k that
    reads it: the theorem row to min(top, series.vector_reach()), and dp_row()."""
    family = FAMILIES["P_r"]
    reach = min(top, series.vector_reach())
    rows = {}

    def pr(k: int) -> int:
        theorem = k <= reach and family.holds(k, r)
        if theorem not in rows:
            rows[theorem] = (
                _vector_row(reach, quantity_weights("P_r", reach, r, None).weights) if theorem else dp_row()
            )
        return rows[theorem][k]

    return pr
