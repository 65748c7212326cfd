"""Closed-form evaluators: multiplicity-vector sums over A_n.

Every counting family reduces to

    sum over (l_1..l_n) with sum s*l_s = n  of  prod_s C(l_s + m_s - 1, l_s)

where m_s is the family's multiplicity pattern.  C(l + m - 1, l) counts the
ways to split l copies of part s among m indistinguishable-slot variables,
which is exactly the coefficient extraction the generating function performs.
The sum walks A_n depth first over the coordinates l_n..l_3, so it holds one
path of the walk at a time.  Parts 1 and 2 are closed together: one table
per sum, built from the same binomials, gives the sum over (l_1, l_2) for
every remainder R, so each branch of the walk ends in one table read that
covers R // 2 + 1 vectors.  The table covers parts 1 and 2 only and reads
no oracle, so the walk stays an algorithm of its own.  Its time still grows with p(n) = |A_n|, which
VECTOR_LIMIT bounds.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .combinat import binomial
from .sequences import FAMILIES
from .series import CostGuardExceeded, oracle_row, restricted_partition_row

# Most multiplicity vectors the theorem route walks: p(60) = 966,467 is
# within, p(61) = 1,121,505 is not.
VECTOR_LIMIT = 10**6

# Multiply-adds of the series oracle that one vector of the theorem walk is
# priced at.  Calibrated when each vector was one call, on pp, pps and ppso at
# n = 3..25 on a shared 2-core VM: about 0.40 us a vector against 0.10 us a
# recurrence pair of the series.  With parts 1 and 2 closed from one table the
# same sums take about 0.13 us a vector, so this price is now about 3x high;
# it stays, so that auto keeps choosing the routes it chose.
LEAF_COST = 4


class HypothesisError(ValueError):
    """An evaluator was called outside its validity range."""


def stated_pattern(quantity: str, wrapper: str, n: int, r: int | None = None) -> list[int]:
    """The family's multiplicities of parts 1..n, or HypothesisError naming
    the wrapper when (n, r) lies outside the family's stated range."""
    family = FAMILIES[quantity]
    if not family.holds(n, r):
        raise HypothesisError(f"{wrapper} requires {family.stated_range}")
    return family.pattern(n, r)


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
        term = binomial(copies, i) * binomial(rest + copies - 1, copies - 1)
        out += term if i % 2 == 0 else -term
    return out


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


def vector_count(n: int) -> int:
    """|A_n| = p(n), from the restricted-partition row with each part 1..n
    once."""
    return restricted_partition_row(enumerate([1] * n, start=1), n)[n]


# The route choice reads p(n), and the walk it picks reads it again for its
# guard: the last answer is kept for that second read.
@functools.lru_cache(maxsize=1)
def _count_to_limit(n: int, limit: int) -> tuple[int, int]:
    return count_to_limit(vector_count, n, limit)


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


def vector_work(n: int) -> int:
    """The theorem route's work: p(n), the vectors its walk over A_n covers,
    or a p(k) with k < n once that passes VECTOR_LIMIT.  A vector is priced
    at LEAF_COST multiply-adds."""
    return _count_to_limit(n, VECTOR_LIMIT)[1]


def within_vector_limit(n: int) -> bool:
    """Whether the theorem sum over A_n walks at most VECTOR_LIMIT vectors."""
    return vector_work(n) <= VECTOR_LIMIT


def _vector_sum(n: int, pattern: list[int]) -> int:
    """sum over A_n of prod_s C(l_s + m_s - 1, l_s), with m_s = pattern[s-1].

    Raises CostGuardExceeded up front when A_n has more than VECTOR_LIMIT
    vectors.
    """
    k, count = _count_to_limit(n, VECTOR_LIMIT)
    if count > VECTOR_LIMIT:
        at_least = "" if k == n else f"at least p({k}) = "
        raise CostGuardExceeded(
            f"A_{n} has {at_least}{count} multiplicity vectors, above the limit of {VECTOR_LIMIT}"
        )
    tail = _tail_table(n, pattern)
    return tail[n] if n < 3 else _walk(n, n, pattern, tail)


def _tail_table(n: int, pattern: list[int]) -> list[int]:
    """T[R] for R = 0..n: the sum over (l_1, l_2) with l_1 + 2 l_2 = R of
    C(l_1 + m_1 - 1, l_1) * C(l_2 + m_2 - 1, l_2), the theorem's factors of
    parts 1 and 2, where C(l + m - 1, l) is 1 at l = 0 whatever m is.

    With m_1 = 1 the first factor is 1, and T[R] = C(R // 2 + m_2, m_2) by
    the hockey-stick identity.  Otherwise T starts as the row of part 1's
    factor, and each l_2 >= 1 adds its factor times that row shifted by
    2 l_2.  Both factors are carried from l - 1 as in _walk, which also
    gives 0 for l > 0 when m = 0.
    """
    m1 = pattern[0]
    m2 = pattern[1] if n > 1 else 0
    if m1 == 1:
        return [math.comb(R // 2 + m2, m2) for R in range(n + 1)]
    ones = [1] * (n + 1)
    for l in range(1, n + 1):
        ones[l] = ones[l - 1] * (m1 + l - 1) // l
    table = ones[:]
    c = 1
    for l in range(1, n // 2 + 1):
        c = c * (m2 + l - 1) // l
        if not c:
            break
        for R in range(2 * l, n + 1):
            table[R] += c * ones[R - 2 * l]
    return table


def _walk(s: int, remaining: int, pattern: list[int], tail: list[int]) -> int:
    """sum of prod_t C(l_t + m_t - 1, l_t) over (l_1..l_s) with
    sum t*l_t = remaining; callers keep 3 <= s <= remaining, and tail is
    _tail_table of the sum.

    Each call chooses l_s and goes on to part min(s - 1, rest), so no branch
    dead-ends.  Where that part is 2 or less the branch ends in one read of
    tail[rest], which closes parts 1 and 2 at once and covers rest // 2 + 1
    vectors of A_n.  C(l + m - 1, l) is carried from l - 1 by an exact
    division.  A zero factor (m_s = 0) prunes every larger l_s.  tail is
    passed down rather than closed over: a closure that calls itself is a
    reference cycle.
    """
    m = pattern[s - 1]
    below = s - 1
    total = tail[remaining] if below < 3 else _walk(below, remaining, pattern, tail)
    c = 1
    l = 0
    rest = remaining - s
    while rest >= 0:
        l += 1
        c = c * (m + l - 1) // l
        if not c:
            break
        if below < 3 or rest < 3:
            total += c * tail[rest]
        else:
            total += c * _walk(below if below < rest else rest, rest, pattern, tail)
        rest -= s
    return total


def pp_formula(n: int) -> int:
    """Plane partitions of n via the multiplicity-vector sum (valid in the
    stated range of FAMILIES["pp"])."""
    return _vector_sum(n, stated_pattern("pp", "pp_formula", n))


def ppr_formula(n: int, r: int) -> int:
    """Plane partitions of n with at most r rows (valid in the stated range
    of FAMILIES["pp_r"])."""
    return _vector_sum(n, stated_pattern("pp_r", "ppr_formula", n, r))


def pps_formula(n: int) -> int:
    """Strict plane partitions of n (valid in the stated range of FAMILIES["pps"])."""
    return _vector_sum(n, stated_pattern("pps", "pps_formula", n))


def ppso_formula(n: int) -> int:
    """The odd-weighted count ppso(n) (valid in the stated range of FAMILIES["ppso"])."""
    return _vector_sum(n, stated_pattern("ppso", "ppso_formula", n))


def multipartition_formula(n: int, r: int) -> int:
    """r-component multipartitions of n (valid in the stated range of
    FAMILIES["P_r"])."""
    return _vector_sum(n, stated_pattern("P_r", "multipartition_formula", n, r))


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

    The product is cut off after z^n and multiplied out from the terms
    (-1)^t C(r-j, t) z^(jt) of the factors with j <= n, in O(n^2 log n)
    steps whatever r is.
    """
    coeffs = [1] + [0] * n
    for j in range(1, min(r - 1, n) + 1):
        terms = [(-1) ** t * binomial(r - j, t) for t in range(1, min(r - j, n // j) + 1)]
        # From the top down, so that coeffs[i - j*t] still holds the product
        # without this factor.
        for i in range(n, j - 1, -1):
            coeffs[i] += sum(c * coeffs[i - j * t] for t, c in enumerate(terms[: i // j], start=1))
    return coeffs


def ppr_via_multipartition_formula(n: int, r: int) -> int:
    """pp_r(n) by the alternating sum, with formula-backed multipartition
    counts wherever the formula hypothesis holds and A_k is within
    VECTOR_LIMIT, and the DP oracle elsewhere: one P_r row to n, read on
    the first k that needs it and never built when none does."""
    oracle = functools.cache(lambda: oracle_row("P_r", n, r=r))

    def pr(k: int) -> int:
        if FAMILIES["P_r"].holds(k, r) and within_vector_limit(k):
            return multipartition_formula(k, r)
        return oracle()[k]

    return ppr_inclusion_exclusion(n, r, pr)
