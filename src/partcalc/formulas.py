"""Closed-form evaluators: multiplicity-vector sums over A_n.

Every counting family reduces to

    sum over (l_1..l_n) with sum s*l_s = n  of  prod_s C(l_s + m_s - 1, l_s)

where m_s is the family's multiplicity pattern.  C(l + m - 1, l) counts the
ways to split l copies of part s among m indistinguishable-slot variables,
which is exactly the coefficient extraction the generating function performs.
The sum walks A_n depth first, so it holds one path of the walk at a time;
its time grows with p(n) = |A_n|, which VECTOR_LIMIT bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable

from .combinat import binomial
from .sequences import FAMILIES
from .series import CostGuardExceeded, oracle_value, restricted_partition_row

# Most multiplicity vectors the theorem route walks: p(60) = 966,467 is
# within, p(61) = 1,121,505 is not.
VECTOR_LIMIT = 10**6


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


def _vector_count_to_limit(n: int) -> tuple[int, int]:
    """(k, p(k)): k = n, or the first k of 64, 128, 256, ... below n with
    p(k) above VECTOR_LIMIT.  p is nondecreasing, so p(n) >= p(k) then.  The
    first row already passes the default limit (p(61) is above it), so the
    check costs one row of at most 64 whatever n is."""
    k = 64
    while k < n:
        count = vector_count(k)
        if count > VECTOR_LIMIT:
            return k, count
        k *= 2
    return n, vector_count(n)


def within_vector_limit(n: int) -> bool:
    """Whether the theorem sum over A_n walks at most VECTOR_LIMIT vectors."""
    return _vector_count_to_limit(n)[1] <= VECTOR_LIMIT


def _vector_sum(n: int, pattern: list[int]) -> int:
    """sum over A_n of prod_s C(l_s + m_s - 1, l_s), with m_s = pattern[s-1].

    Raises CostGuardExceeded up front when A_n has more than VECTOR_LIMIT
    vectors.
    """
    k, count = _vector_count_to_limit(n)
    if count > VECTOR_LIMIT:
        at_least = "" if k == n else f"at least p({k}) = "
        raise CostGuardExceeded(
            f"A_{n} has {at_least}{count} multiplicity vectors, above the limit of {VECTOR_LIMIT}"
        )
    return _walk(n, n, pattern)


def _walk(s: int, remaining: int, pattern: list[int]) -> int:
    """sum of prod_t C(l_t + m_t - 1, l_t) over (l_1..l_s) with
    sum t*l_t = remaining; callers keep s <= remaining.

    Each call chooses l_s and jumps to part min(s - 1, rest), so no branch
    dead-ends; part 1 takes whatever remains, so every call at s < 2 is one
    leaf, one vector of A_n.  C(l + m - 1, l) is carried from l - 1 by an
    exact division.  A zero factor (m_s = 0) prunes every larger l_s.
    """
    if s < 2:
        return math.comb(remaining + pattern[0] - 1, remaining) if s else 1
    m = pattern[s - 1]
    below = s - 1
    total = _walk(below, remaining, pattern)
    c = 1
    l = 0
    rest = remaining - s
    while rest >= 0:
        l += 1
        c = c * (m + l - 1) // l
        if not c:
            break
        total += c * _walk(below if below < rest else rest, rest, pattern)
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
    """pp_r(n) as an alternating sum of multipartition counts.

    pr_values(k) must supply P_r(k) for 0 <= k <= n (arguments below zero are
    treated as zero).  Each shift pattern (t_1..t_{r-1}) with 0 <= t_j <= r-j
    contributes sign (-1)^sum(t) times prod_j C(r-j, t_j).
    """
    if r < 1:
        raise ValueError("ppr_inclusion_exclusion requires r >= 1")
    if n < 0:
        return 0
    total = 0
    for ts in itertools.product(*(range(r - j + 1) for j in range(1, r))):
        shift = sum(j * t for j, t in enumerate(ts, start=1))
        if shift > n:
            continue
        coeff = 1
        for j, t in enumerate(ts, start=1):
            coeff *= binomial(r - j, t)
        value = coeff * pr_values(n - shift)
        total += -value if sum(ts) % 2 else value
    return total


def ppr_via_multipartition_formula(n: int, r: int) -> int:
    """pp_r(n) by the alternating sum, with formula-backed multipartition
    counts wherever the formula hypothesis holds and A_k is within
    VECTOR_LIMIT, and the DP oracle elsewhere."""

    cache: dict[int, int] = {}

    def pr(k: int) -> int:
        if k < 0:
            return 0
        if k not in cache:
            if FAMILIES["P_r"].holds(k, r) and within_vector_limit(k):
                cache[k] = multipartition_formula(k, r)
            else:
                cache[k] = oracle_value("P_r", k, r=r)
        return cache[k]

    return ppr_inclusion_exclusion(n, r, pr)
