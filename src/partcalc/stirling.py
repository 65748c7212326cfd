"""Stirling-number congruence sums for restricted partition counts.

The generic engine evaluates, for a weight sequence a of length r with
D = lcm(a),

    p_a(n) = 1/(r-1)! * sum over boxed (j_1..j_r) with sum a_t j_t = n (mod D)
             of  sum_{m=0}^{r-1} sum_{k=m}^{r-1}
                 c(r, k+1) (-1)^(k-m) C(k, m) D^(-k) S^(k-m) n^m

with S the weighted sum of the box point and c the unsigned Stirling numbers
of the first kind.  The regrouped variants walk a much smaller box indexed by
part value, weighting each point by the number of expanded configurations
that collapse onto it.  All intermediate arithmetic is exact rational; the
final value is asserted to be an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinat import StirlingTable, factorial, lcm_range, stirling_first_unsigned
from .formulas import CostGuardExceeded, bounded_composition_count, stated_pattern
from .sequences import WeightSequence

DEFAULT_BOX_LIMIT = 10**9


@dataclass(frozen=True)
class CongruenceBox:
    """Integer points 0 <= x_t <= bounds[t] with sum weights[t]*x_t = residue (mod modulus)."""

    bounds: tuple[int, ...]
    weights: tuple[int, ...]
    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("CongruenceBox needs at least one coordinate")
        if len(self.weights) != len(self.bounds):
            raise ValueError("need one weight per coordinate")
        if any(b < 0 for b in self.bounds):
            raise ValueError("bounds must be >= 0")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must lie in [0, modulus)")

    def size(self) -> int:
        out = 1
        for b in self.bounds:
            out *= b + 1
        return out


@dataclass(frozen=True)
class StirlingKernel:
    """The inner double sum, as a function of the point's weighted sum."""

    length: int
    modulus: int
    target: int
    table: StirlingTable

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("kernel length must be >= 1")
        if self.table.r != self.length:
            raise ValueError("Stirling table must match the kernel length")

    def value(self, weighted_sum: int) -> Fraction:
        r, d, n = self.length, self.modulus, self.target
        spow = [1] * r
        npow = [1] * r
        for i in range(1, r):
            spow[i] = spow[i - 1] * weighted_sum
            npow[i] = npow[i - 1] * n
        # Accumulate over the common denominator D^(r-1).
        num = 0
        for m in range(r):
            for k in range(m, r):
                term = (
                    self.table[k + 1]
                    * math.comb(k, m)
                    * spow[k - m]
                    * npow[m]
                    * d ** (r - 1 - k)
                )
                num += -term if (k - m) % 2 else term
        return Fraction(num, d ** (r - 1))


def _check_guard(box: CongruenceBox, box_limit: int) -> None:
    size = box.size()
    if size > box_limit:
        raise CostGuardExceeded(
            f"congruence box has {size} points, above the limit of {box_limit}"
        )


def box_weight_histogram(
    box: CongruenceBox, coeff_tables: tuple[tuple[int, ...], ...] | None = None
) -> dict[int, int]:
    """Coefficient mass per weighted sum over the box.

    coeff_tables[t][v] weights coordinate t at value v (None means weight 1
    everywhere); a zero coefficient prunes the whole subtree.  The first
    coordinate is never looped: its admissible values are solved from the
    congruence.
    """
    if coeff_tables is not None and len(coeff_tables) != len(box.bounds):
        raise ValueError("need one coefficient table per coordinate")
    modulus, residue = box.modulus, box.residue
    w0, b0 = box.weights[0], box.bounds[0]
    g = math.gcd(w0, modulus)
    step = modulus // g
    inv = pow((w0 // g) % step, -1, step) if step > 1 else 0
    table0 = coeff_tables[0] if coeff_tables else None
    hist: dict[int, int] = {}

    def resolve(partial: int, coeff: int) -> None:
        t = (residue - partial) % modulus
        if t % g:
            return
        x = ((t // g) * inv) % step if step > 1 else 0
        while x <= b0:
            c = coeff if table0 is None else coeff * table0[x]
            if c:
                sw = partial + w0 * x
                hist[sw] = hist.get(sw, 0) + c
            x += step

    def walk(i: int, partial: int, coeff: int) -> None:
        if i == 0:
            resolve(partial, coeff)
            return
        w, b = box.weights[i], box.bounds[i]
        table = coeff_tables[i] if coeff_tables else None
        if table is None:
            for v in range(b + 1):
                walk(i - 1, partial + w * v, coeff)
        else:
            for v in range(b + 1):
                c = table[v]
                if c:
                    walk(i - 1, partial + w * v, coeff * c)

    walk(len(box.bounds) - 1, 0, 1)
    return hist


def regrouped_partial_sums(
    box: CongruenceBox,
    kernel: StirlingKernel,
    coeff_tables: tuple[tuple[int, ...], ...] | None = None,
    *,
    box_limit: int = DEFAULT_BOX_LIMIT,
) -> dict[int, Fraction]:
    """Per-weighted-sum contributions, already divided by (length-1)!."""
    _check_guard(box, box_limit)
    norm = factorial(kernel.length - 1)
    hist = box_weight_histogram(box, coeff_tables)
    return {
        sw: Fraction(mass) * kernel.value(sw) / norm for sw, mass in sorted(hist.items())
    }


def _as_integer(total: Fraction) -> int:
    if total.denominator != 1:
        raise ArithmeticError(f"formula sum is not an integer: {total}")
    return int(total)


def regrouped_sum(
    box: CongruenceBox,
    kernel: StirlingKernel,
    coeff_tables: tuple[tuple[int, ...], ...] | None = None,
    *,
    box_limit: int = DEFAULT_BOX_LIMIT,
) -> int:
    partials = regrouped_partial_sums(box, kernel, coeff_tables, box_limit=box_limit)
    return _as_integer(sum(partials.values(), Fraction(0)))


def restricted_count_stirling(
    a: WeightSequence,
    n: int,
    *,
    box_limit: int = DEFAULT_BOX_LIMIT,
) -> int:
    """p_a(n) by the generic congruence-box sum over (j_1..j_r)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    d = a.lcm
    box = CongruenceBox(
        bounds=tuple(d // part - 1 for part in a.parts),
        weights=a.parts,
        modulus=d,
        residue=n % d,
    )
    kernel = StirlingKernel(
        length=a.length, modulus=d, target=n, table=stirling_first_unsigned(a.length)
    )
    return regrouped_sum(box, kernel, None, box_limit=box_limit)


def _pattern_setup(
    n: int, pattern: list[int]
) -> tuple[CongruenceBox, StirlingKernel, tuple[tuple[int, ...], ...]]:
    """Box, kernel and per-coordinate coefficient tables for a regrouped sum.

    Coordinate s collapses the m_s = pattern[s-1] expanded variables of part
    s; its coefficient at value l counts the (x_1..x_{m_s}) with
    x_i <= D/s - 1 summing to l.  The bound D - m_s covers every point whose
    weighted sum can reach the target; points it cuts off would hit the
    kernel only where the kernel vanishes, so truncation does not change the
    sum.
    """
    d = lcm_range(n)
    bounds = tuple(d - m for m in pattern)
    box = CongruenceBox(
        bounds=bounds, weights=tuple(range(1, n + 1)), modulus=d, residue=n % d
    )
    tables = tuple(
        tuple(bounded_composition_count(v, m, d // s - 1) for v in range(d - m + 1))
        for s, m in enumerate(pattern, start=1)
    )
    length = sum(pattern)
    kernel = StirlingKernel(
        length=length, modulus=d, target=n, table=stirling_first_unsigned(length)
    )
    return box, kernel, tables


def _regrouped_count(n: int, pattern: list[int], box_limit: int) -> int:
    box, kernel, tables = _pattern_setup(n, pattern)
    return regrouped_sum(box, kernel, tables, box_limit=box_limit)


def pp_stirling(n: int, *, box_limit: int = DEFAULT_BOX_LIMIT) -> int:
    """pp(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["pp"])."""
    return _regrouped_count(n, stated_pattern("pp", "pp_stirling", n), box_limit)


def ppr_stirling(n: int, r: int, *, box_limit: int = DEFAULT_BOX_LIMIT) -> int:
    """pp_r(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["pp_r"])."""
    return _regrouped_count(n, stated_pattern("pp_r", "ppr_stirling", n, r), box_limit)


def pps_stirling(n: int, *, box_limit: int = DEFAULT_BOX_LIMIT) -> int:
    """pps(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["pps"])."""
    return _regrouped_count(n, stated_pattern("pps", "pps_stirling", n), box_limit)


def ppso_stirling(n: int, *, box_limit: int = DEFAULT_BOX_LIMIT) -> int:
    """ppso(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["ppso"])."""
    return _regrouped_count(n, stated_pattern("ppso", "ppso_stirling", n), box_limit)


def multipartition_stirling(n: int, r: int, *, box_limit: int = DEFAULT_BOX_LIMIT) -> int:
    """P_r(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["P_r"])."""
    return _regrouped_count(
        n, stated_pattern("P_r", "multipartition_stirling", n, r), box_limit
    )
