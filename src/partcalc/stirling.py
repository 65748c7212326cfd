"""Stirling-number congruence sums for restricted partition counts.

The generic engine evaluates, for a weight sequence a of length r with
D = lcm(a),

    p_a(n) = 1/(r-1)! * sum over boxed (j_1..j_r) with sum a_t j_t = n (mod D)
             of  sum_{m=0}^{r-1} sum_{k=m}^{r-1}
                 c(r, k+1) (-1)^(k-m) C(k, m) D^(-k) S^(k-m) n^m

with S the weighted sum of the box point and c the unsigned Stirling numbers
of the first kind.  The family wrappers (pp, pp_r, pps, ppso, P_r) are the
same sum over the parts of their pattern (sequences.pattern): p_a with a the
family's weight sequence to n, as the paper reduces them.

Every sum is guarded before it builds anything of size n or of the box.
The family sums are refused above one stated n, FAMILY_REACH.  The generic
sums count the expanded box's points (check_generic_box), and past 64
parts the box of the first 64, 128, ... (series.count_to_limit).  Each
histogram step also checks its own guard: the walk counts the points of
the box it walks (box_weight_histogram), and the product prices its slots
times slot width in bytes before it builds any factor (_check_product).
Then every sum takes one setup (generic_setup: a CongruenceBox, a
StirlingKernel and one block table per pair) and one evaluation step.  The
box depends on n only through n mod D, so on one residue class the sum is
a polynomial in n of degree r-1 (Sylvester's wave).  The step takes the
histogram of weighted sums over the box (mass per S), reduces it to its
power moments sum mass * S^e, builds that polynomial's coefficients in
exact integers over the common denominator (r-1)! D^(r-1) (_polynomial,
the one expansion of the kernel), evaluates it at n by Horner's rule, and
asserts that the value is an integer (_evaluate).  StirlingKernel.value(S)
reads the polynomial of the one-point histogram {S: 1}.  The sums differ
only in how they build the histogram.  The generic sums at one n and
regrouped_partial_sums walk their box (box_weight_histogram): the loop that
fixes coordinate 1 solves coordinate 0 from the congruence for each of its
values, so the walk makes one call per node above coordinate 1.  The others
multiply the block tables once (_packed_product), which holds the
histogram of every residue class: a family sum reads the class of its n,
and restricted_row_stirling reads every class that occurs in its row,
builds that residue's polynomial once, and evaluates it at every n of the
class.  regrouped_partial_sums keeps the per-weighted-sum view as exact
fractions, for verify.

Within FAMILY_REACH the family sum has a plainer reading too.  Its parts
are 1..n, so D = lcm(1..n) > n at every n >= 3 it serves.  The kernel at S
is C((n - S)/D + L - 1, L - 1), L the number of parts: 1 at S = n and 0 at
S = n + jD for 1 <= j < L.  The class of n holds no S < n, and none at
n + LD or above (every S is below LD).  So the sum is the product's mass
at S = n, the coefficient of z^n in prod (1 + z^a + ... + z^(D - a)) =
prod (1 - z^D)/(1 - z^a), which below z^D is p_a(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinat import bounded_composition_count, stirling_first_unsigned
from .sequences import pattern, stated_family
from .series import CostGuardExceeded, count_to_limit

# Generic boxes (of p and p_a) with more points are refused with
# CostGuardExceeded; read at call time.
DEFAULT_BOX_LIMIT = 10**9
# Family sums above this n are refused likewise, before their pattern is
# built.  The products at n = 6 are small, but serving them raised the
# crosscheck workload's tail latency from about 1.1 to 2.5 ms in a
# prototype, where that workload plans n = 6 as refused (ROADMAP item 2).
FAMILY_REACH = 5
# Packed products (_packed_product) of more bytes are refused likewise.
DEFAULT_PRODUCT_LIMIT = 10**6


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


@dataclass(frozen=True)
class StirlingKernel:
    """The inner double sum, as a function of the point's weighted sum.

    table is the Stirling row stirling_first_unsigned(length), so table[k]
    is c(length, k + 1).
    """

    length: int
    modulus: int
    target: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("kernel length must be >= 1")
        if len(self.table) != self.length:
            raise ValueError("Stirling table must match the kernel length")

    def value(self, weighted_sum: int) -> Fraction:
        """The kernel at one weighted sum S: the polynomial of the one-point
        histogram {S: 1} at the target, over D^(length-1)."""
        scaled = _horner(_polynomial(self, {weighted_sum: 1}), self.target)
        return Fraction(scaled, self.modulus ** (self.length - 1))


def box_weight_histogram(
    box: CongruenceBox, coeff_tables: tuple[tuple[int, ...] | None, ...]
) -> dict[int, int]:
    """Coefficient mass per weighted sum over the box.

    coeff_tables[t][v] weights coordinate t at value v (a None table means
    weight 1 everywhere); a zero coefficient prunes the whole subtree.  The
    first coordinate is never looped: its admissible values are solved from
    the congruence (_walk_box).  The box is refused above DEFAULT_BOX_LIMIT
    points before its first point is visited.
    """
    if len(coeff_tables) != len(box.bounds):
        raise ValueError("need one coefficient table per coordinate")
    _check_box(lambda k: math.prod(b + 1 for b in box.bounds[:k]), len(box.bounds))
    w0, modulus = box.weights[0], box.modulus
    g = math.gcd(w0, modulus)
    step = modulus // g
    leaf = (box.residue, modulus, g, step, pow(w0 // g % step, -1, step), w0, box.bounds[0], coeff_tables[0])
    hist: dict[int, int] = {}
    _walk_box(len(box.bounds) - 1, 0, 1, box.weights, box.bounds, coeff_tables, leaf, hist)
    return hist


def _walk_box(i: int, partial: int, coeff: int, weights, bounds, tables, leaf, hist: dict) -> None:
    """Add to hist the mass of every point of the box with the coordinates
    above i fixed, at weighted sum partial and coefficient coeff.  Levels
    above 1 recurse.  The level that fixes coordinate 1 (or a one-coordinate
    box's only level, over its one value) solves coordinate 0 for each of
    its values in its own loop, so there is one call per node above
    coordinate 1.  Coordinate 0 takes the x <= b_0 with w_0 x = residue - p
    (mod modulus), p the weighted sum of the coordinates above 0: x_0 +
    k step.  leaf = (residue, modulus, g, step, inv, w_0, b_0, table_0)
    holds g = gcd(w_0, modulus), step = modulus / g and inv, the inverse of
    w_0 / g mod step, once per box.  A module function rather than a
    closure: a closure that calls itself is a reference cycle."""
    if i > 1:
        w, b, table = weights[i], bounds[i], tables[i]
        i -= 1
        if table is None:
            for v in range(b + 1):
                _walk_box(i, partial + w * v, coeff, weights, bounds, tables, leaf, hist)
        else:
            for v in range(b + 1):
                c = table[v]
                if c:
                    _walk_box(i, partial + w * v, coeff * c, weights, bounds, tables, leaf, hist)
        return
    residue, modulus, g, step, inv, w0, b0, table0 = leaf
    w, b, table = (weights[1], bounds[1], tables[1]) if i else (0, 0, None)
    for v in range(b + 1):
        c1 = coeff if table is None else coeff * table[v]
        if not c1:
            continue
        p = partial + w * v
        t = (residue - p) % modulus
        if t % g:
            continue
        x = (t // g) * inv % step
        while x <= b0:
            c = c1 if table0 is None else c1 * table0[x]
            if c:
                sw = p + w0 * x
                hist[sw] = hist.get(sw, 0) + c
            x += step


def _check_box(count, length: int) -> None:
    """Refuse a box of more than DEFAULT_BOX_LIMIT points.  count(k), which
    grows with k, counts the box of the first k of length coordinates, read
    at k = 64, 128, ... first (count_to_limit)."""
    k, size = count_to_limit(count, length, DEFAULT_BOX_LIMIT)
    if size > DEFAULT_BOX_LIMIT:
        shown = size if k == length else f"at least {size}"
        if size.bit_length() > 13_000:  # 3,914 digits; str() refuses 4,300
            # 10^e <= 2^(bits - 1) <= size, since 0.30102 < log10(2).
            shown = f"at least 10^{(size.bit_length() - 1) * 30102 // 100000}"
        raise CostGuardExceeded(
            f"congruence box has {shown} points, above the limit of {DEFAULT_BOX_LIMIT}"
        )


def regrouped_partial_sums(
    box: CongruenceBox, kernel: StirlingKernel, coeff_tables: tuple[tuple[int, ...] | None, ...]
) -> dict[int, Fraction]:
    """Per-weighted-sum contributions, already divided by (length-1)!.  The
    walk raises CostGuardExceeded above DEFAULT_BOX_LIMIT points."""
    norm = math.factorial(kernel.length - 1)
    hist = box_weight_histogram(box, coeff_tables)
    return {sw: Fraction(mass) * kernel.value(sw) / norm for sw, mass in sorted(hist.items())}


def regrouped_sum(
    box: CongruenceBox, kernel: StirlingKernel, coeff_tables: tuple[tuple[int, ...] | None, ...]
) -> int:
    """The kernel summed over the walked box: the box's polynomial in n,
    evaluated at the kernel's target.  The walk raises CostGuardExceeded
    above DEFAULT_BOX_LIMIT points."""
    return _evaluate(_polynomial(kernel, box_weight_histogram(box, coeff_tables)), kernel, kernel.target)


def generic_setup(
    pairs: tuple[tuple[int, int], ...], n: int
) -> tuple[CongruenceBox, StirlingKernel, tuple[tuple[int, ...] | None, ...]]:
    """Box, kernel and coefficient tables of the generic sum for p_a(n), a
    the parts with the (part, multiplicity) pairs of sequences.pattern, D =
    lcm(a).

    The expanded box is 0 <= j_t < D/a_t, one coordinate per part, with
    sum a_t j_t = n (mod D).  The m copies of a part k are one coordinate
    of weight k and bound m(D/k - 1), whose table counts the (j_1..j_m)
    with j_i <= D/k - 1 summing to each value, the coefficients of
    (1 + z + ... + z^(D/k - 1))^m (_block_table), so the histogram is the
    expanded box's.  A part that occurs once has table None (all ones).
    Callers check their guard first: check_generic_box, or FAMILY_REACH for
    a family.
    """
    d = math.lcm(*(k for k, _ in pairs))
    runs = [(k, m, d // k - 1) for k, m in pairs]
    box = CongruenceBox(tuple(m * a for _, m, a in runs), tuple(k for k, _, _ in runs), d, n % d)
    tables = tuple(None if m == 1 else _block_table(m, a) for _, m, a in runs)
    length = sum(m for _, m in pairs)
    return box, StirlingKernel(length, d, n, stirling_first_unsigned(length)), tables


def _block_table(copies: int, alpha: int) -> tuple[int, ...]:
    """The coefficients of (1 + z + ... + z^alpha)^copies, by
    bounded_composition_count: the table of a part that occurs copies times."""
    return tuple(bounded_composition_count(v, copies, alpha) for v in range(copies * alpha + 1))


def check_generic_box(parts) -> None:
    """Refuse the generic sum over sorted parts above DEFAULT_BOX_LIMIT points."""
    _check_box(lambda k: _expanded_points(parts[:k]), len(parts))


def _expanded_points(parts) -> int:
    """prod_t D/a_t with D = lcm(parts): the points of the expanded generic
    box of the sorted parts."""
    d = math.lcm(*parts)
    return math.prod(d // a for a in parts)


def partition_count_stirling(n: int) -> int:
    """p(n) by the generic sum over the parts 1..n, guarded before the n
    parts are listed."""
    check_generic_box(range(1, n + 1))
    return regrouped_sum(*generic_setup(pattern("p", n, None, None), n))


def _guarded_parts(parts) -> tuple[int, ...]:
    """parts as a tuple, once every part is checked positive (ValueError)
    and the generic box within its guard (check_generic_box)."""
    parts = tuple(parts)
    if not parts or min(parts) < 1:
        raise ValueError("parts must be positive")
    check_generic_box(sorted(parts))
    return parts


def restricted_count_stirling(parts: tuple[int, ...], n: int) -> int:
    """p_a(n), a the parts in any order, by the generic congruence-box sum
    over (j_1..j_r)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = _guarded_parts(parts)
    return regrouped_sum(*generic_setup(pattern("p_a", n, None, parts), n))


def restricted_row_stirling(parts: tuple[int, ...], top: int) -> list[int]:
    """p_a(0..top), a the parts in any order, by the generic congruence-box sum.

    Every n with the same residue mod D shares one box, and one packed
    product of the tables generic_setup builds (_packed_product) holds the
    histogram of every residue, so each residue that occurs in 0..top is
    read off it.  Each residue's polynomial in n is built once, and each n
    of the class evaluates it.  The box guard is checked before any table,
    and the product's price before any factor.
    """
    if top < 0:
        raise ValueError("top must be >= 0")
    parts = _guarded_parts(parts)
    box, kernel, tables = generic_setup(pattern("p_a", top, None, parts), 0)
    histogram = _packed_product(box, tables)
    row = [0] * (top + 1)
    for residue in range(min(kernel.modulus, top + 1)):
        poly = _polynomial(kernel, histogram(residue))
        for n in range(residue, top + 1, kernel.modulus):
            row[n] = _evaluate(poly, kernel, n)
    return row


def _polynomial(kernel: StirlingKernel, hist: dict[int, int]) -> list[int]:
    """q_0..q_(L-1), L = kernel.length, with sum_m q_m n^m / D^(L-1) equal
    to the kernel at target n summed over the histogram, for every n; over
    (L-1)! that is the congruence sum at every n of the histogram's class.

    This is the one expansion of the kernel.  Over D^(L-1) the kernel at
    S is the double sum sum_{m<=k<L} (-1)^(k-m) c(L, k+1) C(k, m) S^(k-m)
    n^m D^(L-1-k); summed over the histogram, with e = k - m, it gives
    q_m = sum_e (-1)^e M_e c(L, m+e+1) C(m+e, e) D^(L-1-m-e) over the
    power moments M_e = sum mass * S^e (Sylvester's wave of the residue
    class as a quasi-polynomial in n).  The target of kernel is not read.
    """
    length, d, table = kernel.length, kernel.modulus, kernel.table
    # (-1)^e M_e = sum mass * (-S)^e, for e < L.
    moments = [0] * length
    for sw, mass in hist.items():
        sw = -sw
        for e in range(length):
            moments[e] += mass
            mass *= sw
    dpow = [d**i for i in range(length)]
    return [
        sum(
            moments[e] * table[m + e] * math.comb(m + e, e) * dpow[length - 1 - m - e]
            for e in range(length - m)
        )
        for m in range(length)
    ]


def _evaluate(poly: list[int], kernel: StirlingKernel, n: int) -> int:
    """sum_m poly[m] n^m / ((L-1)! D^(L-1)), with L and D those of kernel;
    the quotient is asserted to be an integer."""
    scaled = _horner(poly, n)
    scale = math.factorial(kernel.length - 1) * kernel.modulus ** (kernel.length - 1)
    total, rest = divmod(scaled, scale)
    if rest:
        raise ArithmeticError(f"formula sum is not an integer: {scaled}/{scale}")
    return total


def _horner(poly: list[int], n: int) -> int:
    """sum_m poly[m] n^m by Horner's rule."""
    value = 0
    for q in reversed(poly):
        value = value * n + q
    return value


def _packed_product(box: CongruenceBox, coeff_tables: tuple[tuple[int, ...] | None, ...]):
    """The histogram of weighted sums over the whole box, every residue
    class at once: a reader that returns the class of a residue mod the
    box's modulus as {S: mass}, nonzero masses only.  The box's own residue
    is not read.

    Coordinate t is the polynomial sum_{v <= bounds[t]} coeff_tables[t][v]
    z^(weights[t] v), with a None table read as all ones, and the product
    of these is the histogram.  The product is one big-int multiply per
    coordinate by Kronecker substitution: coefficient k of a factor sits in
    bytes [k w, (k+1) w) of one int.  Every coefficient is >= 0 and at most
    the product of the table sums, so w bytes that hold that bound never
    carry into the next slot.  The product holds 1 + sum weights[t]
    bounds[t] slots of w bytes; it is priced (_check_product) before any
    factor is built.
    """
    if len(coeff_tables) != len(box.bounds):
        raise ValueError("need one coefficient table per coordinate")
    slots = 1 + sum(w * b for w, b in zip(box.weights, box.bounds))
    bound = math.prod(b + 1 if t is None else sum(t[: b + 1]) for t, b in zip(coeff_tables, box.bounds))
    width = (bound.bit_length() + 7) // 8
    _check_product(slots, width)
    product = 1
    for weight, table, b in zip(box.weights, coeff_tables, box.bounds):
        gap = bytes(width * (weight - 1))
        coefficients = (1,) * (b + 1) if table is None else table[: b + 1]
        product *= int.from_bytes(gap.join(c.to_bytes(width, "little") for c in coefficients), "little")
    data = product.to_bytes(slots * width, "little")

    def histogram(residue: int) -> dict[int, int]:
        hist = {}
        for sw in range(residue, slots, box.modulus):
            mass = int.from_bytes(data[sw * width : (sw + 1) * width], "little")
            if mass:
                hist[sw] = mass
        return hist

    return histogram


def _check_product(slots: int, width: int) -> None:
    """Refuse a packed product of more than DEFAULT_PRODUCT_LIMIT bytes."""
    size = slots * width
    if size > DEFAULT_PRODUCT_LIMIT:
        raise CostGuardExceeded(
            f"packed product has {size} bytes ({slots} slots of {width}),"
            f" above the limit of {DEFAULT_PRODUCT_LIMIT}"
        )


def _regrouped_count(quantity: str, n: int, r: int | None = None) -> int:
    """The family's congruence sum at (n, r): the generic sum over its
    pattern, read at n off one packed product.  The range and FAMILY_REACH
    are checked before the pattern is built."""
    stated_family(quantity, "stirling", n, r)
    if n > FAMILY_REACH:
        raise CostGuardExceeded(f"family Stirling sums reach only n <= {FAMILY_REACH}")
    box, kernel, tables = generic_setup(pattern(quantity, n, r, None), n)
    return _evaluate(_polynomial(kernel, _packed_product(box, tables)(box.residue)), kernel, n)


def pp_stirling(n: int) -> int:
    """pp(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["pp"])."""
    return _regrouped_count("pp", n)


def ppr_stirling(n: int, r: int) -> int:
    """pp_r(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["pp_r"])."""
    return _regrouped_count("pp_r", n, r)


def pps_stirling(n: int) -> int:
    """pps(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["pps"])."""
    return _regrouped_count("pps", n)


def ppso_stirling(n: int) -> int:
    """ppso(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["ppso"])."""
    return _regrouped_count("ppso", n)


def multipartition_stirling(n: int, r: int) -> int:
    """P_r(n) by the regrouped congruence sum (valid in the stated range of
    FAMILIES["P_r"])."""
    return _regrouped_count("P_r", n, r)
