"""Weight sequences for the counting families.

Each counting family is determined by how many times part k may repeat.
FAMILIES states that multiplicity pattern once per family, with the range in
which the paper states its theorem and Stirling sums and the diagram kind
that enumerates the family.

pattern(quantity, bound, r, parts) is the one place that turns a quantity
into its multiplicities: increasing (part, multiplicity) pairs, every
multiplicity at least 1, for the family's parts 1..bound or the runs of the
sorted parts of p_a.  Every route reads them: the DP and the Stirling setup
the pairs, the series and the theorem walk their dense view, the
WeightFunction of quantity_weights.

The ppso pattern (1 for odd k, k/2 for even k) is the odd-part/half-even
weighted count, not the generating function of symmetric plane partitions.
Those are counted by spp_multiplicity: 1 for odd k and floor(j/2) for k = 2j,
the Gordon / Bender-Knuth product (OEIS A005987).  spp has a zero at k = 2,
which its pairs drop and its dense view keeps as a 0.  spp is not yet a
quantity, so it has no FAMILIES entry.  A wrapper called outside its
family's stated range raises HypothesisError (stated_family).

A WeightSequence is the expanded part list (multiplicities explicit); a
WeightFunction is the dense part -> multiplicity view on 1..bound.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from itertools import groupby


class Value:
    """A value type: its fields are its __slots__, set in __init__ and never
    changed after; instances compare, hash and print by those fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._fields() == self._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Family(Value):
    """A counting family: its multiplicity pattern, stated range and diagram kind.

    multiplicity(k, r) is the number of times part k repeats.  The theorem and
    Stirling sums are stated for n >= min_n and, when the pattern takes r,
    for 2 <= r < n.  diagram names the `diagrams` kind that enumerates the
    family, or is None when no predicate does.  stem names the family's
    wrappers formulas.<stem>_formula and stirling.<stem>_stirling; p has none.
    """

    __slots__ = ("multiplicity", "min_n", "takes_r", "diagram", "stem")

    def __init__(
        self,
        multiplicity: Callable[[int, int | None], int],
        min_n: int,
        takes_r: bool = False,
        diagram: str | None = None,
        stem: str | None = None,
    ) -> None:
        self.multiplicity = multiplicity
        self.min_n = min_n
        self.takes_r = takes_r
        self.diagram = diagram
        self.stem = stem

    def holds(self, n: int, r: int | None = None) -> bool:
        """Whether (n, r) lies in the stated range."""
        return n >= self.min_n and (not self.takes_r or 2 <= r < n)

    @property
    def stated_range(self) -> str:
        return f"n >= {self.min_n}" + (" and 2 <= r < n" if self.takes_r else "")


FAMILIES = {
    "p": Family(lambda k, r: 1, min_n=1, diagram="max_rows"),
    "pp": Family(lambda k, r: k, min_n=3, diagram="all", stem="pp"),
    "pp_r": Family(lambda k, r: min(k, r), min_n=3, takes_r=True, diagram="max_rows", stem="ppr"),
    "pps": Family(lambda k, r: (k + 1) // 2, min_n=3, diagram="strict", stem="pps"),
    "ppso": Family(lambda k, r: 1 if k % 2 else k // 2, min_n=3, stem="ppso"),
    "P_r": Family(lambda k, r: r, min_n=4, takes_r=True, stem="multipartition"),
}

QUANTITIES = (*FAMILIES, "p_a")

# Quantities whose weight pattern needs the extra parameter r.
R_QUANTITIES = tuple(q for q, family in FAMILIES.items() if family.takes_r)


class HypothesisError(ValueError):
    """An evaluator was called outside its validity range."""


def stated_family(quantity: str, kind: str, n: int, r: int | None = None) -> Family:
    """FAMILIES[quantity], or HypothesisError naming the wrapper
    <stem>_<kind> when (n, r) lies outside the family's stated range."""
    family = FAMILIES[quantity]
    if not family.holds(n, r):
        raise HypothesisError(f"{family.stem}_{kind} requires {family.stated_range}")
    return family


def spp_multiplicity(k: int) -> int:
    """Symmetric plane partitions: 1 for odd k, floor(j/2) for k = 2j."""
    return 1 if k % 2 else k // 4


class WeightSequence(Value):
    """Nondecreasing list of positive integer parts, multiplicities explicit."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        if not parts:
            raise ValueError("WeightSequence needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(a > b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be nondecreasing")
        self.parts = parts

    @classmethod
    def from_parts(cls, parts) -> "WeightSequence":
        return cls(tuple(sorted(parts)))

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def lcm(self) -> int:
        return math.lcm(*self.parts)


class WeightFunction(Value):
    """Part -> multiplicity map on 1..bound; weights[k-1] is the multiplicity of k."""

    __slots__ = ("bound", "weights")

    def __init__(self, bound: int, weights: tuple[int, ...]) -> None:
        if bound < 1:
            raise ValueError("WeightFunction requires bound >= 1")
        if len(weights) != bound:
            raise ValueError("need one weight per part in 1..bound")
        if min(weights) < 0:
            raise ValueError("weights must be nonnegative")
        self.bound = bound
        self.weights = weights

    def __call__(self, k: int) -> int:
        if 1 <= k <= self.bound:
            return self.weights[k - 1]
        return 0

    def expand(self) -> WeightSequence:
        parts = []
        for k in range(1, self.bound + 1):
            parts.extend([k] * self.weights[k - 1])
        return WeightSequence(tuple(parts))


def seq_pp(n: int) -> WeightSequence:
    """(1, 2, 2, 3, 3, 3, ..., n repeated n times)."""
    if n < 1:
        raise ValueError("seq_pp requires n >= 1")
    return quantity_sequence("pp", n)


def seq_pp_r(n: int, r: int) -> WeightSequence:
    """Part k repeated min(k, r) times."""
    if n < 1 or r < 1:
        raise ValueError("seq_pp_r requires n >= 1 and r >= 1")
    return quantity_sequence("pp_r", n, r)


def seq_strict(n: int) -> WeightSequence:
    """Part k repeated floor((k+1)/2) times."""
    if n < 1:
        raise ValueError("seq_strict requires n >= 1")
    return quantity_sequence("pps", n)


def seq_symmetric(n: int) -> WeightSequence:
    """Part k repeated once for odd k and k/2 times for even k (the ppso pattern).

    Despite the name, this is not the weight sequence of symmetric plane
    partitions; that pattern is spp_multiplicity.
    """
    if n < 1:
        raise ValueError("seq_symmetric requires n >= 1")
    return quantity_sequence("ppso", n)


def seq_multipartition(n: int, r: int) -> WeightSequence:
    """Every part 1..n repeated r times."""
    if n < 1 or r < 1:
        raise ValueError("seq_multipartition requires n >= 1 and r >= 1")
    return quantity_sequence("P_r", n, r)


# A request's guard and its routes read one listing of its pattern; callers
# pass all four arguments, so that they share one cache key.  It holds what
# two caches of 16 held before, the families' patterns and the runs of p_a.
@functools.lru_cache(maxsize=32)
def pattern(
    quantity: str, bound: int, r: int | None = None, parts: tuple[int, ...] | None = None
) -> tuple[tuple[int, int], ...]:
    """(part, multiplicity) pairs of quantity, increasing in part, each
    multiplicity at least 1: the family's parts 1..bound, or for p_a the runs
    of the sorted parts, all of them whatever bound is."""
    if quantity == "p_a":
        if not parts or min(parts) < 1:
            raise ValueError("quantity 'p_a' requires positive parts")
        return tuple([(k, len(list(copies))) for k, copies in groupby(sorted(parts))])
    family = FAMILIES.get(quantity)
    if family is None:
        raise ValueError(f"no multiplicity pattern for quantity {quantity!r}")
    if family.takes_r and r is None:
        raise ValueError(f"quantity {quantity!r} requires r")
    multiplicity = family.multiplicity
    return tuple([(k, m) for k in range(1, bound + 1) if (m := multiplicity(k, r))])


# The series and the theorem walk index one dense view per (quantity, bound).
@functools.lru_cache(maxsize=32)
def quantity_weights(
    quantity: str, bound: int, r: int | None = None, parts: tuple[int, ...] | None = None
) -> WeightFunction:
    """pattern(quantity, bound, r, parts) on the parts 1..bound, 0 where a
    part is missing."""
    if bound < 1:
        raise ValueError("quantity_weights requires bound >= 1")
    pairs = pattern(quantity, bound, r, parts)
    weights = [0] * bound
    for k, m in pairs:
        if k <= bound:
            weights[k - 1] = m
    return WeightFunction(bound, tuple(weights))


def quantity_sequence(quantity: str, n: int, r: int | None = None) -> WeightSequence:
    return quantity_weights(quantity, n, r, None).expand()
