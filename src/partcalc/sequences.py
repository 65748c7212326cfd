"""Weight sequences for the counting families.

Each counting family is determined by how many times part k may repeat.
FAMILIES states that multiplicity pattern once per family, with the range in
which the paper states its theorem and Stirling sums and the diagram kind
that enumerates the family.

The ppso pattern (1 for odd k, k/2 for even k) is the odd-part/half-even
weighted count, not the generating function of symmetric plane partitions.
Those are counted by spp_multiplicity: 1 for odd k and floor(j/2) for k = 2j,
the Gordon / Bender-Knuth product (OEIS A005987).  spp has a zero at k = 2,
which WeightFunction keeps and WeightFunction.expand drops.  spp is not yet a
quantity, so it has no FAMILIES entry.

A WeightSequence is the expanded part list (multiplicities explicit); a
WeightFunction is the compressed part -> multiplicity view on 1..bound.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable


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

    def pattern(self, bound: int, r: int | None = None) -> list[int]:
        """Multiplicities of the parts 1..bound."""
        return [self.multiplicity(k, r) for k in range(1, bound + 1)]


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
        if any(w < 0 for w in weights):
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


# An oracle's guard and the oracle itself read one listing of the pattern.
@functools.lru_cache(maxsize=16)
def quantity_weights(quantity: str, bound: int, r: int | None = None) -> WeightFunction:
    if bound < 1:
        raise ValueError("quantity_weights requires bound >= 1")
    family = FAMILIES.get(quantity)
    if family is None:
        raise ValueError(f"no multiplicity pattern for quantity {quantity!r}")
    if family.takes_r and r is None:
        raise ValueError(f"quantity {quantity!r} requires r")
    return WeightFunction(bound, tuple(family.pattern(bound, r)))


def quantity_sequence(quantity: str, n: int, r: int | None = None) -> WeightSequence:
    return quantity_weights(quantity, n, r).expand()
