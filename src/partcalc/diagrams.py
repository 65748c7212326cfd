"""Oracle #2: exhaustive enumeration of plane-partition arrays for small n.

A diagram is stored in canonical form (no zero padding): a tuple of rows,
each row a nonempty tuple of positive integers, rows and columns weakly
decreasing.  Enumeration is deterministic: diagrams appear in decreasing
lexicographic order of their row-reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .formulas import CostGuardExceeded

DEFAULT_ENUMERATION_CAP = 10

KINDS = ("all", "max_rows", "strict", "symmetric", "strict_odd")


@dataclass(frozen=True)
class PlanePartitionDiagram:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or any(not row for row in self.rows):
            raise ValueError("diagram needs at least one nonempty row")
        for row in self.rows:
            if any(v < 1 for v in row):
                raise ValueError("entries must be positive")
            if any(a < b for a, b in zip(row, row[1:])):
                raise ValueError("rows must be weakly decreasing")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must be weakly decreasing")
            if any(lower[j] > upper[j] for j in range(len(lower))):
                raise ValueError("columns must be weakly decreasing")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.rows)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def transpose(self) -> "PlanePartitionDiagram":
        width = len(self.rows[0])
        cols = []
        for j in range(width):
            col = tuple(row[j] for row in self.rows if j < len(row))
            cols.append(col)
        return PlanePartitionDiagram(tuple(cols))

    def is_strict(self) -> bool:
        """Nonzero entries strictly decrease along every row."""
        return all(all(a > b for a, b in zip(row, row[1:])) for row in self.rows)

    def is_symmetric(self) -> bool:
        return self.rows == self.transpose().rows

    def has_odd_entries(self) -> bool:
        return all(v % 2 for row in self.rows for v in row)


def _dominated_rows(bound: tuple[int, ...] | None, budget: int) -> Iterator[tuple[int, ...]]:
    """Nonempty weakly decreasing rows with sum <= budget, entrywise below bound.

    bound=None means a free first row (width limited only by the budget).
    Rows are produced in decreasing lexicographic order: all extensions of a
    prefix come before the bare prefix itself.
    """
    width = budget if bound is None else len(bound)

    def rec(prefix: tuple[int, ...], remaining: int, prev: int, idx: int) -> Iterator[tuple[int, ...]]:
        if idx < width and remaining > 0:
            cap = prev if bound is None else min(prev, bound[idx])
            for v in range(min(cap, remaining), 0, -1):
                yield from rec(prefix + (v,), remaining - v, v, idx + 1)
        if prefix:
            yield prefix

    yield from rec((), budget, budget, 0)


def _stacks(remaining: int, prev_row: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if remaining == 0:
        yield ()
        return
    for row in _dominated_rows(prev_row, remaining):
        for rest in _stacks(remaining - sum(row), row):
            yield (row,) + rest


def _first_rows(n: int) -> list[tuple[int, ...]]:
    return list(_dominated_rows(None, n))


def enumerate_diagrams(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[PlanePartitionDiagram, ...]:
    """All plane partitions of n, each exactly once, in deterministic order.

    Raises CostGuardExceeded when n is above cap.
    """
    if n < 1:
        raise ValueError("enumerate_diagrams requires n >= 1")
    if n > cap:
        raise CostGuardExceeded(f"n = {n} exceeds the enumeration cap ({cap})")
    out = []
    for first in _first_rows(n):
        for rest in _stacks(n - sum(first), first):
            out.append(PlanePartitionDiagram((first,) + rest))
    return tuple(out)


def _predicate(kind: str, r: int | None):
    if kind == "all":
        return lambda d: True
    if kind == "max_rows":
        if r is None or r < 1:
            raise ValueError("kind 'max_rows' requires r >= 1")
        return lambda d: d.row_count <= r
    if kind == "strict":
        return lambda d: d.is_strict()
    if kind == "symmetric":
        return lambda d: d.is_symmetric()
    if kind == "strict_odd":
        return lambda d: d.is_strict() and d.has_odd_entries()
    raise ValueError(f"unknown diagram kind {kind!r}")


def count_diagrams(
    n: int,
    kind: str = "all",
    *,
    r: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """Count plane partitions of n passing the predicate."""
    keep = _predicate(kind, r)
    return sum(1 for diagram in enumerate_diagrams(n, cap) if keep(diagram))
