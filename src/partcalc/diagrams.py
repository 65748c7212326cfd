"""Oracle #2: exhaustive enumeration of plane-partition arrays for small n.

A diagram is stored in canonical form (no zero padding): a tuple of rows,
each row a nonempty tuple of positive integers, rows and columns weakly
decreasing.  Enumeration is deterministic: diagrams appear in decreasing
lexicographic order of their row-reading.

One walk counts every kind: it builds each stack of rows of weight <= top
as a prefix of a longer one, and tallies the stacks from a lowest weight
on, by kind and by number of rows.  diagram_counts tallies only weight n,
and diagram_count_row every weight to its top.  enumerate_diagrams lists
the stacks of n directly.  Both are direct; neither shares a weight
pattern with the oracles they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from . import series
from .series import CostGuardExceeded, count_to_limit

# Listing or counting to n is refused with CostGuardExceeded when the stacks
# it visits, the plane partitions of weight 1..n, are more than this; read
# at call time.  It admits n <= 20.
ENUMERATION_LIMIT = 2 * 10**5

KINDS = ("all", "max_rows", "strict", "symmetric", "strict_odd")

Rows = tuple[tuple[int, ...], ...]


def _transpose(rows: Rows) -> Rows:
    return tuple(tuple(row[j] for row in rows if j < len(row)) for j in range(len(rows[0])))


def _is_strict(rows: Rows) -> bool:
    # Rows weakly decrease, so a row is strict when no entry repeats.
    return all(len(set(row)) == len(row) for row in rows)


def _is_odd(rows: Rows) -> bool:
    return all(v & 1 for row in rows for v in row)


def _is_symmetric(rows: Rows) -> bool:
    # The first row against the first column rejects most diagrams cheaply.
    return (
        len(rows) == len(rows[0])
        and rows[0] == tuple(row[0] for row in rows)
        and rows == _transpose(rows)
    )


@dataclass(frozen=True)
class PlanePartitionDiagram:
    rows: Rows

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
        return PlanePartitionDiagram(_transpose(self.rows))

    def is_strict(self) -> bool:
        """Nonzero entries strictly decrease along every row."""
        return _is_strict(self.rows)

    def is_symmetric(self) -> bool:
        return _is_symmetric(self.rows)

    def has_odd_entries(self) -> bool:
        return _is_odd(self.rows)


def _dominated_rows(bound: tuple[int, ...] | None, budget: int) -> list[tuple[int, ...]]:
    """Nonempty weakly decreasing rows with sum <= budget, entrywise below bound.

    bound=None means a free first row (width limited only by the budget).
    Rows are listed in decreasing lexicographic order: all extensions of a
    prefix come before the bare prefix itself.
    """
    out: list[tuple[int, ...]] = []
    _fill_rows((), budget, budget, bound, budget if bound is None else len(bound), out)
    return out


def _fill_rows(prefix, remaining, prev, bound, width, out) -> None:
    # A module function rather than a closure, which would be a reference cycle.
    idx = len(prefix)
    if idx < width and remaining > 0:
        cap = prev if bound is None else min(prev, bound[idx])
        for v in range(min(cap, remaining), 0, -1):
            _fill_rows(prefix + (v,), remaining - v, v, bound, width, out)
    if prefix:
        out.append(prefix)


def _stacks(prefix: Rows, remaining: int, prev_row: tuple[int, ...] | None) -> Iterator[Rows]:
    """prefix followed by every stack of rows that completes it to a plane
    partition, remaining being left to place under prev_row."""
    if remaining == 0:
        yield prefix
        return
    for row in _dominated_rows(prev_row, remaining):
        yield from _stacks(prefix + (row,), remaining - sum(row), row)


def _stacks_to(n: int) -> int:
    """The plane partitions of weight 1..n, off one series row."""
    return sum(series.oracle_row("pp", n, backend="series")) - 1


def _check_listing(n: int) -> None:
    """Refuse n < 1, or more than ENUMERATION_LIMIT plane partitions of
    weight 1..n (the stacks a listing or a walk to n visits), before any
    row is read."""
    if n < 1:
        raise ValueError("plane partitions are listed for n >= 1")
    # pp(k) <= 3^(k-1): the entries read row by row are a composition of k
    # into L parts, the row ends a subset of its L - 1 gaps, and
    # sum_L C(k-1, L-1) 2^(L-1) = 3^(k-1).  So the stacks to n are at most
    # (3^n - 1)/2, and below that bound no row is read.
    if n > 64 or (3**n - 1) // 2 > ENUMERATION_LIMIT:
        count = count_to_limit(_stacks_to, n, ENUMERATION_LIMIT)[1]
        if count > ENUMERATION_LIMIT:
            raise CostGuardExceeded(
                f"n = {n} has at least {count} plane partitions of weight 1..n,"
                f" above the enumeration limit ({ENUMERATION_LIMIT})"
            )


def enumerate_diagrams(n: int) -> tuple[PlanePartitionDiagram, ...]:
    """All plane partitions of n, each exactly once, in deterministic order.

    Raises CostGuardExceeded as _check_listing(n) does.
    """
    _check_listing(n)
    return tuple(PlanePartitionDiagram(rows) for rows in _stacks((), n, None))


def _check_kind(kind: str, r: int | None) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown diagram kind {kind!r}")
    if kind == "max_rows" and (r is None or r < 1):
        raise ValueError("kind 'max_rows' requires r >= 1")


@dataclass(frozen=True)
class DiagramCounts:
    """The plane partitions of one n, counted by kind.  max_rows[r] counts
    those with at most r rows, for r = 0..n."""

    all: int
    strict: int
    symmetric: int
    strict_odd: int
    max_rows: tuple[int, ...]

    def count(self, kind: str, r: int | None = None) -> int:
        _check_kind(kind, r)
        if kind == "max_rows":
            return self.max_rows[min(r, len(self.max_rows) - 1)]
        return getattr(self, kind)


def diagram_counts(n: int) -> DiagramCounts:
    """Every kind's count of the plane partitions of n, from one walk that
    tallies only the stacks of weight n; no diagram object is built."""
    return _count_walk(n, n)[0]


def diagram_count_row(top: int) -> list[DiagramCounts]:
    """diagram_counts(n) for n = 0..top, the empty diagram at n = 0, from one
    walk that tallies each stack of rows at its own weight."""
    return [DiagramCounts(1, 1, 1, 1, (1,))] + _count_walk(top, 1)


def _count_walk(top: int, low: int) -> list[DiagramCounts]:
    """The counts at n = low..top, 1 <= low <= top, from one walk to top
    behind the guard on top."""
    _check_listing(top)
    # tallies[n]: strict, symmetric and strict_odd, then the count by rows 0..n.
    tallies = [[0] * (n + 4) for n in range(top + 1)]
    _tally((), 0, None, True, tallies, low)
    return [DiagramCounts(sum(t[3:]), *t[:3], tuple(accumulate(t[3:]))) for t in tallies[low:]]


def _tally(prefix: Rows, weight: int, prev_row, strict: bool, tallies, low: int) -> None:
    """Tally every stack that extends prefix (of weight, its rows strict when
    strict) by rows under prev_row, at its weight from low up to
    len(tallies) - 1.  A module function rather than a closure, which would
    be a reference cycle."""
    top = len(tallies) - 1
    for row in _dominated_rows(prev_row, top - weight):
        rows, w = prefix + (row,), weight + sum(row)
        strict_rows = strict and len(set(row)) == len(row)
        if w >= low:
            tally = tallies[w]
            tally[0] += strict_rows
            tally[1] += _is_symmetric(rows)
            tally[2] += strict_rows and _is_odd(rows)
            tally[3 + len(rows)] += 1
        if w < top:
            _tally(rows, w, row, strict_rows, tallies, low)


def count_diagrams(n: int, kind: str = "all", *, r: int | None = None) -> int:
    """Count plane partitions of n of the given kind (at most r rows for
    max_rows)."""
    _check_kind(kind, r)
    return diagram_counts(n).count(kind, r)
