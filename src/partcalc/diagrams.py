"""Oracle #2: exhaustive enumeration of plane-partition arrays for small n.

A diagram is stored in canonical form (no zero padding): a tuple of rows,
each row a nonempty tuple of positive integers, rows and columns weakly
decreasing.  Enumeration is deterministic: diagrams appear in decreasing
lexicographic order of their row-reading.

One listing of the raw row tuples of n serves every kind: diagram_counts
walks it once and counts each kind, and each r, from it.  Listing n visits
every plane partition of weight <= n as a prefix of its rows, so
diagram_count_row counts every n to a top from one walk.  The listing is a
direct one; it shares no weight pattern with the oracles it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from . import series
from .formulas import CostGuardExceeded, count_to_limit

# Listing n is refused with CostGuardExceeded when pp(n), the number of its
# diagrams, is above this; read at call time.  It admits n <= 20.
ENUMERATION_LIMIT = 10**5

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


def _pp(n: int) -> int:
    return series.oracle_value("pp", n, backend="series")


def _plane_partitions(n: int) -> Iterator[Rows]:
    """Every plane partition of n as its tuple of rows, once each, in
    deterministic order.  n and the guard are checked on the call, before
    anything is listed."""
    _check_listing(n)
    return _stacks((), n, None)


def _check_listing(n: int) -> None:
    """Refuse n < 1, or pp(n) above ENUMERATION_LIMIT, before any row is read."""
    if n < 1:
        raise ValueError("plane partitions are listed for n >= 1")
    # pp(n) <= 3^(n-1): the entries read row by row are a composition of n
    # into L parts, the row ends a subset of its L - 1 gaps, and
    # sum_L C(n-1, L-1) 2^(L-1) = 3^(n-1).  Below that bound no row is read.
    if n > 64 or 3 ** (n - 1) > ENUMERATION_LIMIT:
        count = count_to_limit(_pp, n, ENUMERATION_LIMIT)[1]
        if count > ENUMERATION_LIMIT:
            raise CostGuardExceeded(
                f"n = {n} has at least {count} plane partitions, above the "
                f"enumeration limit ({ENUMERATION_LIMIT})"
            )


def enumerate_diagrams(n: int) -> tuple[PlanePartitionDiagram, ...]:
    """All plane partitions of n, each exactly once, in deterministic order.

    Raises CostGuardExceeded when pp(n) is above ENUMERATION_LIMIT.
    """
    return tuple(PlanePartitionDiagram(rows) for rows in _plane_partitions(n))


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
    """Every kind's count of the plane partitions of n, from one listing of
    their raw rows; no diagram object is built."""
    listing = _plane_partitions(n)  # the guard runs here, before any allocation
    strict = symmetric = strict_odd = 0
    by_rows = [0] * (n + 1)
    for rows in listing:
        by_rows[len(rows)] += 1
        if _is_strict(rows):
            strict += 1
            strict_odd += _is_odd(rows)
        symmetric += _is_symmetric(rows)
    max_rows = tuple(accumulate(by_rows))
    return DiagramCounts(max_rows[-1], strict, symmetric, strict_odd, max_rows)


def diagram_count_row(top: int) -> list[DiagramCounts]:
    """diagram_counts(n) for n = 0..top, the empty diagram at n = 0, from one
    walk that tallies each stack of rows at its own weight; the guard is on top."""
    _check_listing(top)
    # tallies[n]: strict, symmetric and strict_odd, then the count by rows 0..n.
    tallies = [[1, 1, 1, 1]] + [[0] * (n + 4) for n in range(1, top + 1)]
    _tally((), 0, None, True, tallies)
    return [DiagramCounts(sum(t[3:]), *t[:3], tuple(accumulate(t[3:]))) for t in tallies]


def _tally(prefix: Rows, weight: int, prev_row, strict: bool, tallies) -> None:
    """Tally every stack that extends prefix (of weight, its rows strict when
    strict) by rows under prev_row, at its weight up to len(tallies) - 1.  A
    module function rather than a closure, which would be a reference cycle."""
    for row in _dominated_rows(prev_row, len(tallies) - 1 - weight):
        rows, w = prefix + (row,), weight + sum(row)
        strict_rows = strict and len(set(row)) == len(row)
        tally = tallies[w]
        tally[0] += strict_rows
        tally[1] += _is_symmetric(rows)
        tally[2] += strict_rows and _is_odd(rows)
        tally[3 + len(rows)] += 1
        if w < len(tallies) - 1:
            _tally(rows, w, row, strict_rows, tallies)


def count_diagrams(n: int, kind: str = "all", *, r: int | None = None) -> int:
    """Count plane partitions of n of the given kind (at most r rows for
    max_rows)."""
    _check_kind(kind, r)
    return diagram_counts(n).count(kind, r)
