from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from partcalc import diagrams
from partcalc.diagrams import (
    KINDS,
    DiagramCounts,
    PlanePartitionDiagram,
    count_diagrams,
    diagram_count_row,
    diagram_counts,
    enumerate_diagrams,
)
from partcalc.cli import EXIT_COST, main
from partcalc.formulas import CostGuardExceeded
from partcalc.series import oracle_value

# Symmetric plane partitions by weight, n = 1..16 (OEIS A005987).
SYMMETRIC_COUNTS = (1, 1, 2, 3, 4, 6, 8, 12, 16, 22, 29, 41, 53, 71, 93, 125)


def test_diagram_validation():
    PlanePartitionDiagram(((3, 1), (1,)))
    with pytest.raises(ValueError):
        PlanePartitionDiagram(())
    with pytest.raises(ValueError):
        PlanePartitionDiagram(((0,),))
    with pytest.raises(ValueError):
        PlanePartitionDiagram(((1, 2),))  # row increases
    with pytest.raises(ValueError):
        PlanePartitionDiagram(((1,), (2,)))  # column increases
    with pytest.raises(ValueError):
        PlanePartitionDiagram(((1,), (1, 1)))  # lower row longer


def test_total_and_row_count():
    d = PlanePartitionDiagram(((3, 2), (2, 1), (1,)))
    assert d.total == 9
    assert d.row_count == 3


def test_transpose_involution_and_symmetry():
    d = PlanePartitionDiagram(((2, 1), (1,)))
    assert d.transpose().rows == d.rows
    assert d.is_symmetric()
    e = PlanePartitionDiagram(((2, 2),))
    assert e.transpose().rows == ((2,), (2,))
    assert not e.is_symmetric()
    assert e.transpose().transpose().rows == e.rows


def test_predicates():
    assert PlanePartitionDiagram(((3, 1),)).is_strict()
    assert not PlanePartitionDiagram(((2, 2),)).is_strict()
    assert PlanePartitionDiagram(((3, 1), (1,))).has_odd_entries()
    assert not PlanePartitionDiagram(((2, 1),)).has_odd_entries()


def test_enumeration_order_n3():
    got = [d.rows for d in enumerate_diagrams(3)]
    assert got == [
        ((3,),),
        ((2, 1),),
        ((2,), (1,)),
        ((1, 1, 1),),
        ((1, 1), (1,)),
        ((1,), (1,), (1,)),
    ]


def test_enumeration_bounds(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_diagrams(0)
    # Below 3^(n-1), a bound of pp(n), the guard reads no series row.
    assert all(oracle_value("pp", n) <= 3 ** (n - 1) for n in range(1, 30))
    # pp(21) = 118,794: the guard compares the limit with the diagram count.
    monkeypatch.setattr(diagrams, "ENUMERATION_LIMIT", 118_794)
    assert count_diagrams(21) == 118_794
    monkeypatch.setattr(diagrams, "ENUMERATION_LIMIT", 118_793)
    with pytest.raises(CostGuardExceeded):
        count_diagrams(21)


def test_enumeration_cap_is_a_cost_guard_refusal(capsys, listings):
    assert oracle_value("pp", 20) == 75_278 <= diagrams.ENUMERATION_LIMIT
    # n = 10^12 is refused before anything the size of n is allocated.
    for n in (21, 10**12):
        with pytest.raises(CostGuardExceeded):
            enumerate_diagrams(n)
        with pytest.raises(CostGuardExceeded):
            count_diagrams(n)
        with pytest.raises(CostGuardExceeded):
            diagram_counts(n)
    for n in ("21", "1000000", str(10**12)):
        argv = ["compute", "--quantity", "pp", "--n", n, "--method", "oracle-enum"]
        assert main(argv) == EXIT_COST
        assert "enumeration limit" in capsys.readouterr().err
    assert listings == []


@given(st.integers(1, 8))
def test_enumeration_is_exact_and_exhaustive(n):
    diagrams = enumerate_diagrams(n)
    assert len(set(diagrams)) == len(diagrams)
    assert all(d.total == n for d in diagrams)
    assert len(diagrams) == oracle_value("pp", n)


@given(st.integers(1, 12))
def test_counts_match_series_oracle(n):
    assert count_diagrams(n, "all") == oracle_value("pp", n)
    assert count_diagrams(n, "strict") == oracle_value("pps", n)
    # r = n + 1 has more rows than any diagram of n: pp_r is pp there.
    for r in range(1, n + 2):
        assert count_diagrams(n, "max_rows", r=r) == oracle_value("pp_r", n, r=r)


def test_one_listing_counts_every_kind(listings):
    for n in range(1, 9):
        counts = diagram_counts(n)
        for kind in KINDS:
            counts.count(kind, r=n)
    assert listings == list(range(1, 9))


def test_max_rows_r1_is_ordinary_partitions():
    for n in range(1, 13):
        assert count_diagrams(n, "max_rows", r=1) == oracle_value("p", n)


def test_symmetric_counts():
    got = tuple(count_diagrams(n, "symmetric") for n in range(1, 17))
    assert got == SYMMETRIC_COUNTS


def test_symmetric_equals_strict_odd():
    for n in range(1, 17):
        counts = diagram_counts(n)
        assert counts.symmetric == counts.strict_odd


def test_transpose_closes_enumeration():
    for n in range(1, 7):
        diagrams = set(enumerate_diagrams(n))
        assert {d.transpose() for d in diagrams} == diagrams


def test_count_argument_errors():
    with pytest.raises(ValueError):
        count_diagrams(3, "max_rows")  # r missing
    with pytest.raises(ValueError):
        count_diagrams(3, "nope")
    with pytest.raises(ValueError):
        count_diagrams(0)


def test_kinds_tuple():
    assert set(KINDS) == {"all", "max_rows", "strict", "symmetric", "strict_odd"}


def test_one_walk_counts_every_n_to_its_top(listings):
    row = diagram_count_row(12)
    assert listings == [12]
    assert row[0] == DiagramCounts(1, 1, 1, 1, (1,))  # the empty diagram
    for n in range(1, 13):
        counts = diagram_counts(n)
        assert row[n] == counts
        for kind in KINDS:
            for r in range(1, n + 2) if kind == "max_rows" else (None,):
                assert row[n].count(kind, r) == counts.count(kind, r), (n, kind, r)


def test_count_row_guard_is_on_its_top(listings):
    with pytest.raises(CostGuardExceeded):
        diagram_count_row(21)
    with pytest.raises(ValueError):
        diagram_count_row(0)
    assert listings == []
