from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from partcalc import formulas, series, stirling
from partcalc.combinat import lcm_range
from partcalc.diagrams import diagram_count_row
from partcalc.sequences import (
    FAMILIES,
    Family,
    WeightFunction,
    WeightSequence,
    pattern,
    quantity_sequence,
    quantity_weights,
    seq_multipartition,
    seq_pp,
    seq_pp_r,
    seq_strict,
    seq_symmetric,
    spp_multiplicity,
)


def test_seq_pp():
    assert seq_pp(3).parts == (1, 2, 2, 3, 3, 3)
    assert seq_pp(1).parts == (1,)
    assert seq_pp(4).length == 10
    with pytest.raises(ValueError):
        seq_pp(0)


@given(st.integers(1, 12))
def test_seq_pp_length_and_lcm(n):
    a = seq_pp(n)
    assert a.length == n * (n + 1) // 2
    assert a.lcm == lcm_range(n)


def test_seq_pp_r():
    assert seq_pp_r(3, 2).parts == (1, 2, 2, 3, 3)
    assert seq_pp_r(3, 2).length == 5
    assert seq_pp_r(3, 1).parts == (1, 2, 3)
    assert seq_pp_r(3, 3) == seq_pp(3)
    assert seq_pp_r(3, 9) == seq_pp(3)
    with pytest.raises(ValueError):
        seq_pp_r(0, 1)
    with pytest.raises(ValueError):
        seq_pp_r(3, 0)


@given(st.integers(1, 12), st.integers(1, 12))
def test_seq_pp_r_length(n, r):
    a = seq_pp_r(n, r)
    if r <= n:
        assert a.length == n * r - r * (r - 1) // 2
    else:
        assert a == seq_pp(n)


def test_seq_strict():
    assert seq_strict(3).parts == (1, 2, 3, 3)
    assert seq_strict(4).parts == (1, 2, 3, 3, 4, 4)
    assert seq_strict(1).parts == (1,)


@given(st.integers(1, 14))
def test_seq_strict_length(n):
    assert seq_strict(n).length == (n + 1) ** 2 // 4


def test_seq_symmetric():
    assert seq_symmetric(4).parts == (1, 2, 3, 4, 4)
    assert seq_symmetric(3).parts == (1, 2, 3)
    assert seq_symmetric(1).parts == (1,)
    assert quantity_weights("ppso", 6).weights == (1, 1, 1, 2, 1, 3)
    assert [spp_multiplicity(k) for k in range(1, 9)] == [1, 0, 1, 1, 1, 1, 1, 2]


def test_seq_multipartition():
    assert seq_multipartition(2, 3).parts == (1, 1, 1, 2, 2, 2)
    assert seq_multipartition(4, 2).length == 8
    assert seq_multipartition(1, 1).parts == (1,)


@given(st.integers(2, 12))
def test_all_parts_present_gives_full_lcm(n):
    for a in (seq_pp(n), seq_strict(n), seq_symmetric(n), seq_multipartition(n, 2)):
        assert a.lcm == lcm_range(n)


def test_weight_sequence_validation():
    with pytest.raises(ValueError):
        WeightSequence(())
    with pytest.raises(ValueError):
        WeightSequence((0, 1))
    with pytest.raises(ValueError):
        WeightSequence((2, 1))
    assert WeightSequence.from_parts([3, 1, 2]).parts == (1, 2, 3)


def test_weight_function_validation():
    with pytest.raises(ValueError):
        WeightFunction(0, ())
    with pytest.raises(ValueError):
        WeightFunction(2, (1,))
    with pytest.raises(ValueError):
        WeightFunction(2, (1, -1))
    wf = WeightFunction(3, (1, 0, 2))
    assert wf(1) == 1 and wf(2) == 0 and wf(3) == 2
    assert wf(0) == 0 and wf(4) == 0
    assert wf.expand().parts == (1, 3, 3)


def test_quantity_dispatch():
    assert quantity_sequence("pp", 3) == seq_pp(3)
    assert quantity_sequence("pp_r", 3, r=2) == seq_pp_r(3, 2)
    assert quantity_sequence("pps", 4) == seq_strict(4)
    assert quantity_sequence("ppso", 4) == seq_symmetric(4)
    assert quantity_sequence("P_r", 2, r=3) == seq_multipartition(2, 3)
    assert quantity_sequence("p", 4).parts == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        quantity_weights("pp_r", 3)
    with pytest.raises(ValueError):
        quantity_weights("p_a", 3)


def test_quantity_pattern_pairs():
    assert pattern("pp", 4) == ((1, 1), (2, 2), (3, 3), (4, 4))
    assert pattern("pp_r", 4, 2) == ((1, 1), (2, 2), (3, 2), (4, 2))
    assert pattern("ppso", 0) == ()
    # p_a keeps every run of its sorted parts, parts above the bound too.
    assert pattern("p_a", 3, None, (5, 1, 2, 1)) == ((1, 2), (2, 1), (5, 1))
    assert quantity_weights("p_a", 3, None, (5, 1, 2, 1)).weights == (2, 1, 0)
    for bad in (("q", 3), ("P_r", 3), ("p_a", 3), ("p_a", 3, None, (0, 1))):
        with pytest.raises(ValueError):
            pattern(*bad)


SPP_ROW = (1, 1, 1, 2, 3, 4, 6, 8, 12, 16, 22, 29, 41, 53, 71)


def test_zero_multiplicities_are_dropped_in_one_place(monkeypatch):
    # spp_multiplicity is 0 at k = 2: the pairs drop it, the dense view keeps a 0.
    monkeypatch.setitem(FAMILIES, "spp", Family(lambda k, r: spp_multiplicity(k), min_n=1))
    pattern.cache_clear()
    quantity_weights.cache_clear()
    try:
        top = len(SPP_ROW) - 1
        pairs = pattern("spp", top)
        assert [k for k, _ in pairs] == [k for k in range(1, top + 1) if k != 2]
        assert all(m >= 1 for _, m in pairs)
        weights = quantity_weights("spp", top)
        assert weights.weights[:3] == (1, 0, 1)
        assert tuple(series.restricted_partition_row(pairs, top)) == SPP_ROW
        assert series.euler_product(weights, top) == SPP_ROW
        assert tuple(formulas._vector_row(top, weights.weights)) == SPP_ROW
        assert tuple(counts.symmetric for counts in diagram_count_row(top)) == SPP_ROW
        # A Stirling setup takes one coordinate per pair, none of multiplicity 0.
        box, kernel, _ = stirling._pattern_setup(6, pattern("spp", 6))
        assert box.weights == (1, 3, 4, 5, 6)
        assert kernel.length == sum(m for _, m in pattern("spp", 6))
    finally:
        pattern.cache_clear()
        quantity_weights.cache_clear()
