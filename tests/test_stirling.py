from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partcalc import stirling
from partcalc.combinat import stirling_first_unsigned
from partcalc.formulas import HypothesisError
from partcalc.sequences import WeightSequence, seq_pp, seq_strict
from partcalc.series import oracle_value, restricted_partition_dp
from partcalc.stirling import (
    CongruenceBox,
    CostGuardExceeded,
    StirlingKernel,
    box_weight_histogram,
    generic_setup,
    multipartition_stirling,
    pp_stirling,
    ppr_stirling,
    pps_stirling,
    ppso_stirling,
    regrouped_partial_sums,
    regrouped_sum,
    restricted_count_stirling,
)

SEQUENCES = [
    (1,),
    (2,),
    (1, 2),
    (1, 2, 3),
    (1, 2, 2, 3),
    (2, 3, 5),
    (1, 1, 2),
    (4, 6),
]


def test_congruence_box_validation():
    CongruenceBox((2, 3), (1, 2), 6, 5)
    with pytest.raises(ValueError):
        CongruenceBox((), (), 6, 0)
    with pytest.raises(ValueError):
        CongruenceBox((2,), (1, 2), 6, 0)
    with pytest.raises(ValueError):
        CongruenceBox((-1,), (1,), 6, 0)
    with pytest.raises(ValueError):
        CongruenceBox((2,), (0,), 6, 0)
    with pytest.raises(ValueError):
        CongruenceBox((2,), (1,), 6, 6)


def test_kernel_validation():
    table = stirling_first_unsigned(3)
    StirlingKernel(3, 6, 5, table)
    with pytest.raises(ValueError):
        StirlingKernel(2, 6, 5, table)
    with pytest.raises(ValueError):
        StirlingKernel(0, 6, 5, stirling_first_unsigned(1))


def test_kernel_single_variable_is_indicator_scale():
    # r = 1: the double sum collapses to c(1,1) = 1 for every argument.
    kernel = StirlingKernel(1, 4, 9, stirling_first_unsigned(1))
    assert kernel.value(0) == 1
    assert kernel.value(37) == 1


def test_kernel_is_shifted_falling_product():
    # The double sum equals prod_{i=1}^{r-1} (q + i) with q = (n - S)/D,
    # so it vanishes exactly on the band -(r-1) <= q <= -1.
    kernel = StirlingKernel(3, 6, 7, stirling_first_unsigned(3))
    for s in range(0, 40):
        q = Fraction(7 - s, 6)
        want = (q + 1) * (q + 2)
        assert kernel.value(s) == want
    assert kernel.value(13) == 0
    assert kernel.value(19) == 0
    assert kernel.value(25) != 0


def test_histogram_unit_weights_counts_box_points():
    box = CongruenceBox((3, 3), (1, 1), 2, 0)
    hist = box_weight_histogram(box)
    # Points with x + y even: sums 0, 2, 4, 6 with multiplicities 1, 3, 3, 1.
    assert hist == {0: 1, 2: 3, 4: 3, 6: 1}


def test_histogram_zero_coefficients_prune():
    box = CongruenceBox((2, 2), (1, 1), 1, 0)
    tables = ((1, 0, 1), (1, 1, 0))
    hist = box_weight_histogram(box, tables)
    assert hist == {0: 1, 1: 1, 2: 1, 3: 1}
    assert sum(hist.values()) == 4


def test_generic_engine_matches_dp_small():
    for parts in SEQUENCES:
        a = WeightSequence(parts)
        for n in range(0, 30):
            assert restricted_count_stirling(a, n) == restricted_partition_dp(a, n), (
                parts,
                n,
            )


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4).map(sorted),
    st.integers(0, 40),
)
@settings(max_examples=60, deadline=None)
def test_generic_engine_matches_dp_random(parts, n):
    a = WeightSequence(tuple(parts))
    assert restricted_count_stirling(a, n) == restricted_partition_dp(a, n)


def test_generic_engine_errors():
    with pytest.raises(ValueError):
        restricted_count_stirling(WeightSequence((1, 2)), -1)


def test_cost_guard(monkeypatch):
    monkeypatch.setattr(stirling, "DEFAULT_BOX_LIMIT", 10)
    a = seq_pp(4)  # box size (12/1)(12/2)(12/2)... comfortably above 10
    with pytest.raises(CostGuardExceeded):
        restricted_count_stirling(a, 5)
    with pytest.raises(CostGuardExceeded):
        pp_stirling(4)


def test_partial_sums_clear_denominators():
    a = WeightSequence((1, 2, 3))
    d, r = a.lcm, a.length
    partials = regrouped_partial_sums(*generic_setup(a, 7))
    scale = math.factorial(r - 1) * d ** (r - 1)
    for value in partials.values():
        assert (value * scale).denominator == 1
    assert sum(partials.values(), Fraction(0)) == restricted_partition_dp(a, 7)


def test_regrouped_sum_rejects_non_integer_totals():
    box = CongruenceBox((1,), (1,), 1, 0)
    kernel = StirlingKernel(2, 3, 1, stirling_first_unsigned(2))
    with pytest.raises(ArithmeticError):
        regrouped_sum(box, kernel)


def test_wrapper_hypothesis_gates():
    for fn in (pp_stirling, pps_stirling, ppso_stirling):
        with pytest.raises(HypothesisError):
            fn(2)
    with pytest.raises(HypothesisError):
        ppr_stirling(3, 3)
    with pytest.raises(HypothesisError):
        ppr_stirling(4, 1)
    with pytest.raises(HypothesisError):
        multipartition_stirling(3, 2)
    with pytest.raises(HypothesisError):
        multipartition_stirling(4, 4)


def test_wrappers_known_values():
    assert pp_stirling(3) == 6
    assert pp_stirling(4) == 13
    assert pps_stirling(3) == 4
    assert pps_stirling(4) == 7
    assert ppso_stirling(3) == 3
    assert ppso_stirling(4) == 6
    assert ppr_stirling(3, 2) == 5
    assert ppr_stirling(4, 2) == 10
    assert ppr_stirling(4, 3) == 12
    assert multipartition_stirling(4, 2) == 20
    assert multipartition_stirling(4, 3) == 51


def test_wrappers_match_oracle_n4():
    n = 4
    assert pp_stirling(n) == oracle_value("pp", n)
    assert pps_stirling(n) == oracle_value("pps", n)
    assert ppso_stirling(n) == oracle_value("ppso", n)
    for r in range(2, n):
        assert ppr_stirling(n, r) == oracle_value("pp_r", n, r=r)
        assert multipartition_stirling(n, r) == oracle_value("P_r", n, r=r)


def test_single_coordinate_box():
    # One part: the whole box collapses onto the congruence-resolved axis.
    a = WeightSequence((3,))
    for n in (0, 3, 4, 9):
        assert restricted_count_stirling(a, n) == (1 if n % 3 == 0 else 0)
