from __future__ import annotations

import gc
import math

import pytest
from hypothesis import given, settings, strategies as st

from partcalc import formulas
from partcalc.formulas import (
    VECTOR_LIMIT,
    CostGuardExceeded,
    HypothesisError,
    bounded_composition_count,
    multipartition_formula,
    multiplicity_vectors,
    pp_formula,
    ppr_formula,
    ppr_inclusion_exclusion,
    ppr_via_multipartition_formula,
    pps_formula,
    ppso_formula,
    vector_count,
    within_vector_limit,
)
from partcalc.sequences import FAMILIES
from partcalc.series import oracle_value
from partcalc.stirling import BlockPolynomial

A3 = ((3, 0, 0), (1, 1, 0), (0, 0, 1))
A4 = ((4, 0, 0, 0), (2, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0), (0, 0, 0, 1))


def test_multiplicity_vectors_listed_small_cases():
    assert multiplicity_vectors(1) == ((1,),)
    assert multiplicity_vectors(2) == ((2, 0), (0, 1))
    assert multiplicity_vectors(3) == A3
    assert multiplicity_vectors(4) == A4
    with pytest.raises(ValueError):
        multiplicity_vectors(0)


def test_multiplicity_vectors_leave_no_reference_cycle():
    gc.disable()
    try:
        gc.collect()
        multiplicity_vectors.__wrapped__(15)
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(st.integers(1, 25))
def test_multiplicity_vectors_are_the_partitions(n):
    vectors = multiplicity_vectors(n)
    assert len(set(vectors)) == len(vectors)
    assert all(sum(s * l for s, l in enumerate(v, start=1)) == n for v in vectors)
    assert len(vectors) == oracle_value("p", n)
    assert list(vectors) == sorted(vectors, reverse=True)


@given(st.data(), st.integers(1, 22))
@settings(max_examples=60, deadline=None)
def test_vector_sum_walk_matches_listed_vectors(data, n):
    pattern = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    want = sum(
        math.prod(math.comb(l + m - 1, l) for m, l in zip(pattern, vec) if l)
        for vec in multiplicity_vectors(n)
    )
    assert formulas._vector_sum(n, pattern) == want


def test_vector_sum_walk_has_one_leaf_per_vector(monkeypatch):
    walk = formulas._walk
    leaves = 0

    def counting_walk(s, remaining, pattern):
        nonlocal leaves
        leaves += s < 2
        return walk(s, remaining, pattern)

    monkeypatch.setattr(formulas, "_walk", counting_walk)
    for n in range(1, 21):
        leaves = 0
        formulas._vector_sum(n, FAMILIES["pp"].pattern(n))
        assert leaves == oracle_value("p", n), n


def test_vector_sum_builds_no_vector_list():
    multiplicity_vectors.cache_clear()
    pp_formula(30)
    assert multiplicity_vectors.cache_info().currsize == 0


def test_vector_count_is_p():
    assert [vector_count(n) for n in range(25)] == [oracle_value("p", n) for n in range(25)]


def test_vector_guard_bounds_the_walk():
    assert vector_count(60) <= VECTOR_LIMIT < vector_count(61)
    assert within_vector_limit(60) and not within_vector_limit(61)
    with pytest.raises(CostGuardExceeded, match="A_61 has 1121505"):
        pp_formula(61)
    assert pp_formula(60) == oracle_value("pp", 60)


def test_alternating_sum_takes_dp_above_the_vector_limit():
    # Shifts 0 and 1 need P_2(62) and P_2(61), both above the limit.
    assert ppr_via_multipartition_formula(62, 2) == oracle_value("pp_r", 62, r=2)


def test_bounded_composition_count_small():
    # x_1 + x_2 = 3 with 0 <= x_i <= 2: (1,2) and (2,1).
    assert bounded_composition_count(3, 2, 2) == 2
    assert bounded_composition_count(0, 4, 0) == 1
    assert bounded_composition_count(1, 4, 0) == 0
    assert bounded_composition_count(-2, 3, 5) == 0
    assert bounded_composition_count(16, 3, 5) == 0
    with pytest.raises(ValueError):
        bounded_composition_count(1, 0, 2)
    with pytest.raises(ValueError):
        bounded_composition_count(1, 2, -1)


@given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 40))
@settings(max_examples=100)
def test_bounded_composition_count_brute_force(copies, limit, total):
    def brute(total, copies):
        if copies == 0:
            return 1 if total == 0 else 0
        return sum(brute(total - x, copies - 1) for x in range(min(limit, total) + 1))

    want = brute(total, copies) if total >= 0 else 0
    assert bounded_composition_count(total, copies, limit) == want


def test_block_polynomial_basics():
    b = BlockPolynomial(2, 6)  # (1 + z + z^2)^2
    assert b.alpha == 2
    assert b.degree == 4
    assert b.coefficients() == (1, 2, 3, 2, 1)
    with pytest.raises(ValueError):
        BlockPolynomial(4, 6)  # copies must divide modulus
    with pytest.raises(ValueError):
        BlockPolynomial(0, 6)


@given(st.integers(1, 6), st.sampled_from([6, 12, 24, 60]))
@settings(max_examples=60)
def test_block_polynomial_routes_and_reciprocity(copies, modulus):
    if modulus % copies:
        modulus = copies * (modulus // copies or 1)
    b = BlockPolynomial(copies, modulus)
    coeffs = b.coefficients()
    assert len(coeffs) == b.degree + 1
    for k in range(-1, b.degree + 2):
        assert b.coefficient_direct(k) == b.coefficient_closed(k)
    assert coeffs == coeffs[::-1]
    assert sum(coeffs) == (b.modulus // b.copies) ** b.copies


def test_formula_hypothesis_gates():
    with pytest.raises(HypothesisError):
        pp_formula(2)
    with pytest.raises(HypothesisError):
        pps_formula(2)
    with pytest.raises(HypothesisError):
        ppso_formula(2)
    with pytest.raises(HypothesisError):
        ppr_formula(3, 3)  # needs n > r
    with pytest.raises(HypothesisError):
        ppr_formula(5, 1)  # needs r >= 2
    with pytest.raises(HypothesisError):
        multipartition_formula(3, 2)  # needs n >= 4
    with pytest.raises(HypothesisError):
        multipartition_formula(5, 5)  # needs r < n


def test_formulas_known_values():
    assert pp_formula(3) == 6
    assert pp_formula(4) == 13
    assert pps_formula(3) == 4
    assert ppso_formula(3) == 3
    assert ppso_formula(4) == 6
    assert ppr_formula(3, 2) == 5
    assert ppr_formula(4, 3) == 12
    assert multipartition_formula(4, 2) == 20
    assert multipartition_formula(4, 3) == 51
    assert multipartition_formula(5, 2) == 36


@given(st.integers(3, 22))
@settings(max_examples=40)
def test_unrestricted_formulas_match_oracle(n):
    assert pp_formula(n) == oracle_value("pp", n)
    assert pps_formula(n) == oracle_value("pps", n)
    assert ppso_formula(n) == oracle_value("ppso", n)


@given(st.integers(2, 6), st.integers(3, 18))
@settings(max_examples=60)
def test_parametric_formulas_match_oracle(r, n):
    if n > r:
        assert ppr_formula(n, r) == oracle_value("pp_r", n, r=r)
    if n >= 4 and r < n:
        assert multipartition_formula(n, r) == oracle_value("P_r", n, r=r)


@given(st.integers(1, 5), st.integers(0, 16))
@settings(max_examples=60)
def test_alternating_sum_recovers_ppr(r, n):
    pr = lambda k: oracle_value("P_r", k, r=r) if k >= 0 else 0
    assert ppr_inclusion_exclusion(n, r, pr) == oracle_value("pp_r", n, r=r)


def test_alternating_sum_edge_cases():
    assert ppr_inclusion_exclusion(-1, 3, lambda k: 1) == 0
    with pytest.raises(ValueError):
        ppr_inclusion_exclusion(3, 0, lambda k: 1)
    # r = 1: no shift patterns, the sum is just P_1(n) = p(n).
    assert ppr_inclusion_exclusion(5, 1, lambda k: oracle_value("P_r", k, r=1)) == 7


@given(st.integers(1, 5), st.integers(0, 14))
@settings(max_examples=50)
def test_mixed_backend_alternating_sum(r, n):
    assert ppr_via_multipartition_formula(n, r) == oracle_value("pp_r", n, r=r)
