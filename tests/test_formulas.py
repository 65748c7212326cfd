from __future__ import annotations

import gc
import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from partcalc import formulas, series
from partcalc.combinat import bounded_composition_count
from partcalc.formulas import (
    multipartition_formula,
    multiplicity_vectors,
    pp_formula,
    ppr_formula,
    ppr_inclusion_exclusion,
    ppr_via_multipartition_formula,
    ppr_via_multipartition_row,
    pps_formula,
    ppso_formula,
)
from partcalc.sequences import FAMILIES, HypothesisError, quantity_weights
from partcalc.series import (
    VECTOR_LIMIT,
    CostGuardExceeded,
    oracle_row,
    oracle_value,
    vector_count,
    vector_reach,
)

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


def test_vector_sum_walk_has_one_leaf_per_vector():
    # With every multiplicity 1 each partial vector (l_3..l_top) adds 1 to
    # hist at its weight w, so hist[w] counts the leaves there: the vectors
    # of A_w with l_1 = l_2 = 0.  A leaf at w covers the (n - w) // 2 + 1
    # vectors of A_n that parts 1 and 2 complete it to, so the leaves below
    # n cover A_n once.
    top = 20
    hist, tail = formulas._vector_histogram(top, [1] * top)
    assert tail == [R // 2 + 1 for R in range(top + 1)]
    leaves = [1] + [sum(not any(v[:2]) for v in multiplicity_vectors(w)) for w in range(1, top + 1)]
    assert hist == leaves
    for n in range(top + 1):
        covered = sum(hist[w] * ((n - w) // 2 + 1) for w in range(n + 1))
        assert covered == oracle_value("p", n), n


@given(st.data(), st.integers(0, 22))
@settings(max_examples=40, deadline=None)
def test_vector_row_reads_every_n_off_one_walk(data, top):
    pattern = data.draw(st.lists(st.integers(0, 4), min_size=top, max_size=top))
    row = formulas._vector_row(top, pattern)
    assert row == [formulas._vector_sum(n, pattern[:n]) for n in range(top + 1)]


def test_vector_row_of_every_family():
    top = 25
    for quantity, family in FAMILIES.items():
        for r in range(1, 26) if family.takes_r else (None,):
            row = formulas._vector_row(top, quantity_weights(quantity, top, r).weights)
            assert row == [formulas._vector_sum(n, quantity_weights(quantity, top, r).weights[:n])
                           for n in range(top + 1)]
            assert row == list(oracle_row(quantity, top, r=r)), (quantity, r)


def test_theorem_walk_uses_neither_the_dp_nor_the_series(monkeypatch):
    wrappers = {
        "pp": pp_formula,
        "pp_r": ppr_formula,
        "pps": pps_formula,
        "ppso": ppso_formula,
        "P_r": multipartition_formula,
    }
    cases = [
        (quantity, n, r)
        for quantity in wrappers
        for n in range(3, 21)
        for r in ((2, 3, 4) if FAMILIES[quantity].takes_r else (None,))
        if FAMILIES[quantity].holds(n, r)
    ]
    want = [oracle_value(quantity, n, r=r) for quantity, n, r in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the theorem route must not call this")

    # The guard's p row, read once per process for the reach, is the only
    # oracle read the route makes.
    vector_reach()
    monkeypatch.setattr(series, "restricted_partition_row", refuse)
    monkeypatch.setattr(formulas, "oracle_row", refuse)
    monkeypatch.setattr(series, "euler_product", refuse)
    got = [
        wrappers[quantity](n) if r is None else wrappers[quantity](n, r) for quantity, n, r in cases
    ]
    assert got == want


def test_vector_sum_builds_no_vector_list():
    multiplicity_vectors.cache_clear()
    pp_formula(30)
    assert multiplicity_vectors.cache_info().currsize == 0


def test_vector_count_is_p():
    assert [vector_count(n) for n in range(25)] == [oracle_value("p", n) for n in range(25)]


def test_vector_counts_to_64_share_one_row(monkeypatch):
    # Read before the spy goes in: the DP oracle builds its rows the same way.
    want, p70 = list(oracle_row("p", 64)), oracle_value("p", 70)
    built = []
    real = series.restricted_partition_row

    def spy(pairs, top):
        built.append(top)
        return real(pairs, top)

    series._counts_to_64.cache_clear()
    monkeypatch.setattr(series, "restricted_partition_row", spy)
    assert [vector_count(n) for n in range(65)] == want
    assert built == [64]
    assert vector_count(70) == p70
    assert built == [64, 70]


def test_vector_guard_bounds_the_walk():
    assert vector_count(60) <= VECTOR_LIMIT < vector_count(61)
    assert vector_reach() == 60
    with pytest.raises(CostGuardExceeded, match="A_61 has 1121505"):
        pp_formula(61)
    assert pp_formula(60) == oracle_value("pp", 60)


# The walk checks its own guard, whichever entry point calls it.
def test_vector_walk_checks_its_own_guard():
    start = time.perf_counter()
    with pytest.raises(CostGuardExceeded, match="A_61 has 1121505 multiplicity vectors"):
        formulas._vector_histogram(61, [1] * 61)
    assert time.perf_counter() - start < 0.5


# p(6) = 11, p(7) = 15, p(10) = 42 and p(11) = 56.
@pytest.mark.parametrize("limit, reach", [(14, 6), (15, 7), (42, 10)])
def test_vector_reach_follows_the_limit(monkeypatch, limit, reach):
    assert vector_reach() == 60
    monkeypatch.setattr(series, "VECTOR_LIMIT", limit)
    assert vector_reach() == reach
    assert pp_formula(reach) == oracle_value("pp", reach)
    with pytest.raises(CostGuardExceeded, match=f"A_{reach + 1} has {vector_count(reach + 1)} "):
        pp_formula(reach + 1)
    monkeypatch.undo()
    assert vector_reach() == 60


def test_theorem_wrappers_refuse_before_building_a_pattern(family_patterns_up_to):
    family_patterns_up_to(0)
    calls = (
        lambda n: pp_formula(n),
        lambda n: ppr_formula(n, 3),
        lambda n: pps_formula(n),
        lambda n: ppso_formula(n),
        lambda n: multipartition_formula(n, 3),
    )
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(CostGuardExceeded, match=r"A_1000000000 has at least p\(64\) = 1741630"):
            call(10**9)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(HypothesisError):
            call(2)


def test_alternating_sum_takes_dp_above_the_vector_limit():
    # Shifts 0 and 1 need P_2(62) and P_2(61), both above the limit.
    assert ppr_via_multipartition_formula(62, 2) == oracle_value("pp_r", 62, r=2)


# The P_r theorem row stops at 60, the last n within VECTOR_LIMIT.  (80, 3)
# reads P_3 at 80, 79, 77 and 76 only, all from the DP, and (120, 200) has
# no k in the formula's range (r < k), so neither walks; (64, 3) reads
# P_3(60) off the row, and (80, 12) reads P_12 at k = 13..60 off it.
@pytest.mark.parametrize(
    "n, r, tops", [(80, 3, []), (120, 200, []), (64, 3, [60]), (80, 12, [60])]
)
def test_alternating_sum_row_stays_within_the_vector_limit(monkeypatch, n, r, tops):
    walked = []
    real = formulas._vector_row

    def spy(top, pattern):
        walked.append(top)
        return real(top, pattern)

    monkeypatch.setattr(formulas, "_vector_row", spy)
    assert ppr_via_multipartition_formula(n, r) == oracle_value("pp_r", n, r=r)
    assert walked == tops
    assert all(vector_count(top) <= VECTOR_LIMIT for top in walked)


@pytest.mark.parametrize("top", [0, 1, 12, 64])
@pytest.mark.parametrize("r", range(1, 9))
def test_alternating_row_equals_the_sum_at_each_n(r, top):
    row = ppr_via_multipartition_row(top, r, oracle_row("P_r", top, r=r))
    assert row == list(oracle_row("pp_r", top, r=r))
    assert row == [ppr_via_multipartition_formula(n, r) for n in range(top + 1)]


def test_alternating_row_errors():
    with pytest.raises(ValueError):
        ppr_via_multipartition_row(3, 0, [1, 1, 2, 3])
    with pytest.raises(ValueError):
        ppr_via_multipartition_row(-1, 2, [])


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


def _block_convolved(copies, alpha):
    """(1 + z + ... + z^alpha)^copies by direct convolution."""
    out = [1]
    for _ in range(copies):
        out = [sum(out[max(k - alpha, 0) : k + 1]) for k in range(len(out) + alpha)]
    return out


def test_block_polynomial_basics():
    # (1 + z + z^2)^2, the block of 2 copies of part s with D/s = 3.
    assert [bounded_composition_count(k, 2, 2) for k in range(-1, 6)] == [0, 1, 2, 3, 2, 1, 0]
    assert _block_convolved(2, 2) == [1, 2, 3, 2, 1]


@given(st.integers(1, 6), st.sampled_from([6, 12, 24, 60]))
@settings(max_examples=60)
def test_block_polynomial_routes_and_reciprocity(copies, modulus):
    if modulus % copies:
        modulus = copies * (modulus // copies or 1)
    alpha = modulus // copies - 1
    degree = copies * alpha
    coeffs = [bounded_composition_count(k, copies, alpha) for k in range(degree + 1)]
    assert coeffs == _block_convolved(copies, alpha)
    assert bounded_composition_count(-1, copies, alpha) == 0
    assert bounded_composition_count(degree + 1, copies, alpha) == 0
    assert coeffs == coeffs[::-1]
    assert sum(coeffs) == (modulus // copies) ** copies


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


def _shift_pattern_coefficients(n, r):
    """The coefficients c_0..c_n of the alternating sum by enumeration: each
    shift pattern (t_1..t_{r-1}) with 0 <= t_j <= r-j and shift
    sum j t_j <= n adds (-1)^sum(t) prod_j C(r-j, t_j) at its shift."""
    coeffs = [0] * (n + 1)
    for ts in itertools.product(*(range(r - j + 1) for j in range(1, r))):
        shift = sum(j * t for j, t in enumerate(ts, start=1))
        if shift <= n:
            term = math.prod(math.comb(r - j, t) for j, t in enumerate(ts, start=1))
            coeffs[shift] += -term if sum(ts) % 2 else term
    return coeffs


def test_shift_coefficients_equal_the_pattern_enumeration():
    for r in range(1, 8):
        for n in range(26):
            assert formulas._shift_coefficients(n, r) == _shift_pattern_coefficients(n, r), (n, r)


@pytest.mark.parametrize("r", [1, 2, 5, 9, 40])
def test_alternating_sum_reads_each_k_at_most_once(r):
    n = 12
    read = []

    def pr(k):
        read.append(k)
        return oracle_value("P_r", k, r=r)

    assert ppr_inclusion_exclusion(n, r, pr) == oracle_value("pp_r", n, r=r)
    assert len(read) == len(set(read))
    assert set(read) <= set(range(n + 1))


def test_alternating_sum_at_large_r():
    # Only the factors (1 - z^j)^(r-j) with j <= n reach z^n, so r does not
    # multiply the work; the enumeration of (r-1)! shift patterns took about
    # 5 s at r = 10.
    started = time.perf_counter()
    assert ppr_via_multipartition_formula(5, 50) == oracle_value("pp_r", 5, r=50) == 24
    assert time.perf_counter() - started < 1


# (12, 3) reads P_3 at 12, 11, 9 and 8, all by the formula, so it builds no
# row; (6, 3) reads P_3(3) and P_3(2) from the row.
@pytest.mark.parametrize("n, r, rows", [(120, 200, 1), (6, 3, 1), (62, 2, 1), (0, 4, 1), (12, 3, 0)])
def test_alternating_sum_builds_at_most_one_pr_row(monkeypatch, n, r, rows):
    built = []
    real = formulas.oracle_row

    def spy(quantity, top, **kwargs):
        built.append((quantity, top))
        return real(quantity, top, **kwargs)

    monkeypatch.setattr(formulas, "oracle_row", spy)
    assert ppr_via_multipartition_formula(n, r) == oracle_value("pp_r", n, r=r)
    assert built == [("P_r", n)] * rows


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


def test_every_wrapper_equals_its_family_row():
    # verify's cross-method reads the theorem off one walk per (family, r):
    # each wrapper must equal that row wherever the family's range holds.
    top = 40
    for quantity, family in FAMILIES.items():
        if family.stem is None:
            continue
        wrapper = getattr(formulas, f"{family.stem}_formula")
        for r in range(2, 7) if family.takes_r else (None,):
            row = formulas._vector_row(top, quantity_weights(quantity, top, r).weights)
            ns = [n for n in range(top + 1) if family.holds(n, r)]
            assert ns
            assert [wrapper(n, r) if family.takes_r else wrapper(n) for n in ns] == [row[n] for n in ns]
