from __future__ import annotations

import gc
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partcalc import formulas, series, stirling
from partcalc.combinat import stirling_first_unsigned
from partcalc.formulas import HypothesisError
from partcalc.sequences import FAMILIES, Family, WeightSequence, pattern, seq_pp, seq_strict
from partcalc.series import oracle_value, restricted_partition_dp
from partcalc.stirling import (
    CongruenceBox,
    CostGuardExceeded,
    StirlingKernel,
    box_weight_histogram,
    generic_setup,
    multipartition_stirling,
    packed_histogram,
    pp_stirling,
    ppr_stirling,
    pps_stirling,
    ppso_stirling,
    regrouped_partial_sums,
    regrouped_sum,
    restricted_count_stirling,
    restricted_row_stirling,
)
from partcalc.verify import ENGINE_SEQUENCES

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
    hist = box_weight_histogram(box, (None, None))
    # Points with x + y even: sums 0, 2, 4, 6 with multiplicities 1, 3, 3, 1.
    assert hist == {0: 1, 2: 3, 4: 3, 6: 1}
    assert packed_histogram(box, ((1,) * 4, (1,) * 4)) == hist
    with pytest.raises(ValueError):
        packed_histogram(box, ((1,) * 4,))


def test_histogram_zero_coefficients_prune():
    box = CongruenceBox((2, 2), (1, 1), 1, 0)
    tables = ((1, 0, 1), (1, 1, 0))
    hist = box_weight_histogram(box, tables)
    assert hist == {0: 1, 1: 1, 2: 1, 3: 1}
    assert sum(hist.values()) == 4


# The walk prices the box it walks before its first point, as the packed
# product prices its bytes before its first factor.
def test_walk_checks_its_own_guard(monkeypatch):
    read = []

    class Table(tuple):
        def __getitem__(self, v):
            read.append(v)
            return super().__getitem__(v)

    box, tables = CongruenceBox((3, 3), (1, 1), 2, 0), (Table((1,) * 4), Table((1,) * 4))
    monkeypatch.setattr(stirling, "DEFAULT_BOX_LIMIT", 15)
    with pytest.raises(CostGuardExceeded, match="congruence box has 16 points, above the limit of 15"):
        box_weight_histogram(box, tables)
    assert read == []
    monkeypatch.setattr(stirling, "DEFAULT_BOX_LIMIT", 16)
    assert box_weight_histogram(box, tables) == {0: 1, 2: 3, 4: 3, 6: 1}


# p's sum reads the pairs of its pattern, behind one guard of the expanded box.
def test_partition_sum_builds_no_weight_sequence(monkeypatch):
    guarded = []
    real = stirling.check_generic_box

    def spy(parts):
        guarded.append(list(parts))
        real(parts)

    def refuse(*args):
        raise AssertionError("p's Stirling sum built a WeightSequence")

    monkeypatch.setattr(stirling, "check_generic_box", spy)
    monkeypatch.setattr(WeightSequence, "__init__", refuse)
    assert stirling.partition_count_stirling(6) == 11
    assert guarded == [[1, 2, 3, 4, 5, 6]]


# The walk is a module function, so a request leaves no reference cycle.
def test_generic_sums_leave_no_reference_cycle():
    a = WeightSequence((1, 2, 2, 3))
    gc.disable()
    try:
        gc.collect()
        assert restricted_count_stirling(a, 11) == restricted_partition_dp(a, 11)
        assert stirling.partition_count_stirling(5) == 7
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def _kernel_double_sum(kernel, s):
    """The kernel over D^(r-1), term by term as in the module docstring."""
    r, d, n = kernel.length, kernel.modulus, kernel.target
    total = 0
    for m in range(r):
        for k in range(m, r):
            term = kernel.table[k] * math.comb(k, m) * s ** (k - m) * n**m * d ** (r - 1 - k)
            total += -term if (k - m) % 2 else term
    return total


@given(
    st.integers(1, 10),
    st.integers(1, 60),
    st.integers(0, 10**4),
    st.lists(st.integers(0, 10**4), min_size=1, max_size=5),
)
@settings(max_examples=60)
def test_kernel_value_equals_the_kernel_double_sum(length, modulus, n, sums):
    kernel = StirlingKernel(length, modulus, n, stirling_first_unsigned(length))
    for s in sums:
        expected = _kernel_double_sum(kernel, s)
        poly = stirling._polynomial(kernel, {s: 1})
        assert len(poly) == length
        assert stirling._horner(poly, n) == expected, s
        assert kernel.value(s) == Fraction(expected, modulus ** (length - 1)), s


# ENGINE_SEQUENCES, then one more list with a repeated part.
@pytest.mark.parametrize("parts", [*ENGINE_SEQUENCES, (2, 2, 2, 5)])
def test_row_equals_the_count_at_each_n(parts):
    a = WeightSequence(tuple(parts))
    assert restricted_row_stirling(a, 60) == [restricted_count_stirling(a, n) for n in range(61)]


# The row reads each residue that occurs in 0..top once, off one product,
# and walks no box.
@pytest.mark.parametrize("parts, top", [((1, 2, 3), 60), ((1, 2, 3), 3), ((2, 3, 4), 0), ((4, 6), 11)])
def test_row_walks_each_residue_once(monkeypatch, parts, top):
    products, read = [], []
    real = stirling._packed_product

    def spy(box, coeff_tables):
        products.append(box)
        histogram = real(box, coeff_tables)

        def reader(residue):
            read.append(residue)
            return histogram(residue)

        return reader

    def walk(*args):
        raise AssertionError("the row walked a box")

    monkeypatch.setattr(stirling, "_packed_product", spy)
    monkeypatch.setattr(stirling, "box_weight_histogram", walk)
    a = WeightSequence(parts)
    row = restricted_row_stirling(a, top)
    assert row == [restricted_partition_dp(a, n) for n in range(top + 1)]
    assert len(products) == 1
    assert sorted(read) == list(range(min(a.lcm, top + 1)))


# The box guard refuses before any table or product is built.
def test_row_guard_refuses_before_any_walk(monkeypatch):
    built = []
    monkeypatch.setattr(stirling, "DEFAULT_BOX_LIMIT", 10)
    for name in ("bounded_composition_count", "_packed_product", "box_weight_histogram"):
        monkeypatch.setattr(stirling, name, lambda *args, name=name: built.append(name))
    with pytest.raises(CostGuardExceeded, match="congruence box has "):
        restricted_row_stirling(seq_pp(4), 60)
    assert built == []


# Two parts with a large lcm: (10^9, 2*10^9) has 2 points in 10^9 + 1
# slots, and (31601, 31607) has 998,812,807 points in about 2*10^9 slots of
# 4 bytes.  Both are priced and refused before any factor is built.
@pytest.mark.parametrize(
    "parts, size",
    [((10**9, 2 * 10**9), 10**9 + 1), ((31601, 31607), (1 + 2 * 31601 * 31607 - 31601 - 31607) * 4)],
)
def test_product_guard_refuses_a_large_packed_product(parts, size):
    start = time.perf_counter()
    limit = stirling.DEFAULT_PRODUCT_LIMIT
    with pytest.raises(CostGuardExceeded, match=f"packed product has {size} bytes .*limit of {limit}$"):
        restricted_row_stirling(WeightSequence(parts), 60)
    assert time.perf_counter() - start < 0.5


def test_product_guard_prices_the_product_it_builds(monkeypatch):
    # (3, 4, 5, 7): D = 420, 1 + 3*139 + 4*104 + 5*83 + 7*59 = 1662 slots of
    # 4 bytes, since the 140 * 105 * 84 * 60 = 74,088,000 points need 27 bits.
    a = WeightSequence((3, 4, 5, 7))
    row = [restricted_partition_dp(a, n) for n in range(101)]
    monkeypatch.setattr(stirling, "DEFAULT_PRODUCT_LIMIT", 1662 * 4)
    assert restricted_row_stirling(a, 100) == row
    monkeypatch.setattr(stirling, "DEFAULT_PRODUCT_LIMIT", 1662 * 4 - 1)
    with pytest.raises(CostGuardExceeded, match="packed product has 6648 bytes \\(1662 slots of 4\\)"):
        restricted_row_stirling(a, 100)
    # The family sums share the product step, after their box guard.
    with pytest.raises(CostGuardExceeded, match="packed product has "):
        pp_stirling(5)
    monkeypatch.setattr(stirling, "DEFAULT_BOX_LIMIT", 10)
    with pytest.raises(CostGuardExceeded, match="congruence box has "):
        pp_stirling(5)


def _expanded_box(a, residue):
    """The generic box with one coordinate per copy of a part."""
    return CongruenceBox(tuple(a.lcm // part - 1 for part in a.parts), a.parts, a.lcm, residue)


@pytest.mark.parametrize(
    "parts", [(1, 1, 2, 2), seq_pp(3).parts, seq_pp(4).parts, (3, 3, 6, 6, 12), (5, 5, 5, 9, 10)]
)
def test_grouped_walk_equals_the_expanded_walk(parts):
    a = WeightSequence(parts)
    box, _, tables = generic_setup(pattern("p_a", 0, None, parts), 0)
    assert len(box.bounds) == len(set(parts))
    for residue in range(a.lcm):
        grouped = box_weight_histogram(replace(box, residue=residue), tables)
        assert grouped == box_weight_histogram(_expanded_box(a, residue), (None,) * len(parts)), residue


def test_grouped_box_of_seq_pp_4():
    box, _, tables = generic_setup(pattern("p_a", 5, None, seq_pp(4).parts), 5)
    assert box.weights == (1, 2, 3, 4)
    assert box.bounds == (11, 10, 9, 8)
    assert tables[0] is None
    # The walk loops every coordinate but the first: 11 * 10 * 9 partial
    # points, where the expanded box loops 186,624.
    assert math.prod(b + 1 for b in box.bounds[1:]) == 990
    assert tables[3] == (1, 4, 10, 16, 19, 16, 10, 4, 1)  # (1 + z + z^2)^4


@pytest.mark.parametrize("parts", [(1,), (1, 2, 3), (2, 3, 5), (4, 6), (2, 3, 7, 11)])
def test_distinct_parts_get_no_tables(parts):
    box, _, tables = generic_setup(pattern("p_a", 7, None, parts), 7)
    assert tables == (None,) * len(parts)
    assert box == _expanded_box(WeightSequence(parts), 7 % box.modulus)


def test_guard_counts_the_expanded_box(monkeypatch):
    a = seq_pp(4)
    box, _, _ = generic_setup(pattern("p_a", 0, None, a.parts), 0)
    grouped = math.prod(b + 1 for b in box.bounds)
    expanded = math.prod(a.lcm // part for part in a.parts)
    assert (grouped, expanded) == (11_880, 2_239_488)
    monkeypatch.setattr(stirling, "DEFAULT_BOX_LIMIT", 100_000)
    message = f"congruence box has {expanded} points, above the limit of 100000"
    with pytest.raises(CostGuardExceeded, match=message):
        restricted_count_stirling(a, 5)
    with pytest.raises(CostGuardExceeded, match=message):
        restricted_row_stirling(a, 30)
    monkeypatch.setattr(stirling, "DEFAULT_BOX_LIMIT", expanded)
    assert restricted_count_stirling(a, 5) == restricted_partition_dp(a, 5)


def test_generic_sum_reads_no_oracle(monkeypatch):
    sequences = [WeightSequence(parts) for parts in ((1, 1, 2, 2), (3, 3, 6, 6, 12), (2, 2, 2, 5))]
    want = [[restricted_partition_dp(a, n) for n in range(25)] for a in sequences]

    def refuse(*args, **kwargs):
        raise AssertionError("the Stirling sum read an oracle")

    for module in (series, formulas):
        for name in ("restricted_partition_row", "oracle_row"):
            monkeypatch.setattr(module, name, refuse)
    for a, row in zip(sequences, want):
        assert restricted_row_stirling(a, 24) == row
        assert [restricted_count_stirling(a, n) for n in range(25)] == row


def test_row_errors():
    with pytest.raises(ValueError):
        restricted_row_stirling(WeightSequence((1, 2)), -1)


def test_partial_sums_clear_denominators():
    a = WeightSequence((1, 2, 3))
    d, r = a.lcm, a.length
    partials = regrouped_partial_sums(*generic_setup(pattern("p_a", 7, None, a.parts), 7))
    scale = math.factorial(r - 1) * d ** (r - 1)
    for value in partials.values():
        assert (value * scale).denominator == 1
    assert sum(partials.values(), Fraction(0)) == restricted_partition_dp(a, 7)


def test_regrouped_sum_rejects_non_integer_totals():
    box = CongruenceBox((1,), (1,), 1, 0)
    kernel = StirlingKernel(2, 3, 1, stirling_first_unsigned(2))
    with pytest.raises(ArithmeticError):
        regrouped_sum(box, kernel, (None,))


def test_moment_sum_rejects_non_integer_totals():
    # One point at S = 0: the kernel there is (1/3 + 1) = 4/3.
    kernel = StirlingKernel(2, 3, 1, stirling_first_unsigned(2))
    with pytest.raises(ArithmeticError, match="formula sum is not an integer: 4/3"):
        stirling._evaluate(stirling._polynomial(kernel, {0: 1}), kernel, 1)
    assert stirling._evaluate(stirling._polynomial(kernel, {0: 3}), kernel, 1) == 4


@given(
    st.integers(1, 8),
    st.integers(1, 60),
    st.integers(0, 10**4),
    st.dictionaries(st.integers(0, 10**3), st.integers(1, 10**3), min_size=1, max_size=5),
)
@settings(max_examples=60)
def test_polynomial_equals_the_kernel_summed_over_the_histogram(length, modulus, n, hist):
    # The double sum at the target n, weighted by the histogram, is what the
    # polynomial gathers by powers of n; the polynomial does not read n.
    kernel = StirlingKernel(length, modulus, n, stirling_first_unsigned(length))
    poly = stirling._polynomial(replace(kernel, target=0), hist)
    want = sum(mass * _kernel_double_sum(kernel, s) for s, mass in hist.items())
    assert sum(q * n**m for m, q in enumerate(poly)) == want


# Each parts list has gcd g: the box's points spread evenly over the
# residues that g divides, so the leading coefficient there is
# g/((L-1)! prod a_t), and 0 elsewhere (1/((L-1)! prod a_t) when g = 1).
@pytest.mark.parametrize("parts", [*ENGINE_SEQUENCES, (2, 2, 2, 5), (3, 3, 6, 6, 12)])
def test_leading_coefficient_at_every_residue(parts):
    a = WeightSequence(tuple(parts))
    box, kernel, tables = generic_setup(pattern("p_a", 0, None, a.parts), 0)
    g = math.gcd(*parts)
    scale = math.factorial(a.length - 1) * a.lcm ** (a.length - 1)
    for residue in range(a.lcm):
        poly = stirling._polynomial(kernel, box_weight_histogram(replace(box, residue=residue), tables))
        want = Fraction(g, math.factorial(a.length - 1) * math.prod(parts)) if residue % g == 0 else 0
        assert Fraction(poly[-1], scale) == want, residue


@pytest.mark.parametrize("n", [10**12, 10**100])
def test_generic_sum_at_huge_n(n):
    assert restricted_count_stirling(WeightSequence((1, 2)), n) == n // 2 + 1
    # round((n + 3)^2 / 12); (n + 3)^2 is never 6 mod 12, so no tie.
    assert restricted_count_stirling(WeightSequence((1, 2, 3)), n) == ((n + 3) ** 2 + 6) // 12


def _family_cases(top):
    """(quantity, n, r) for every family case in its stated range at n <= top."""
    for quantity, family in FAMILIES.items():
        if family.stem is None:
            continue
        for n in range(family.min_n, top + 1):
            for r in range(2, n) if family.takes_r else (None,):
                yield quantity, n, r


def _assert_packed_equals_walk(box, tables):
    for residue in range(box.modulus):
        at = replace(box, residue=residue)
        assert packed_histogram(at, tables) == box_weight_histogram(at, tables), residue


@pytest.mark.parametrize("quantity, n, r", list(_family_cases(4)))
def test_packed_product_equals_the_walk(quantity, n, r):
    box, _, tables = stirling._pattern_setup(n, pattern(quantity, n, r))
    _assert_packed_equals_walk(box, tables)


# The generic boxes mix None tables (parts that occur once) with block tables.
@pytest.mark.parametrize("parts", [*ENGINE_SEQUENCES, (2, 2, 2, 5), (3, 3, 6, 6, 12)])
def test_packed_product_equals_the_walk_on_generic_boxes(parts):
    box, _, tables = generic_setup(pattern("p_a", 0, None, tuple(parts)), 0)
    _assert_packed_equals_walk(box, tables)


def test_family_sums_call_neither_an_oracle_nor_the_theorem_walk(monkeypatch):
    want = (oracle_value("pp", 5), oracle_value("P_r", 5, r=3))

    def refuse(*args, **kwargs):
        raise AssertionError("the family Stirling sum left its own route")

    for name in ("restricted_partition_row", "oracle_row", "euler_product"):
        monkeypatch.setattr(series, name, refuse)
    monkeypatch.setattr(formulas, "_vector_histogram", refuse)
    assert (pp_stirling(5), multipartition_stirling(5, 3)) == want


@pytest.mark.parametrize("n", [6, 16, 30])
def test_family_guard_refuses_before_any_table(monkeypatch, n):
    def build(*args):
        raise AssertionError("a block table was built before the guard")

    monkeypatch.setattr(stirling, "bounded_composition_count", build)
    d = stirling.lcm_range(n)
    size = math.prod(d - s + 1 for s in range(1, n + 1))
    with pytest.raises(CostGuardExceeded, match=f"congruence box has {size} points"):
        pp_stirling(n)


# The guard reads these counts at 64, 128, ... first and says "at least"
# when one of them decides, which holds only if they grow with their argument.
@pytest.mark.parametrize("quantity", [q for q, family in FAMILIES.items() if family.stem])
def test_family_box_counts_grow_with_n(quantity):
    for r in (2, 3, 7, 10**40) if FAMILIES[quantity].takes_r else (None,):
        counts = [stirling._family_points(quantity, k, r) for k in range(1, 140)]
        assert counts == sorted(counts), r


@given(st.lists(st.integers(1, 40), min_size=1, max_size=150).map(sorted))
@settings(max_examples=40)
def test_expanded_box_counts_grow_with_the_parts(parts):
    counts = [stirling._expanded_points(parts[:k]) for k in range(1, len(parts) + 1)]
    assert counts == sorted(counts)
    a = WeightSequence(tuple(parts))
    if counts[-1] > stirling.DEFAULT_BOX_LIMIT:
        with pytest.raises(CostGuardExceeded, match="congruence box has "):
            stirling.check_generic_box(a.parts)
    else:
        stirling.check_generic_box(a.parts)
        box, _, tables = generic_setup(pattern("p_a", 0, None, a.parts), 0)
        assert box == replace(_grouped_box(a), residue=0)


def _grouped_box(a):
    """The box of the distinct parts, each with its copies' summed bound."""
    distinct = sorted(set(a.parts))
    bounds = tuple(a.parts.count(k) * (a.lcm // k - 1) for k in distinct)
    return CongruenceBox(bounds, tuple(distinct), a.lcm, 0)


def test_guard_prints_a_power_of_ten_below_a_long_count():
    primes = [k for k in range(10**6, 10**6 + 700) if all(k % d for d in range(2, 1001))][:40]
    size = stirling._expanded_points(primes)
    assert len(primes) == 40 and size.bit_length() > 13_000
    with pytest.raises(CostGuardExceeded) as exc_info:
        restricted_count_stirling(WeightSequence(tuple(primes)), 50)
    message = str(exc_info.value)
    power = int(message.split("at least 10^")[1].split()[0])
    assert 10**power <= size < 10 ** (power + 2)


def test_stirling_wrappers_refuse_before_building_a_pattern(family_patterns_up_to):
    family_patterns_up_to(64)  # the guard counts the box of the first 64 parts
    calls = (
        pp_stirling,
        lambda n: ppr_stirling(n, 3),
        pps_stirling,
        ppso_stirling,
        lambda n: multipartition_stirling(n, 3),
    )
    for call in calls:
        for n in (100, 10**9):
            with pytest.raises(CostGuardExceeded, match="congruence box has at least "):
                call(n)
    with pytest.raises(CostGuardExceeded, match="congruence box has at least "):
        stirling.partition_count_stirling(10**9)


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
