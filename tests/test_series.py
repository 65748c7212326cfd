from __future__ import annotations

import time
from math import comb, log2

import pytest
from hypothesis import example, given, settings, strategies as st

from partcalc import formulas, series
from partcalc.sequences import (
    QUANTITIES,
    WeightFunction,
    WeightSequence,
    pattern,
    quantity_weights,
    spp_multiplicity,
)
from partcalc.series import (
    euler_product,
    oracle_value,
    restricted_partition_dp,
    restricted_partition_row,
)

PP_ROW = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479)
PPS_ROW = (1, 1, 2, 4, 7, 12, 21, 34, 56, 90, 143, 223, 348)
PPSO_ROW = (1, 1, 2, 3, 6, 8, 15, 20, 35, 47, 77, 103, 165)
P_ROW = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)
P2_ROW = (1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481, 752, 1165)
P3_ROW = (1, 3, 9, 22, 51, 108, 221, 429, 810, 1479, 2640, 4599, 7868)
PP2_ROW = (1, 1, 3, 5, 10, 16, 29, 45, 75, 115, 181, 271, 413)
PP3_ROW = (1, 1, 3, 6, 12, 21, 40, 67, 117, 193, 319, 510, 818)


def _convolution_product(weights, top):
    """prod_k (1 - z^k)^(-w(k)) mod z^(top+1): multiply in the geometric
    series of z^k, w(k) times, each by a plain truncated convolution."""
    coeffs = [1] + [0] * top
    for k in range(1, top + 1):
        geometric = [1 if i % k == 0 else 0 for i in range(top + 1)]
        for _ in range(weights(k)):
            coeffs = [
                sum(coeffs[i] * geometric[m - i] for i in range(m + 1))
                for m in range(top + 1)
            ]
    return tuple(coeffs)


@st.composite
def _weight_functions(draw):
    bound = draw(st.integers(1, 10))
    weights = draw(st.lists(st.integers(0, 3), min_size=bound, max_size=bound))
    return WeightFunction(bound, tuple(weights))


@given(_weight_functions(), st.integers(0, 14))
@example(WeightFunction(4, (0, 2, 0, 1)), 0)
@example(WeightFunction(4, (0, 2, 0, 1)), 3)
@example(WeightFunction(4, (0, 2, 0, 1)), 12)
@example(WeightFunction(3, (0, 0, 0)), 5)
@settings(max_examples=80)
def test_euler_product_equals_truncated_convolution(weights, top):
    assert euler_product(weights, top) == _convolution_product(weights, top)


def test_euler_product_on_spp_pattern():
    weights = WeightFunction(10, tuple(spp_multiplicity(k) for k in range(1, 11)))
    assert euler_product(weights, 10) == (1, 1, 1, 2, 3, 4, 6, 8, 12, 16, 22)


@pytest.mark.parametrize("quantity, r", [("pp", None), ("P_r", 4)])
def test_series_equals_dp_at_300(quantity, r):
    assert oracle_value(quantity, 300, r=r, backend="series") == oracle_value(quantity, 300, r=r)


def test_known_rows():
    table = {
        ("pp", None): PP_ROW,
        ("pps", None): PPS_ROW,
        ("ppso", None): PPSO_ROW,
        ("p", None): P_ROW,
        ("pp_r", 2): PP2_ROW,
        ("pp_r", 3): PP3_ROW,
        ("P_r", 2): P2_ROW,
        ("P_r", 3): P3_ROW,
    }
    for (quantity, r), row in table.items():
        top = len(row) - 1
        got = euler_product(quantity_weights(quantity, top, r), top)
        assert got == row, quantity


def _coin_row(pairs, top):
    """The restricted-partition row by one plain coin pass per copy of each
    part; a part of more copies than 40, the largest top drawn below, is
    multiplied in by a plain convolution with its series
    sum_j C(m + j - 1, j) z^(jk) instead."""
    row = [1] + [0] * top
    for k, m in pairs:
        if m > 40:
            factor = [comb(m + i // k - 1, i // k) if i % k == 0 else 0 for i in range(top + 1)]
            row = [sum(row[i] * factor[n - i] for i in range(n + 1)) for n in range(top + 1)]
            continue
        for _ in range(m):
            for i in range(k, top + 1):
                row[i] += row[i - k]
    return row


@given(
    st.lists(st.tuples(st.integers(1, 30), st.integers(0, 36)), max_size=6),
    st.integers(0, 40),
)
@example([(1, 13)], 0)
@example([(2, 12), (3, 13)], 40)
@example([(1, 0), (41, 50), (7, 36)], 40)
@example([(1, 10**8), (3, 10**8), (2, 5)], 40)
@example([(25, 3), (21, 2), (1, 1)], 40)
@example([(2, 0), (5, 0)], 10)
@settings(max_examples=80)
def test_restricted_partition_row_equals_coin_passes(pairs, top):
    assert restricted_partition_row(pairs, top) == _coin_row(pairs, top)


@pytest.mark.parametrize("quantity", ["pp", "pps", "ppso"])
def test_series_equals_dp_at_600(quantity):
    assert oracle_value(quantity, 600, backend="series") == oracle_value(quantity, 600)


def test_dp_uses_neither_the_series_nor_the_theorem_walk(monkeypatch):
    cases = [("pp", None), ("pp_r", 20), ("pps", None), ("ppso", None), ("P_r", 20)]
    want = [oracle_value(q, 80, r=r, backend="series") for q, r in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the DP route must not call this")

    monkeypatch.setattr(series, "euler_product", refuse)
    monkeypatch.setattr(formulas, "_vector_histogram", refuse)
    assert [oracle_value(q, 80, r=r) for q, r in cases] == want


def test_restricted_partition_dp_examples():
    assert restricted_partition_dp(WeightSequence((1, 2, 3)), 6) == 7
    assert restricted_partition_dp(WeightSequence((1,)), 5) == 1
    assert restricted_partition_dp(WeightSequence((1, 2, 3, 3)), 3) == 4
    assert restricted_partition_dp(WeightSequence((2,)), 3) == 0
    assert restricted_partition_dp(WeightSequence((1, 2)), -1) == 0


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5), st.integers(0, 30))
@settings(max_examples=60)
def test_dp_permutation_invariance(parts, n):
    a = WeightSequence.from_parts(parts)
    b = WeightSequence.from_parts(list(reversed(sorted(parts))))
    assert restricted_partition_dp(a, n) == restricted_partition_dp(b, n)


@given(st.sampled_from(["p", "pp", "pps", "ppso"]), st.integers(0, 25))
@settings(max_examples=80)
def test_series_equals_dp(quantity, n):
    assert oracle_value(quantity, n, backend="series") == oracle_value(quantity, n)


@given(st.sampled_from(["pp_r", "P_r"]), st.integers(0, 20), st.integers(1, 5))
@settings(max_examples=80)
def test_series_equals_dp_with_r(quantity, n, r):
    assert oracle_value(quantity, n, r=r, backend="series") == oracle_value(
        quantity, n, r=r
    )


def test_oracle_value_known_points():
    assert oracle_value("pp", 3) == 6
    assert oracle_value("ppso", 3) == 3
    assert oracle_value("P_r", 4, r=2) == 20
    assert oracle_value("pp_r", 3, r=1) == 3
    assert oracle_value("pp_r", 3, r=2) == 5
    assert oracle_value("pps", 3) == 4
    assert oracle_value("p_a", 6, parts=(1, 2, 3)) == 7
    assert oracle_value("p_a", 6, parts=(1, 2, 3), backend="series") == 7


def test_every_quantity_is_one_at_zero():
    assert oracle_value("p", 0) == 1
    assert oracle_value("pp", 0) == 1
    assert oracle_value("pp_r", 0, r=3) == 1
    assert oracle_value("pps", 0) == 1
    assert oracle_value("ppso", 0) == 1
    assert oracle_value("P_r", 0, r=4) == 1
    assert oracle_value("p_a", 0, parts=(2, 5)) == 1


def test_oracle_value_argument_errors():
    with pytest.raises(ValueError):
        oracle_value("pp_r", 3)
    with pytest.raises(ValueError):
        oracle_value("p_a", 3)
    with pytest.raises(ValueError):
        oracle_value("p_a", 3, parts=(0, 1), backend="series")
    with pytest.raises(ValueError):
        oracle_value("nope", 3)
    with pytest.raises(ValueError):
        oracle_value("pp", -1)
    with pytest.raises(ValueError):
        oracle_value("pp", 3, backend="guess")
    # Where the row alone is above the work limit, the pattern still
    # validates the request, without listing its parts.
    for backend in ("dp", "series"):
        for args, kwargs in ((("nope", 10**12), {}), (("pp_r", 10**12), {}), (("p_a", 10**12), {}),
                             (("p_a", 10**12), {"parts": (0, 1)})):
            with pytest.raises(ValueError):
                oracle_value(*args, backend=backend, **kwargs)


def test_monotone_in_r_and_saturating():
    for n in range(13):
        values = [oracle_value("pp_r", n, r=r) for r in range(1, n + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == oracle_value("pp", n)


def test_p_a_ignores_parts_above_n():
    assert oracle_value("p_a", 4, parts=(1, 2, 9)) == oracle_value("p_a", 4, parts=(1, 2))


def test_euler_product_nonnegative_with_unit_constant():
    for quantity, r in [("pp", None), ("pps", None), ("ppso", None), ("P_r", 3)]:
        s = euler_product(quantity_weights(quantity, 15, r), 15)
        assert s[0] == 1
        assert all(c >= 0 for c in s)
    with pytest.raises(ValueError):
        euler_product(quantity_weights("pp", 3), -1)


def test_weight_function_expansion_matches_series():
    wf = WeightFunction(4, (1, 2, 0, 1))
    a = wf.expand()
    for n in range(15):
        truncated = euler_product(
            WeightFunction(max(n, 1), tuple(wf(k) for k in range(1, max(n, 1) + 1))),
            max(n, 1),
        )
        want = truncated[n] if n >= 1 else 1
        assert restricted_partition_dp(a, n) == want


def test_dp_guard_counts_the_parts_before_expanding(monkeypatch):
    # A limit at the DP's estimate of pp(8) admits pp(8) and refuses pp(9),
    # whose series row estimates less.
    monkeypatch.setattr(series, "ORACLE_WORK_LIMIT", series.oracle_cost("dp", "pp", 8)[0])
    assert oracle_value("pp", 8) == PP_ROW[8]
    with pytest.raises(series.CostGuardExceeded, match="the DP oracle needs at least"):
        oracle_value("pp", 9)
    assert oracle_value("pp", 9, backend="series") == PP_ROW[9]
    assert formulas.CostGuardExceeded is series.CostGuardExceeded


def test_dp_guard_admits_pp_at_2000():
    work, refusal = series.oracle_cost("dp", "pp", 2000)
    assert refusal is None and work <= series.ORACLE_WORK_LIMIT


def test_dp_work_prices_each_part_by_its_cheaper_branch():
    # Part 1, m = 3, at top 10: 3 * 10 stride adds against 10 binomial
    # passes of 10 + 9 + ... + 1 multiply-adds and PASS_COST each.
    assert series.dp_work([(1, 3)], 10) == 10 + series.ROW_COST + 30
    # Part 4, m = 10: 10 * 7 = 70 against 2 passes, 7 + 3 + 2 PASS_COST.
    assert series.dp_work([(4, 10)], 10) == 10 + series.ROW_COST + 10 + 2 * series.PASS_COST
    # A part above top / 2 takes one binomial pass; a tie goes to the stride
    # passes: part 9 of 2 cells, m = 11, prices 22 either way.
    m = series.PASS_COST // 2 + 1
    assert series._passes([(9, m), (8, m)], 10) == [
        (9, m, 2 * m, False), (8, m, 3 + series.PASS_COST, True)]
    # A part above top, or of multiplicity 0, takes no pass: only its set-up.
    assert series.dp_work([(30, 1), (40, 50), (3, 0)], 20) == 20 + 3 * series.ROW_COST
    # Each binomial term prices one more unit per PRODUCT_BITS of the bits
    # of C(m + j - 1, j) times bits * (top - jk) / top.
    bits, unsized = 20_000.0, sum(41 - j + series.PASS_COST for j in range(1, 41))
    want = unsized + sum((41 - j) * int(log2(comb(10**8 + j - 1, j)) * bits * (40 - j) / 40
                                        // series.PRODUCT_BITS) for j in range(1, 41))
    assert series._sized_units(1, 10**8, 40, bits, unsized, 40 * 10**8) == want
    assert want > 41 * 40 // 2 * 10
    assert series._passes([(1, 10**8)], 40)[0][2:] == (series._sized_units(
        1, 10**8, 40, series._entry_bits([(1, 10**8)], 40), unsized, 40 * 10**8), True)


def test_dp_runs_the_branch_dp_work_priced(monkeypatch):
    priced, run = [], []
    passes, binomial_pass = series._passes, series._binomial_pass

    def spy_passes(pairs, top):
        result = passes(pairs, top)
        priced.append(result)
        return result

    def spy_pass(table, k, m):
        run.append((k, m))
        return binomial_pass(table, k, m)

    monkeypatch.setattr(series, "_passes", spy_passes)
    monkeypatch.setattr(series, "_binomial_pass", spy_pass)
    branches = set()
    for quantity, n, r in [("pp", 60, None), ("ppso", 45, None), ("P_r", 40, 10**8), ("P_r", 300, 4)]:
        pairs = pattern(quantity, n, r)
        priced.clear()
        run.clear()
        work = series.dp_work(pairs, n)
        assert series.restricted_partition_row(pairs, n)[n] == oracle_value(quantity, n, r=r, backend="series")
        costs, again = priced
        assert again == costs
        assert run == [(k, m) for k, m, _, binomial in costs if binomial]
        assert work == n + sum(series.ROW_COST + units for _, _, units, _ in costs)
        branches |= {binomial for *_, binomial in costs}
    assert branches == {False, True}


def test_oracles_read_pairs_without_expanding(monkeypatch):
    want = {}
    cases = [(q, 3 if q in ("pp_r", "P_r") else None, (1, 1, 2, 5) if q == "p_a" else None)
             for q in QUANTITIES]
    for q, r, parts in cases:
        want[q] = [oracle_value(q, n, r=r, parts=parts, backend="series") for n in range(13)]

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle expanded its weights")

    monkeypatch.setattr(WeightFunction, "expand", refuse)
    monkeypatch.setattr(WeightSequence, "__init__", refuse)
    pattern.cache_clear()
    quantity_weights.cache_clear()
    for q, r, parts in cases:
        for backend in ("dp", "series"):
            assert list(series.oracle_row(q, 12, r=r, parts=parts, backend=backend)) == want[q]
            assert [oracle_value(q, n, r=r, parts=parts, backend=backend)
                    for n in range(13)] == want[q]
    assert pattern("p_a", 3, None, (5, 1, 2, 1)) == ((1, 2), (2, 1), (5, 1))


def test_dp_guard_prices_multiplicity_not_copies():
    # 150,000 copies of each part, but about 3e5 units of work.
    assert oracle_value("P_r", 100, r=150_000) == oracle_value("P_r", 100, r=150_000, backend="series")
    start = time.perf_counter()
    with pytest.raises(series.CostGuardExceeded, match="the DP oracle needs at least"):
        oracle_value("P_r", 4000, r=1000)
    assert time.perf_counter() - start < 1
