from __future__ import annotations

import gc

import pytest

from partcalc import formulas, series, stirling, verify
from partcalc.sequences import FAMILIES, pattern

STEMS = [family.stem for family in FAMILIES.values() if family.stem is not None]


# Every check of the default suites, with its number of cases.
DEFAULT_CHECKS = {
    "examples": {
        "known-values[pp]": 16, "known-values[pp_r]": 17, "known-values[pps]": 10,
        "known-values[ppso]": 4, "known-values[symmetric-diagrams]": 1,
        "known-values[P_r]": 10, "known-values[p_a]": 4,
        "known-values[multiplicity-vectors]": 2, "known-values[block-coefficients]": 4,
    },
    "cross-method": {
        "cross-method[p]": 34, "cross-method[pp]": 44, "cross-method[pp_r]": 332,
        "cross-method[pps]": 44, "cross-method[ppso]": 36, "cross-method[P_r]": 203,
        "vector-sum-below-range": 55, "block-poly[direct-vs-closed]": 425,
        "block-poly[reciprocity]": 410, "block-poly[mass]": 15,
    },
    "oracle-consistency": {
        "series-vs-dp[p]": 41, "series-vs-dp[pp]": 41, "series-vs-dp[pp_r]": 246,
        "series-vs-dp[pps]": 41, "series-vs-dp[ppso]": 41, "series-vs-dp[P_r]": 246,
        "enum-vs-series[all]": 8, "enum-vs-series[strict]": 8,
        "enum-vs-series[max-rows]": 36, "enum[symmetric-vs-strict-odd]": 8,
        "vector-count-vs-p": 40, "dp-permutation-invariance": 84,
        "monotone[pp_r-in-r]": 90,
    },
    "stirling": {
        **{f"stirling-engine-vs-dp[parts={','.join(map(str, parts))}]": 61
           for parts in verify.ENGINE_SEQUENCES},
        "stirling-wrapper[pp]": 2, "stirling-wrapper[pp_r]": 3, "stirling-wrapper[pps]": 2,
        "stirling-wrapper[ppso]": 2, "stirling-wrapper[P_r]": 2,
        "stirling[partial-sum-denominators]": 2,
    },
}


def test_default_suites_keep_every_check_and_case():
    totals = {}
    for suite, checks in DEFAULT_CHECKS.items():
        results = verify.run_suite(suite)
        assert all(res.ok for res in results), suite
        assert {res.name: res.cases for res in results} == checks
        totals[suite] = sum(res.cases for res in results)
    assert totals == {"examples": 68, "cross-method": 1598, "oracle-consistency": 930, "stirling": 379}


def test_a_run_leaves_no_reference_cycle():
    # A warm-up run first, so that module caches are already filled.
    for suite in DEFAULT_CHECKS:
        verify.run_suite(suite)
    gc.disable()
    try:
        gc.collect()
        for suite in DEFAULT_CHECKS:
            verify.run_suite(suite)
            assert gc.collect() == 0, suite
    finally:
        gc.enable()


@pytest.mark.parametrize("suite", ["examples", "cross-method", "oracle-consistency", "stirling"])
def test_a_run_builds_each_oracle_row_once(monkeypatch, suite):
    real = series.oracle_row
    built = []

    def spy(quantity, top, **kwargs):
        built.append((quantity, top, tuple(sorted(kwargs.items()))))
        return real(quantity, top, **kwargs)

    monkeypatch.setattr(series, "oracle_row", spy)
    results = verify.run_suite(suite)
    assert all(res.ok for res in results)
    assert built
    assert len(built) == len(set(built))
    if suite in ("examples", "cross-method"):
        # Every read of a (quantity, r, parts, backend) comes from one row.
        keys = [(quantity, kwargs) for quantity, _, kwargs in built]
        assert len(keys) == len(set(keys))


def test_oracle_consistency_builds_each_distinct_row_once(monkeypatch):
    # p, pp_r(r = 1) and P_r(r = 1) are one pattern, pp_r(r >= top) and pp
    # are one, permuted parts are one, and shorter rows are read off longer.
    real = series.oracle_row
    built = []

    def spy(quantity, top, *, r=None, parts=None, backend="dp"):
        built.append((quantity, top, r, parts, backend))
        return real(quantity, top, r=r, parts=parts, backend=backend)

    monkeypatch.setattr(series, "oracle_row", spy)
    results = verify.run_suite("oracle-consistency")
    assert all(res.ok for res in results)
    assert len(built) == 40
    for i, (quantity, top, r, parts, backend) in enumerate(built):
        for earlier, earlier_top, earlier_r, earlier_parts, earlier_backend in built[:i]:
            if earlier_backend != backend:
                continue
            assert pattern(earlier, earlier_top, earlier_r, earlier_parts) != pattern(quantity, top, r, parts)
            assert (earlier, earlier_r, earlier_parts) != (quantity, r, parts) or earlier_top < top


@pytest.mark.parametrize("suite", ["examples", "cross-method"])
def test_the_alternating_sum_reads_the_suites_own_pr_row(monkeypatch, suite):
    def refuse(*args, **kwargs):
        raise AssertionError("the alternating sum built a P_r row of its own")

    monkeypatch.setattr(formulas, "oracle_row", refuse)
    results = verify.run_suite(suite)
    assert all(res.ok for res in results)
    checked = next(res for res in results if res.name.endswith("[pp_r]"))
    assert checked.cases == DEFAULT_CHECKS[suite][checked.name]


def test_a_wrong_stirling_row_fails_its_suite(monkeypatch):
    real = stirling.restricted_row_stirling

    def off_by_one(a, top):
        row = real(a, top)
        row[min(17, top)] += 1
        return row

    monkeypatch.setattr(stirling, "restricted_row_stirling", off_by_one)
    results = verify.run_suite("stirling")
    failing = [res.name for res in results if not res.ok]
    assert failing == [f"stirling-engine-vs-dp[parts={','.join(map(str, parts))}]"
                       for parts in verify.ENGINE_SEQUENCES]


def test_oracle_consistency_lists_no_large_vector_set(monkeypatch):
    seen = []
    real = formulas.multiplicity_vectors

    def spy(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(formulas, "multiplicity_vectors", spy)
    results = verify.run_suite("oracle-consistency")
    assert all(res.ok for res in results)
    assert [n for n in seen if n > 4] == []
    counted = next(res for res in results if res.name == "vector-count-vs-p")
    assert counted.cases == 40


@pytest.mark.parametrize(
    "suite, listed",
    [("examples", [3]), ("cross-method", [8]), ("oracle-consistency", [8]), ("stirling", [])],
)
def test_a_run_lists_each_n_once(listings, suite, listed):
    # One listing to the largest n the suite reads holds every smaller n.
    for _ in range(2):  # the second run lists afresh: no listing outlives its run
        listings.clear()
        results = verify.run_suite(suite)
        assert all(res.ok for res in results)
        assert listings == listed


def test_long_running_lists_diagrams_to_20(listings):
    results = verify.run_suite("oracle-consistency", long_running=True)
    assert all(res.ok for res in results)
    assert listings == [20]
    symmetric = next(res for res in results if res.name == "enum[symmetric-vs-strict-odd]")
    assert symmetric.cases == 20


def test_block_poly_checks_the_stirling_sums_own_tables(monkeypatch):
    built = []
    real = stirling._block_table

    def spy(copies, alpha):
        built.append((copies, alpha))
        return real(copies, alpha)

    monkeypatch.setattr(stirling, "_block_table", spy)
    results = verify.run_suite("cross-method")
    assert all(res.ok for res in results)
    cases = [(copies, modulus // copies - 1) for modulus in (6, 12, 60) for copies in range(1, 7)
             if modulus % copies == 0]
    assert built == cases
    assert next(res for res in results if res.name == "block-poly[mass]").cases == len(cases)


@pytest.mark.parametrize("suite, check", [("examples", "known-values[block-coefficients]"),
                                          ("cross-method", "block-poly[direct-vs-closed]")])
def test_a_wrong_block_table_fails_its_check(monkeypatch, suite, check):
    real = stirling._block_table
    monkeypatch.setattr(stirling, "_block_table", lambda copies, alpha: (2, *real(copies, alpha)[1:]))
    results = verify.run_suite(suite)
    assert check in [res.name for res in results if not res.ok]


def test_vector_count_stops_at_the_vector_limit(monkeypatch):
    monkeypatch.setattr(series, "VECTOR_LIMIT", 42)  # p(10) = 42, p(11) = 56
    results = verify.run_suite("oracle-consistency", max_n=12)
    assert all(res.ok for res in results)
    counted = next(res for res in results if res.name == "vector-count-vs-p")
    assert counted.cases == 10


def test_vector_count_walks_once_per_run(monkeypatch):
    walked = []
    real = formulas._vector_histogram

    def spy(top, pattern):
        walked.append(top)
        return real(top, pattern)

    monkeypatch.setattr(formulas, "_vector_histogram", spy)
    results = verify.run_suite("oracle-consistency")
    assert all(res.ok for res in results)
    assert walked == [40]


def test_vector_sum_below_range_is_checked():
    results = verify.run_suite("cross-method", max_n=5)
    below = next(res for res in results if res.name == "vector-sum-below-range")
    assert below.ok
    # pp, pps, ppso at n = 1, 2; pp_r and P_r at every (n, r) in 1..5 x 1..6
    # outside their ranges.
    assert below.cases == 2 + 2 + 2 + 24 + 25


@pytest.mark.parametrize("kind", ["formula", "stirling"])
@pytest.mark.parametrize("stem", STEMS)
def test_a_wrong_wrapper_fails_its_suite(monkeypatch, stem, kind):
    module = formulas if kind == "formula" else stirling
    name = f"{stem}_{kind}"
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + 1)
    if kind == "formula":
        results = verify.run_suite("cross-method", max_n=6)
    else:
        results = verify.run_suite("stirling", max_n=4)
    assert any(not res.ok for res in results), name
