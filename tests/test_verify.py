from __future__ import annotations

import pytest

from partcalc import formulas, stirling, verify
from partcalc.sequences import FAMILIES

STEMS = [family.stem for family in FAMILIES.values() if family.stem is not None]


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
    [("examples", {3}), ("cross-method", set(range(1, 9))),
     ("oracle-consistency", set(range(1, 9))), ("stirling", set())],
)
def test_a_run_lists_each_n_once(listings, suite, listed):
    for _ in range(2):  # the second run lists afresh: no listing outlives its run
        listings.clear()
        results = verify.run_suite(suite)
        assert all(res.ok for res in results)
        assert len(listings) == len(set(listings))
        assert set(listings) == listed


def test_long_running_lists_diagrams_to_16(listings):
    results = verify.run_suite("oracle-consistency", long_running=True)
    assert all(res.ok for res in results)
    assert sorted(listings) == list(range(1, 17))
    symmetric = next(res for res in results if res.name == "enum[symmetric-vs-strict-odd]")
    assert symmetric.cases == 16


def test_vector_count_stops_at_the_vector_limit(monkeypatch):
    monkeypatch.setattr(formulas, "VECTOR_LIMIT", 42)  # p(10) = 42, p(11) = 56
    results = verify.run_suite("oracle-consistency", max_n=12)
    assert all(res.ok for res in results)
    counted = next(res for res in results if res.name == "vector-count-vs-p")
    assert counted.cases == 10


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
