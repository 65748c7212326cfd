from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from partcalc import formulas
from partcalc.dispatch import METHODS, ComputationRequest, RequestError, compute
from partcalc.formulas import CostGuardExceeded, HypothesisError
from partcalc.sequences import FAMILIES
from partcalc.series import oracle_value


def test_request_validation():
    ComputationRequest("pp", 3)
    ComputationRequest("pp_r", 3, r=2)
    ComputationRequest("p_a", 3, parts=(1, 2))
    with pytest.raises(RequestError):
        ComputationRequest("qq", 3)
    with pytest.raises(RequestError):
        ComputationRequest("pp", -1)
    with pytest.raises(RequestError):
        ComputationRequest("pp", 3, method="guess")
    with pytest.raises(RequestError):
        ComputationRequest("pp_r", 3)  # r missing
    with pytest.raises(RequestError):
        ComputationRequest("pp_r", 3, r=0)
    with pytest.raises(RequestError):
        ComputationRequest("pp", 3, r=2)  # r not accepted
    with pytest.raises(RequestError):
        ComputationRequest("p_a", 3)  # parts missing
    with pytest.raises(RequestError):
        ComputationRequest("p_a", 3, parts=(0, 2))
    with pytest.raises(RequestError):
        ComputationRequest("pp", 3, parts=(1, 2))  # parts not accepted


def test_auto_prefers_theorem_in_hypothesis():
    value, method = compute(ComputationRequest("pp", 5))
    assert (value, method) == (24, "theorem")
    value, method = compute(ComputationRequest("pps", 3))
    assert (value, method) == (4, "theorem")
    value, method = compute(ComputationRequest("P_r", 4, r=3))
    assert (value, method) == (51, "theorem")


def test_auto_falls_back_below_hypothesis():
    value, method = compute(ComputationRequest("pp", 2))
    assert (value, method) == (3, "oracle-dp")
    value, method = compute(ComputationRequest("p", 6))
    assert (value, method) == (11, "oracle-dp")
    value, method = compute(ComputationRequest("P_r", 3, r=3))
    assert (value, method) == (oracle_value("P_r", 3, r=3), "oracle-dp")


def test_auto_takes_dp_above_the_vector_limit():
    assert compute(ComputationRequest("pp", 100)) == (oracle_value("pp", 100), "oracle-dp")
    for strict in (False, True):
        with pytest.raises(CostGuardExceeded):
            compute(ComputationRequest("pp", 100, method="theorem", strict=strict))


def test_auto_reads_the_vector_limit(monkeypatch):
    # p(10) = 42 vectors, p(11) = 56.
    monkeypatch.setattr(formulas, "VECTOR_LIMIT", 42)
    assert compute(ComputationRequest("pps", 10)) == (oracle_value("pps", 10), "theorem")
    assert compute(ComputationRequest("pps", 11)) == (oracle_value("pps", 11), "oracle-dp")
    assert compute(ComputationRequest("pp_r", 11, r=12))[1] == "oracle-dp"
    with pytest.raises(CostGuardExceeded):
        compute(ComputationRequest("P_r", 11, r=3, method="theorem"))


def test_ppr_routing_collapses_to_pp():
    # r >= n means the row bound never binds.
    value, method = compute(ComputationRequest("pp_r", 4, r=9, method="theorem"))
    assert (value, method) == (13, "theorem")
    value, method = compute(ComputationRequest("pp_r", 4, r=9, method="stirling"))
    assert (value, method) == (13, "stirling")


def test_ppr_r1_is_ordinary_partitions():
    value, method = compute(ComputationRequest("pp_r", 6, r=1, method="stirling"))
    assert (value, method) == (11, "stirling")
    value, method = compute(ComputationRequest("P_r", 6, r=1, method="stirling"))
    assert (value, method) == (11, "stirling")


def test_explicit_methods_agree_where_defined():
    # Stirling boxes grow with lcm(1..n), so the all-methods sweep stays at
    # n = 4; the faster routes get a second sweep a bit higher.
    cases = [
        ComputationRequest("pp", 4),
        ComputationRequest("pps", 4),
        ComputationRequest("ppso", 4),
        ComputationRequest("pp_r", 4, r=2),
        ComputationRequest("P_r", 4, r=3),
    ]
    for base in cases:
        want = compute(
            ComputationRequest(base.quantity, base.n, r=base.r, method="oracle-dp")
        )[0]
        for method in ("oracle-series", "theorem", "stirling", "auto"):
            got, used = compute(
                ComputationRequest(base.quantity, base.n, r=base.r, method=method)
            )
            assert got == want, (base.quantity, method)
    for base in [
        ComputationRequest("pp", 9),
        ComputationRequest("pps", 9),
        ComputationRequest("pp_r", 9, r=3),
        ComputationRequest("P_r", 9, r=5),
    ]:
        want = compute(
            ComputationRequest(base.quantity, base.n, r=base.r, method="oracle-dp")
        )[0]
        for method in ("oracle-series", "theorem", "auto"):
            got, _ = compute(
                ComputationRequest(base.quantity, base.n, r=base.r, method=method)
            )
            assert got == want, (base.quantity, method)


def test_enum_method():
    value, method = compute(ComputationRequest("pp", 5, method="oracle-enum"))
    assert (value, method) == (24, "oracle-enum")
    value, method = compute(ComputationRequest("pps", 0, method="oracle-enum"))
    assert (value, method) == (1, "oracle-enum")
    value, method = compute(ComputationRequest("p", 7, method="oracle-enum"))
    assert (value, method) == (15, "oracle-enum")
    value, method = compute(ComputationRequest("pp_r", 5, r=2, method="oracle-enum"))
    assert (value, method) == (16, "oracle-enum")
    with pytest.raises(RequestError):
        compute(ComputationRequest("P_r", 4, r=2, method="oracle-enum"))
    with pytest.raises(RequestError):
        compute(ComputationRequest("p_a", 4, parts=(1, 2), method="oracle-enum"))


def test_strict_flag_controls_fallback():
    out_of_range = ComputationRequest("pp", 2, method="theorem")
    value, method = compute(out_of_range)
    assert (value, method) == (3, "oracle-dp")
    with pytest.raises(HypothesisError):
        compute(ComputationRequest("pp", 2, method="theorem", strict=True))
    with pytest.raises(HypothesisError):
        compute(ComputationRequest("ppso", 1, method="stirling", strict=True))
    # In hypothesis, strict changes nothing.
    assert compute(ComputationRequest("pp", 4, method="theorem", strict=True)) == (
        13,
        "theorem",
    )


def test_stirling_path_for_p_and_p_a():
    value, method = compute(ComputationRequest("p", 6, method="stirling"))
    assert (value, method) == (11, "stirling")
    value, method = compute(ComputationRequest("p_a", 6, parts=(1, 2, 3), method="stirling"))
    assert (value, method) == (7, "stirling")
    # p at n = 0 has an empty weight sequence; strict stirling refuses.
    with pytest.raises(HypothesisError):
        compute(ComputationRequest("p", 0, method="stirling", strict=True))
    assert compute(ComputationRequest("p", 0, method="stirling")) == (1, "oracle-dp")


def _in_stated_range(method, quantity, n, r):
    """Where FAMILIES says a strict route runs: r = 1 is read as p, then pp_r
    with r >= n as pp; p has no closed form, only the Stirling route."""
    if r == 1:
        quantity, r = "p", None
    elif quantity == "pp_r" and r >= n:
        quantity, r = "pp", None
    if quantity == "p" and method == "theorem":
        return False
    return FAMILIES[quantity].holds(n, r)


@pytest.mark.parametrize("quantity", list(FAMILIES))
@pytest.mark.parametrize("method", ["theorem", "stirling"])
def test_strict_routes_follow_the_family_table(method, quantity):
    takes_r = FAMILIES[quantity].takes_r
    for n in range(9):
        for r in range(1, 10) if takes_r else (None,):
            one_row = r == 1 or quantity == "p"
            if method == "stirling" and n > (6 if one_row else 4):
                continue  # congruence boxes grow with lcm(1..n)
            req = ComputationRequest(quantity, n, r=r, method=method, strict=True)
            if _in_stated_range(method, quantity, n, r):
                assert compute(req) == (oracle_value(quantity, n, r=r), method), req
            else:
                with pytest.raises(HypothesisError):
                    compute(req)


@given(
    st.sampled_from(["p", "pp", "pps", "ppso"]),
    st.integers(0, 14),
    st.sampled_from(METHODS),
)
@settings(max_examples=80, deadline=None)
def test_every_method_matches_dp(quantity, n, method):
    if method == "oracle-enum" and n > 10:
        return
    if method == "stirling" and n > 4:
        return  # congruence boxes grow with lcm(1..n); larger n is covered elsewhere
    want = oracle_value(quantity, n)
    if quantity == "ppso" and method == "oracle-enum":
        return  # diagram symmetry and the weighted series count differ
    got, _ = compute(ComputationRequest(quantity, n, method=method))
    assert got == want


@given(st.integers(1, 6), st.integers(0, 12), st.sampled_from(["auto", "theorem", "stirling"]))
@settings(max_examples=60, deadline=None)
def test_r_quantities_match_dp(r, n, method):
    if method == "stirling" and n > 4:
        return
    for quantity in ("pp_r", "P_r"):
        want = oracle_value(quantity, n, r=r)
        got, _ = compute(ComputationRequest(quantity, n, r=r, method=method))
        assert got == want


def test_auto_counts_the_vectors_once(monkeypatch):
    rows = []
    vector_count = formulas.vector_count

    def spy(n):
        rows.append(n)
        return vector_count(n)

    monkeypatch.setattr(formulas, "vector_count", spy)
    assert compute(ComputationRequest("pp", 60)) == (oracle_value("pp", 60), "theorem")
    assert rows == [60]
    rows.clear()
    # Above the limit the p-row stops at 64, where p(64) already passes it.
    assert compute(ComputationRequest("pp", 300)) == (oracle_value("pp", 300), "oracle-dp")
    assert rows == [64]


def test_vector_limit_check_does_not_grow_with_n():
    start = time.perf_counter()
    assert not formulas.within_vector_limit(10**5)
    assert not formulas.within_vector_limit(10**9)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(CostGuardExceeded, match=r"A_100000 has at least p\(64\) = 1741630"):
        compute(ComputationRequest("pp", 10**5, method="theorem"))
