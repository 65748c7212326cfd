from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from partcalc import series
from partcalc.dispatch import METHODS, ROUTES, ComputationRequest, RequestError, compute
from partcalc.sequences import FAMILIES, QUANTITIES, R_QUANTITIES, HypothesisError
from partcalc.series import CostGuardExceeded, oracle_value


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
    # Below the stated range the theorem walk is no candidate and auto takes
    # the series: on a family the DP does more work at every n >= 1.
    value, method = compute(ComputationRequest("pp", 2))
    assert (value, method) == (3, "oracle-series")
    value, method = compute(ComputationRequest("p", 6))
    assert (value, method) == (11, "oracle-series")
    value, method = compute(ComputationRequest("P_r", 3, r=3))
    assert (value, method) == (oracle_value("P_r", 3, r=3), "oracle-series")


def test_auto_takes_dp_above_the_vector_limit():
    # Above the vector limit auto takes an oracle, for pp the series (5,550
    # multiply-adds by its estimate); the DP still serves it on request.
    want = oracle_value("pp", 100)
    assert compute(ComputationRequest("pp", 100)) == (want, "oracle-series")
    assert compute(ComputationRequest("pp", 100, method="oracle-dp")) == (want, "oracle-dp")
    for strict in (False, True):
        with pytest.raises(CostGuardExceeded):
            compute(ComputationRequest("pp", 100, method="theorem", strict=strict))


def test_auto_reads_the_vector_limit(monkeypatch):
    # pps(7): p(7) = 15 vectors, 4 * 15 = 60 multiply-adds against the
    # series' 63, so the theorem runs while the limit admits 15 vectors.
    monkeypatch.setattr(series, "VECTOR_LIMIT", 15)
    assert compute(ComputationRequest("pps", 7)) == (oracle_value("pps", 7), "theorem")
    monkeypatch.setattr(series, "VECTOR_LIMIT", 14)
    assert compute(ComputationRequest("pps", 7)) == (oracle_value("pps", 7), "oracle-series")
    assert compute(ComputationRequest("pp_r", 11, r=12))[1] == "oracle-series"
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
    value, method = compute(ComputationRequest("P_r", 5, r=1, method="oracle-enum"))
    assert (value, method) == (7, "oracle-enum")  # P_r with r = 1 is p
    # No diagram kind counts P_r with r >= 2 or p_a: the cheapest route serves them.
    assert compute(ComputationRequest("P_r", 4, r=2, method="oracle-enum")) == (20, "theorem")
    assert compute(ComputationRequest("p_a", 4, parts=(1, 2), method="oracle-enum")) == (3, "oracle-dp")
    with pytest.raises(HypothesisError):
        compute(ComputationRequest("P_r", 4, r=2, method="oracle-enum", strict=True))
    with pytest.raises(HypothesisError):
        compute(ComputationRequest("p_a", 4, parts=(1, 2), method="oracle-enum", strict=True))


def test_strict_flag_controls_fallback():
    out_of_range = ComputationRequest("pp", 2, method="theorem")
    value, method = compute(out_of_range)
    assert (value, method) == (3, "oracle-series")
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


# A list of parts is kept as a tuple, so every route, and the oracles called
# directly, can key the cached pattern on it.
def test_every_method_takes_a_list_of_parts():
    assert ComputationRequest("p_a", 10, parts=[3, 1, 2]).parts == (3, 1, 2)
    for method in METHODS:
        assert compute(ComputationRequest("p_a", 10, parts=[1, 2, 3], method=method))[0] == 14, method
    for backend in ("dp", "series"):
        assert oracle_value("p_a", 10, parts=[1, 2, 3], backend=backend) == 14
        assert series.oracle_row("p_a", 10, parts=[3, 1, 2], backend=backend)[10] == 14


def test_auto_reaches_p_a_where_both_oracles_refuse(monkeypatch):
    # Sylvester's wave for parts 1, 2, 3: p_a(n) is the integer nearest (n + 3)^2 / 12.
    n = 10**12
    nearest = ((n + 3) ** 2 + 6) // 12
    assert compute(ComputationRequest("p_a", n, parts=(1, 2, 3))) == (nearest, "stirling")
    # A request that every route refuses names each refusal.
    with pytest.raises(CostGuardExceeded) as refused:
        compute(ComputationRequest("p_a", n, parts=tuple(range(1, 41))))
    for route in ("the DP oracle", "the series oracle", "congruence box"):
        assert route in str(refused.value)
    # The Stirling route is weighed only when both oracles refuse.
    from partcalc import stirling

    def never(a):
        raise AssertionError("an admitted request priced the Stirling box")

    monkeypatch.setattr(stirling, "check_generic_box", never)
    assert compute(ComputationRequest("p_a", 60, parts=(1, 2, 3))) == (331, "oracle-dp")


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
            if method == "stirling" and n > (6 if one_row else 5):
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
    if method == "stirling" and n > 5:
        return  # congruence boxes grow with lcm(1..n); larger n is covered elsewhere
    want = oracle_value(quantity, n)
    got, _ = compute(ComputationRequest(quantity, n, method=method))
    assert got == want


def _route_grid():
    """Every quantity at n = 0..9, with r = 1..4 and p_a parts (1, 2, 3) and (2, 5)."""
    for quantity in QUANTITIES:
        for n in range(10):
            if quantity == "p_a":
                for parts in ((1, 2, 3), (2, 5)):
                    yield quantity, n, None, parts
            else:
                for r in range(1, 5) if quantity in R_QUANTITIES else (None,):
                    yield quantity, n, r, None


@pytest.mark.parametrize("method", list(ROUTES))
def test_route_table_tells_the_truth(method):
    """A route that serves a request gives the DP's value or a guard refusal;
    one that does not serve it is refused under strict and falls back
    to another route's label without."""
    route = ROUTES[method]
    for quantity, n, r, parts in _route_grid():
        want = oracle_value(quantity, n, r=r, parts=parts, backend="dp")
        req = ComputationRequest(quantity, n, r, parts, method=method)
        if route.serves(req):
            try:
                assert route.value(req) == want, req
            except CostGuardExceeded:
                pass
        else:
            with pytest.raises(HypothesisError):
                compute(ComputationRequest(quantity, n, r, parts, method=method, strict=True))
            value, label = compute(req)
            assert value == want and label != method, req


@given(st.integers(1, 6), st.integers(0, 12), st.sampled_from(["auto", "theorem", "stirling"]))
@settings(max_examples=60, deadline=None)
def test_r_quantities_match_dp(r, n, method):
    if method == "stirling" and n > 5:
        return
    for quantity in ("pp_r", "P_r"):
        want = oracle_value(quantity, n, r=r)
        got, _ = compute(ComputationRequest(quantity, n, r=r, method=method))
        assert got == want


def test_auto_counts_the_vectors_once(monkeypatch):
    rows = []
    vector_count = series.vector_count

    def spy(n):
        rows.append(n)
        return vector_count(n)

    # The reach is read once per process and limit; after that the route
    # choice prices p(n) once, and the walk's own guard reads no count.
    series.vector_reach()
    monkeypatch.setattr(series, "vector_count", spy)
    # pp(7): the theorem's 4 * p(7) = 60 multiply-adds beat the series' 63.
    assert compute(ComputationRequest("pp", 7)) == (oracle_value("pp", 7), "theorem")
    assert rows == [7]
    rows.clear()
    # p(60) = 966,467 vectors lose to the series' 2,130 multiply-adds.
    assert compute(ComputationRequest("pp", 60)) == (oracle_value("pp", 60), "oracle-series")
    assert rows == [60]
    rows.clear()
    # Beyond the reach the theorem is not priced at all.
    assert compute(ComputationRequest("pp", 300)) == (oracle_value("pp", 300), "oracle-series")
    assert rows == []


def test_vector_limit_check_does_not_grow_with_n():
    start = time.perf_counter()
    assert series.vector_reach() < 10**5
    for n in (10**5, 10**9):
        with pytest.raises(CostGuardExceeded, match=rf"A_{n} has at least p\(64\) = 1741630 "):
            compute(ComputationRequest("pp", n, method="theorem"))
    assert time.perf_counter() - start < 0.5
