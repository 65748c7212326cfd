"""Cost-based route choice: estimates, the oracle work guard, tables from one row."""

from __future__ import annotations

import time

import pytest

from partcalc import formulas, sequences, series
from partcalc.cli import main
from partcalc.dispatch import METHODS, ComputationRequest, compute, compute_table
from partcalc.formulas import CostGuardExceeded
from partcalc.sequences import FAMILIES, QUANTITIES
from partcalc.series import oracle_value

PARTS_25 = (2, 3, 5, 7, 9, 11, 12, 14, 17, 19, 21, 23, 26, 28, 30, 33, 35, 38, 41, 44, 47, 50, 53, 56, 59)


def _requests(top, rs=range(1, 6), parts=((1, 2, 3), (2, 5), PARTS_25)):
    for quantity in QUANTITIES:
        for n in range(top + 1):
            if quantity == "p_a":
                for a in parts:
                    yield ComputationRequest(quantity, n, parts=a)
            elif FAMILIES[quantity].takes_r:
                for r in rs:
                    yield ComputationRequest(quantity, n, r=r)
            else:
                yield ComputationRequest(quantity, n)


def _theorem_serves(req):
    """Whether the theorem walk may serve req: r = 1 is read as p, pp_r with
    r >= n as pp, and p and p_a have no closed form."""
    quantity, r = req.quantity, req.r
    if r == 1:
        return False
    if quantity == "pp_r" and r >= req.n:
        quantity, r = "pp", None
    return quantity not in ("p", "p_a") and FAMILIES[quantity].holds(req.n, r)


def test_auto_takes_the_smallest_estimate():
    for req in _requests(20):
        costs = {}
        leaves = oracle_value("p", req.n)  # |A_n|
        if _theorem_serves(req) and leaves <= formulas.VECTOR_LIMIT:
            costs["theorem"] = formulas.LEAF_COST * leaves
        backends = ("dp", "series") if req.quantity == "p_a" or req.n == 0 else ("series",)
        for backend in backends:
            costs[f"oracle-{backend}"] = series.oracle_cost(
                backend, req.quantity, req.n, r=req.r, parts=req.parts
            )[0]
        least = min(costs.values())
        first = next(route for route in ("theorem", "oracle-dp", "oracle-series")
                     if costs.get(route) == least)
        assert compute(req)[1] == first, (req, costs)


def test_family_dp_costs_more_than_the_series():
    # Why auto leaves the DP out for a family at n >= 1.
    for req in _requests(40, rs=range(1, 15), parts=()):
        dp, series_ = (series.oracle_cost(backend, req.quantity, req.n, r=req.r)[0]
                       for backend in ("dp", "series"))
        assert dp > series_ if req.n else dp == series_ == 0, req


def test_ties_break_theorem_then_dp_then_series(monkeypatch):
    # p(0): no work by either oracle.
    assert compute(ComputationRequest("p", 0)) == (1, "oracle-dp")
    # The theorem's estimate for pp(10): 4 * p(10) = 168 multiply-adds.
    theorem = formulas.LEAF_COST * oracle_value("p", 10)
    monkeypatch.setattr(series, "dp_work", lambda pairs, top: theorem)
    monkeypatch.setattr(series, "series_work", lambda parts, top: theorem)
    assert compute(ComputationRequest("p_a", 10, parts=(1, 2, 3)))[1] == "oracle-dp"
    assert compute(ComputationRequest("pp", 10)) == (oracle_value("pp", 10), "theorem")
    monkeypatch.setattr(series, "series_work", lambda parts, top: theorem - 1)
    assert compute(ComputationRequest("pp", 10))[1] == "oracle-series"


def test_series_work_counts_the_support_of_its_recurrence():
    # Parts 3, 3, 6, 6, 12 at n = 12: b(k) != 0 at k = 3, 6, 9, 12, so
    # 10 + 7 + 4 + 1 = 22 pairs, and ROW_COST per coefficient.
    assert series.series_work((3, 6, 12), 12) == 22 + series.ROW_COST * 12
    assert series.series_work((1, 5), 10) == 55 + series.ROW_COST * 10
    assert series.series_work((7,), 6) == series.ROW_COST * 6
    for parts in ((2, 3), (4, 6, 9), (5,)):
        for top in range(30):
            pairs = sum(top - k + 1 for k in range(1, top + 1) if any(k % d == 0 for d in parts))
            assert series.series_work(parts, top) == pairs + series.ROW_COST * top


def _best_times(requests, samples):
    """The least time of one request of each route, over samples, the routes
    taking turns so that a slow spell of the machine falls on all of them.
    Each request starts with empty caches, as in a fresh process, but for
    the theorem's reach and the p row to 64, read once per process."""
    best = {route: float("inf") for route in requests}
    for _ in range(samples):
        for route, req in requests.items():
            sequences.pattern.cache_clear()
            sequences.quantity_weights.cache_clear()
            start = time.perf_counter()
            compute(req)
            best[route] = min(best[route], time.perf_counter() - start)
    return best


@pytest.mark.parametrize("quantity, r, parts, sizes", [
    ("pp", None, None, (5, 10, 42, 300, 1000)),
    ("pps", None, None, (10, 42, 300, 1000)),
    ("P_r", 4, None, (10, 42, 300, 1000)),
    ("p_a", None, PARTS_25, (10, 42, 300, 1000)),
    ("p_a", None, (3, 3, 6, 6, 12), (12,)),
])
def test_chosen_route_is_within_half_again_of_the_fastest(quantity, r, parts, sizes):
    for n in sizes:
        samples = 300 if n <= 12 else 9 if n <= 42 else 1
        chosen = compute(ComputationRequest(quantity, n, r=r, parts=parts))[1]
        routes = ["oracle-dp", "oracle-series"]
        if quantity != "p_a" and n <= formulas.vector_reach():
            routes.append("theorem")
        requests = {route: ComputationRequest(quantity, n, r=r, parts=parts, method=route)
                    for route in routes}
        times = _best_times(requests, samples)
        assert times[chosen] <= 1.5 * min(times.values()), (quantity, n, chosen, times)


def test_auto_table_reads_one_oracle_row(monkeypatch):
    calls = []
    for name in ("euler_product", "restricted_partition_row", "oracle_value"):
        original = getattr(series, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(series, name, spy)
    rows = compute_table("pp", 40, 45)
    assert calls == ["euler_product"]
    assert rows == [(n, oracle_value("pp", n, backend="series"), "oracle-series") for n in range(40, 46)]
    want = [oracle_value("pp_r", n, r=2) for n in range(31)]
    calls.clear()
    assert [value for _, value, _ in compute_table("pp_r", 0, 30, r=2, method="oracle-dp")] == want
    assert calls == ["restricted_partition_row"]


def _outcome(call, *args, **kwargs):
    """call's result, or the type and message of what it raises."""
    try:
        return call(*args, **kwargs)
    except (ValueError, CostGuardExceeded) as exc:
        return type(exc), str(exc)


def _per_n(quantity, n_from, n_to, r, method, strict):
    """(n, value, label) by compute at n_to, then at each n from n_from up."""
    def at(n):
        return (n, *compute(ComputationRequest(quantity, n, r, method=method, strict=strict)))

    last = at(n_to)
    return [at(n) for n in range(n_from, n_to)] + [last]


def _family_cases(rs=range(1, 5)):
    for quantity in FAMILIES:
        for r in rs if FAMILIES[quantity].takes_r else (None,):
            yield quantity, r


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_every_table_equals_its_per_n_computes(method, strict):
    # Each table to n_to = 0..12, so every n is a table's top once; where
    # compute raises, the table raises the same, with n_to evaluated first.
    # auto reads the series' row, so it labels every n oracle-series.  An
    # empty range is empty before any work, even above every guard.
    def check(quantity, r, n_to):
        want = _outcome(_per_n, quantity, 0, n_to, r, method, strict)
        if method == "auto":
            want = [(n, value, "oracle-series") for n, value, _ in want]
        got = _outcome(compute_table, quantity, 0, n_to, r=r, method=method, strict=strict)
        assert got == want, (quantity, r, n_to)
        assert compute_table(quantity, n_to + 1, n_to, r=r, method=method, strict=strict) == []
        assert compute_table(quantity, 10**6 + 1, 10**6, r=r, method=method, strict=strict) == []

    for quantity, r in _family_cases():
        for n_to in range(13):
            if method == "stirling" and n_to == 6 and (quantity == "p" or r == 1):
                continue  # p(6)'s generic box walks 6.5*10**7 points, about 0.4 s
            check(quantity, r, n_to)
    if method == "theorem":
        for quantity, r in _family_cases(rs=(1, 3)):
            if quantity != "p":
                check(quantity, r, 60)


def test_auto_and_tables_equal_the_dp():
    for req in _requests(60, rs=range(1, 9)):
        want = compute(ComputationRequest(req.quantity, req.n, r=req.r, parts=req.parts,
                                          method="oracle-dp"))[0]
        assert compute(req)[0] == want, req
    for quantity in FAMILIES:
        for r in range(1, 9) if FAMILIES[quantity].takes_r else (None,):
            want = [oracle_value(quantity, n, r=r) for n in range(61)]
            for method in ("auto", "oracle-dp", "oracle-series"):
                rows = compute_table(quantity, 0, 60, r=r, method=method)
                assert [value for _, value, _ in rows] == want, (quantity, r, method)
                assert len({used for _, _, used in rows}) == 1


def test_oracle_work_guard_reads_its_limit(monkeypatch):
    pp39, pp40 = oracle_value("pp", 39), oracle_value("pp", 40)
    monkeypatch.setattr(series, "ORACLE_WORK_LIMIT", 1000)
    # pp(39): 780 + 5 * 39 = 975 multiply-adds by the series, more than 4,000
    # by the DP.
    assert compute(ComputationRequest("pp", 39)) == (pp39, "oracle-series")
    with pytest.raises(CostGuardExceeded, match="the DP oracle needs at least"):
        compute(ComputationRequest("pp", 39, method="oracle-dp"))
    # p(40): 820 + 5 * 40 = 1,020 by the series and more by the DP, so auto
    # has no route left; pp(40) still has the theorem walk.
    for method in ("auto", "oracle-series"):
        with pytest.raises(CostGuardExceeded, match="the series oracle needs at least 1020 "):
            compute(ComputationRequest("p", 40, method=method))
    with pytest.raises(CostGuardExceeded, match="the DP oracle needs at least"):
        compute(ComputationRequest("p", 40, method="oracle-dp"))
    assert compute(ComputationRequest("pp", 40)) == (pp40, "theorem")
    # A table is guarded once, at the top of its range.
    assert compute_table("pp", 0, 39)[-1] == (39, pp39, "oracle-series")
    assert main(["table", "--quantity", "pp", "--from", "0", "--to", "40"]) == 3


def test_p_a_guard_admits_what_the_estimates_admit(monkeypatch):
    # The guard admits a p_a request at once when a ceiling of both estimates
    # is within the limit; it must never admit what an estimate refuses.
    monkeypatch.setattr(series, "ORACLE_WORK_LIMIT", 2000)
    for parts in ((1,), (7,), (2, 5), (3, 3, 6, 6, 12), PARTS_25, (2,) * 20 + (5,) * 14):
        for n in range(0, 90, 3):
            for backend in ("dp", "series"):
                refused = series.oracle_cost(backend, "p_a", n, parts=parts)[1] is not None
                try:
                    oracle_value("p_a", n, parts=parts, backend=backend)
                except CostGuardExceeded:
                    assert refused, (parts, n, backend)
                else:
                    assert not refused, (parts, n, backend)


def test_huge_requests_are_refused_before_any_work(monkeypatch, capsys, family_patterns_up_to):
    def never(*args, **kwargs):
        raise AssertionError("the guard let a huge request through")

    for name in ("euler_product", "restricted_partition_row", "quantity_weights"):
        monkeypatch.setattr(series, name, never)
    family_patterns_up_to(0)
    for n in (10**6, 10**12):
        for method in ("auto", "oracle-dp", "oracle-series"):
            start = time.perf_counter()
            code = main(["compute", "--quantity", "p", "--n", str(n), "--method", method])
            assert time.perf_counter() - start < 1
            assert code == 3
            assert "cost guard" in capsys.readouterr().err
    assert main(["table", "--quantity", "pp", "--from", "0", "--to", str(10**6)]) == 3
    # A part list whose parts all exceed n does no pass, but its row still
    # has n + 1 coefficients.  auto takes the Stirling sum, a box of one point.
    argv = ["compute", "--quantity", "p_a", "--parts", str(10**13), "--n", str(10**12)]
    for method in ("oracle-dp", "oracle-series"):
        assert main([*argv, "--method", method]) == 3
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == f"p_a({10**12}; parts={10**13}) = 0  (method: stirling)\n"
