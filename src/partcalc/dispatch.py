"""Route a quantity request to a formula, an oracle, or a Stirling sum.

The stirling and diagrams modules load on the first request that takes their
route: a fresh process that runs one theorem or DP request never needs them.
"""

from __future__ import annotations

from collections.abc import Callable

from . import formulas, series
from .sequences import (
    FAMILIES,
    QUANTITIES,
    R_QUANTITIES,
    Family,
    Value,
    WeightSequence,
)

METHODS = ("auto", "oracle-series", "oracle-dp", "oracle-enum", "theorem", "stirling")
ORACLES = ("oracle-dp", "oracle-series")


class RequestError(ValueError):
    """Invalid quantity/parameter combination."""


class ComputationRequest(Value):
    __slots__ = ("quantity", "n", "r", "parts", "method", "strict")

    def __init__(
        self,
        quantity: str,
        n: int,
        r: int | None = None,
        parts: tuple[int, ...] | None = None,
        method: str = "auto",
        strict: bool = False,
    ) -> None:
        if quantity not in QUANTITIES:
            raise RequestError(f"unknown quantity {quantity!r}")
        if n < 0:
            raise RequestError("n must be >= 0")
        if method not in METHODS:
            raise RequestError(f"unknown method {method!r}")
        if quantity in R_QUANTITIES:
            if r is None:
                raise RequestError(f"quantity {quantity!r} requires --r")
            if r < 1:
                raise RequestError("r must be >= 1")
        elif r is not None:
            raise RequestError(f"quantity {quantity!r} does not take --r")
        if quantity == "p_a":
            if not parts:
                raise RequestError("quantity 'p_a' requires --parts")
            if any(p < 1 for p in parts):
                raise RequestError("parts must be positive")
        elif parts is not None:
            raise RequestError(f"quantity {quantity!r} does not take --parts")
        self.quantity = quantity
        self.n = n
        self.r = r
        self.parts = parts
        self.method = method
        self.strict = strict


def _reduce(req: ComputationRequest) -> tuple[str, int, int | None]:
    """The family whose sums serve the request: r = 1 makes pp_r and P_r the
    ordinary partitions p, and pp_r with r >= n is pp."""
    q, n, r = req.quantity, req.n, req.r
    if q in R_QUANTITIES and r == 1:
        return "p", n, None
    if q == "pp_r" and r >= n:
        return "pp", n, None
    return q, n, r


def _stirling():
    """The stirling module, imported by the first Stirling request."""
    from . import stirling

    return stirling


def _path(req: ComputationRequest) -> Callable[[], int] | None:
    """The Stirling evaluation for method "stirling", else the theorem
    evaluation, or None outside the family's stated range."""
    stirling_route = req.method == "stirling"
    if req.quantity == "p_a":
        parts, n = req.parts, req.n
        assert parts is not None
        if not stirling_route:
            return None
        return lambda: _stirling().restricted_count_stirling(WeightSequence.from_parts(parts), n)
    q, n, r = _reduce(req)
    family = FAMILIES[q]
    if not family.holds(n, r):
        return None
    if family.stem is None:  # p has no closed form; its Stirling sum is the generic engine
        if not stirling_route:
            return None
        return lambda: _stirling().partition_count_stirling(n)
    if stirling_route:
        return lambda: wrapper_value(family, "stirling", n, r)
    return lambda: wrapper_value(family, "formula", n, r)


def wrapper_value(family: Family, kind: str, n: int, r: int | None = None) -> int:
    """The family's wrapper formulas.<stem>_formula (kind "formula") or
    stirling.<stem>_stirling (kind "stirling") at (n, r).

    The wrapper is looked up on each call, so a replaced module attribute
    (a tracer, a test double) is the one called.
    """
    module = _stirling() if kind == "stirling" else formulas
    wrapper = getattr(module, f"{family.stem}_{kind}")
    return wrapper(n, r) if family.takes_r else wrapper(n)


def _enum_value(req: ComputationRequest) -> int:
    from . import diagrams  # imported by the first enumeration request

    family = FAMILIES.get(req.quantity)
    kind = family.diagram if family else None
    if req.quantity == "ppso":
        kind = "symmetric"  # known defect, ROADMAP item 4: counts another sequence
    if kind is None:
        raise RequestError(f"no diagram predicate for quantity {req.quantity!r}")
    if req.n == 0:
        return 1
    r = 1 if req.quantity == "p" else req.r
    return diagrams.count_diagrams(req.n, kind, r=r)


def _oracle(req: ComputationRequest, route: str) -> int:
    return series.oracle_value(
        req.quantity, req.n, r=req.r, parts=req.parts, backend=route.removeprefix("oracle-")
    )


def _cheapest(req: ComputationRequest, theorem: bool = False) -> str:
    """The route with the least estimated work, in multiply-adds, among those
    whose guard admits req: the theorem walk when theorem is set and n is
    within formulas.vector_reach(), then oracle-dp, then oracle-series, in
    the order that breaks a tie.  On a family the DP does more work than the
    series at every n >= 1 (see series.oracle_cost), so it is a candidate
    there only at n = 0, where neither works.  Raises CostGuardExceeded when every candidate is
    refused."""
    best = None
    refusals = []
    least = min(req.parts or (1,))
    for backend in ("dp", "series") if req.quantity == "p_a" or req.n == 0 else ("series",):
        # The multiples of the least part alone are a floor of the series' work.
        if best and backend == "series" and series.series_work((least,), req.n) >= best[0]:
            break
        work, refusal = series.oracle_cost(backend, req.quantity, req.n, r=req.r, parts=req.parts)
        if refusal:
            refusals.append(refusal)
        elif best is None or work < best[0]:
            best = (work, f"oracle-{backend}")
    if theorem and req.n <= formulas.vector_reach():
        work = formulas.LEAF_COST * formulas.vector_count(req.n)
        if best is None or work <= best[0]:
            best = (work, "theorem")
    if best is None:
        raise formulas.CostGuardExceeded("; ".join(refusals))
    return best[1]


def compute(req: ComputationRequest) -> tuple[int, str]:
    """Evaluate the request; returns (value, method actually used).

    method="auto" runs the route with the least estimated work, in
    big-integer multiply-adds, among those whose guard admits the request:
    the theorem walk (formulas.LEAF_COST per vector of A_n) where the
    family's stated range holds, the DP oracle (series.dp_work) for p_a,
    and the series oracle (series.series_work); a tie goes to the theorem,
    then to the DP.  Explicit "theorem"/"stirling" requests outside their
    hypotheses take the cheaper oracle the same way unless strict=True, in
    which case they raise HypothesisError.  A route above its limit raises
    CostGuardExceeded.
    """
    if req.method in ORACLES:
        return _oracle(req, req.method), req.method
    if req.method == "oracle-enum":
        return _enum_value(req), "oracle-enum"
    path = _path(req)
    if req.method != "auto" and path is not None:
        return path(), req.method
    if req.method != "auto" and req.strict:
        raise formulas.HypothesisError(f"method {req.method!r} does not cover {_describe(req)}")
    route = _cheapest(req, theorem=path is not None)
    if route == "theorem":
        return path(), route
    return _oracle(req, route), route


def compute_table(
    quantity: str,
    n_from: int,
    n_to: int,
    r: int | None = None,
    method: str = "auto",
    strict: bool = False,
) -> list[tuple[int, int, str]]:
    """(n, value, method actually used) for n = n_from..n_to.

    auto and the two oracles read one oracle row up to n_to, auto the
    series' (the cheaper oracle on every family, see _cheapest), and every
    row carries that oracle's label; the guard is checked once, at n_to.
    The other methods evaluate each n as compute does, n_to first, so that a
    guard refusal at the top comes before any work on the rows below it.
    """
    top = ComputationRequest(quantity, n_to, r=r, method=method, strict=strict)
    if method not in ("auto", *ORACLES):
        last = [(n_to, *compute(top))] if n_from <= n_to else []
        return [(n, *compute(ComputationRequest(quantity, n, r, method=method, strict=strict)))
                for n in range(n_from, n_to)] + last
    route = "oracle-series" if method == "auto" else method
    row = series.oracle_row(quantity, n_to, r=r, backend=route.removeprefix("oracle-"))
    return [(n, row[n], route) for n in range(n_from, n_to + 1)]


def _describe(req: ComputationRequest) -> str:
    label = f"{req.quantity}, n={req.n}"
    if req.r is not None:
        label += f", r={req.r}"
    return label
