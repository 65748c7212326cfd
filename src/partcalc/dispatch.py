"""Route a quantity request to a formula, an oracle, or a Stirling sum.

ROUTES holds one Route per method, the one place that says whether a route
serves a request: enumeration where the reduced family (_reduced) has a
diagram kind, the theorem and Stirling routes in its stated range (_stated),
the theorem only where it has a closed form, and p_a only the Stirling
route.  compute, compute_table and verify all read it.

The formulas, stirling and diagrams modules load on the first request that
takes their route.  Choosing a route reads only series and sequences: the
theorem's reach and vector count are series', and its price, LEAF_COST, is
here.  A fresh process that runs one series or DP request, or a table,
never loads formulas, and one that runs a theorem request never loads
stirling or diagrams.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from . import series
from .sequences import (
    FAMILIES,
    QUANTITIES,
    R_QUANTITIES,
    Family,
    HypothesisError,
    Value,
)
from .series import CostGuardExceeded

# Multiply-adds of the series oracle that one vector of the theorem walk is
# priced at.  Calibrated when each vector was one call, on pp, pps and ppso at
# n = 3..25 on a shared 2-core VM: about 0.40 us a vector against 0.10 us a
# recurrence pair of the series.  With parts 1 and 2 closed from one table the
# same sums take about 0.13 us a vector, so this price is now about 3x high;
# it stays, so that auto keeps choosing the routes it chose.
LEAF_COST = 4


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
        self.parts = None if parts is None else tuple(parts)  # a list would not hash
        self.method = method
        self.strict = strict


def _reduced(req: ComputationRequest) -> tuple[Family | None, int, int | None]:
    """req's family (None for p_a) and its (n, r): r = 1 makes pp_r and P_r
    the ordinary partitions p, and pp_r with r >= n is pp."""
    q, n, r = req.quantity, req.n, req.r
    if q in R_QUANTITIES and r == 1:
        q, r = "p", None
    elif q == "pp_r" and r >= n:
        q, r = "pp", None
    return FAMILIES.get(q), n, r


def _stated(req: ComputationRequest) -> tuple[Family, int, int | None] | None:
    """_reduced(req), or None for p_a or outside that family's stated range."""
    family, n, r = reduced = _reduced(req)
    return reduced if family and family.holds(n, r) else None


def diagram_kind(req: ComputationRequest) -> tuple[str, int] | None:
    """The diagrams kind of req's reduced family and its row bound (1 without r), or None."""
    family, _, r = _reduced(req)
    return (family.diagram, r or 1) if family and family.diagram else None


def _run(module, suffix: str, family: Family, n: int, r: int | None) -> int:
    """The family's wrapper <stem><suffix> in module at (n, r), looked up on
    each call, so that a replaced module attribute (a tracer, a test double)
    is the one called."""
    wrapper = getattr(module, family.stem + suffix)
    return wrapper(n, r) if family.takes_r else wrapper(n)


def _theorem_value(req: ComputationRequest) -> int:
    from . import formulas  # imported by the first theorem request

    return _run(formulas, "_formula", *_stated(req))


def _stirling_value(req: ComputationRequest) -> int:
    from . import stirling  # imported by the first Stirling request

    if req.quantity == "p_a":
        return stirling.restricted_count_stirling(req.parts, req.n)
    family, n, r = _stated(req)
    if family.stem is None:  # p has no closed form; its Stirling sum is the generic engine
        return stirling.partition_count_stirling(n)
    return _run(stirling, "_stirling", family, n, r)


def _diagram_count(req: ComputationRequest) -> int:
    from . import diagrams  # imported by the first enumeration request

    kind, r = diagram_kind(req)
    return diagrams.count_diagrams(req.n, kind, r=r) if req.n else 1


class Route(NamedTuple):
    """A method: whether it serves a request, its value there, and, for a
    route that serves every request, row(top), its values at n = 0..top.n
    from one computation, or None when each n is computed on its own."""

    serves: Callable[[ComputationRequest], bool]
    value: Callable[[ComputationRequest], int]
    row: Callable[[ComputationRequest], list[int]] | None = None


def _oracle_route(backend: str) -> Route:
    """Every request, behind the oracle's work guard, which a row checks at its top."""
    return Route(
        lambda req: True,
        lambda req: series.oracle_value(req.quantity, req.n, r=req.r, parts=req.parts, backend=backend),
        lambda top: series.oracle_row(top.quantity, top.n, r=top.r, parts=top.parts, backend=backend),
    )


ROUTES = {
    "oracle-series": _oracle_route("series"),
    "oracle-dp": _oracle_route("dp"),
    "oracle-enum": Route(lambda req: diagram_kind(req) is not None, _diagram_count),
    "theorem": Route(  # a family with a closed form: p has none
        lambda req: (stated := _stated(req)) is not None and stated[0].stem is not None,
        _theorem_value,
    ),
    "stirling": Route(lambda req: req.quantity == "p_a" or _stated(req) is not None, _stirling_value),
}
METHODS = ("auto", *ROUTES)


def _cheapest(req: ComputationRequest) -> str:
    """The route with the least estimated work, in multiply-adds, among those
    whose guard admits req: the theorem walk where its route serves req and n
    is within series.vector_reach(), then oracle-dp, then oracle-series, in
    the order that breaks a tie.  On a family the DP does more work than the
    series at every n >= 1 (see series.oracle_cost), so it is a candidate
    there only at n = 0, where neither works.  p_a that both oracles refuse
    goes to the Stirling route if its box guard admits it, weighed only then.
    Raises CostGuardExceeded, naming every refusal, when all are refused."""
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
    if req.n <= series.vector_reach() and ROUTES["theorem"].serves(req):
        work = LEAF_COST * series.vector_count(req.n)
        if best is None or work <= best[0]:
            best = (work, "theorem")
    if best is None and req.quantity == "p_a":
        from . import stirling

        try:
            stirling.check_generic_box(sorted(req.parts))
            return "stirling"
        except CostGuardExceeded as exc:
            refusals.append(str(exc))
    if best is None:
        raise CostGuardExceeded("; ".join(refusals))
    return best[1]


def compute(req: ComputationRequest) -> tuple[int, str]:
    """Evaluate the request; returns (value, method actually used).

    An explicit method runs its route where the route serves the request.
    Elsewhere, and for method="auto", the route with the least estimated
    work runs (_cheapest): the theorem walk where its route serves, the DP
    oracle for p_a, and the series oracle; a tie goes to the theorem, then to
    the DP.  With strict=True a route that does not serve raises
    HypothesisError instead.  A route above its limit raises CostGuardExceeded.
    """
    route = ROUTES.get(req.method)
    if route is not None:
        if route.serves(req):
            return route.value(req), req.method
        if req.strict:
            at = f"{req.quantity}, n={req.n}" + ("" if req.r is None else f", r={req.r}")
            raise HypothesisError(f"method {req.method!r} does not cover {at}")
    best = _cheapest(req)
    return ROUTES[best].value(req), best


def compute_table(
    quantity: str,
    n_from: int,
    n_to: int,
    r: int | None = None,
    method: str = "auto",
    strict: bool = False,
) -> list[tuple[int, int, str]]:
    """(n, value, method actually used) for n = n_from..n_to.

    A route with a row, an oracle, reads every n off one row to n_to under
    its own label, its guard checked once, at n_to; auto reads the series'
    row (the cheaper oracle on every family, see _cheapest).  Every other
    route evaluates each n as compute does, n_to first, so that a refusal
    at the top comes before any work on the rows below it.
    """
    if n_from > n_to:
        return []
    label = "oracle-series" if method == "auto" else method
    top = ComputationRequest(quantity, n_to, r=r, method=method, strict=strict)
    row = ROUTES[label].row(top) if ROUTES[label].row else None

    def at(req: ComputationRequest) -> tuple[int, int, str]:
        return (req.n, row[req.n], label) if row is not None else (req.n, *compute(req))

    last = at(top)
    return [at(ComputationRequest(quantity, n, r, method=method, strict=strict))
            for n in range(n_from, n_to)] + [last]
