"""Route a quantity request to a formula, an oracle, or a Stirling sum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import diagrams, formulas, series, stirling
from .sequences import FAMILIES, QUANTITIES, R_QUANTITIES, Family, WeightSequence, quantity_sequence

METHODS = ("auto", "oracle-series", "oracle-dp", "oracle-enum", "theorem", "stirling")


class RequestError(ValueError):
    """Invalid quantity/parameter combination."""


@dataclass(frozen=True)
class ComputationRequest:
    quantity: str
    n: int
    r: int | None = None
    parts: tuple[int, ...] | None = None
    method: str = "auto"
    strict: bool = False

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise RequestError(f"unknown quantity {self.quantity!r}")
        if self.n < 0:
            raise RequestError("n must be >= 0")
        if self.method not in METHODS:
            raise RequestError(f"unknown method {self.method!r}")
        if self.quantity in R_QUANTITIES:
            if self.r is None:
                raise RequestError(f"quantity {self.quantity!r} requires --r")
            if self.r < 1:
                raise RequestError("r must be >= 1")
        elif self.r is not None:
            raise RequestError(f"quantity {self.quantity!r} does not take --r")
        if self.quantity == "p_a":
            if not self.parts:
                raise RequestError("quantity 'p_a' requires --parts")
            if any(p < 1 for p in self.parts):
                raise RequestError("parts must be positive")
        elif self.parts is not None:
            raise RequestError(f"quantity {self.quantity!r} does not take --parts")


def _reduce(req: ComputationRequest) -> tuple[str, int, int | None]:
    """The family whose sums serve the request: r = 1 makes pp_r and P_r the
    ordinary partitions p, and pp_r with r >= n is pp."""
    q, n, r = req.quantity, req.n, req.r
    if q in R_QUANTITIES and r == 1:
        return "p", n, None
    if q == "pp_r" and r >= n:
        return "pp", n, None
    return q, n, r


def _path(req: ComputationRequest) -> Callable[[], int] | None:
    """The theorem or Stirling evaluation of req.method, or None outside the
    family's stated range, and for auto also when A_n has more vectors than
    the theorem route walks."""
    stirling_route = req.method == "stirling"
    if req.quantity == "p_a":
        parts, n = req.parts, req.n
        assert parts is not None
        if not stirling_route:
            return None
        return lambda: stirling.restricted_count_stirling(WeightSequence.from_parts(parts), n)
    q, n, r = _reduce(req)
    family = FAMILIES[q]
    if not family.holds(n, r):
        return None
    if family.stem is None:  # p has no closed form; its Stirling sum is the generic engine
        if not stirling_route:
            return None
        return lambda: stirling.restricted_count_stirling(quantity_sequence(q, n), n)
    if stirling_route:
        return lambda: wrapper_value(family, "stirling", n, r)
    if req.method == "auto" and not formulas.within_vector_limit(n):
        return None
    return lambda: wrapper_value(family, "formula", n, r)


def wrapper_value(family: Family, kind: str, n: int, r: int | None = None) -> int:
    """The family's wrapper formulas.<stem>_formula (kind "formula") or
    stirling.<stem>_stirling (kind "stirling") at (n, r).

    The wrapper is looked up on each call, so a replaced module attribute
    (a tracer, a test double) is the one called.
    """
    module = stirling if kind == "stirling" else formulas
    wrapper = getattr(module, f"{family.stem}_{kind}")
    return wrapper(n, r) if family.takes_r else wrapper(n)


def _enum_value(req: ComputationRequest) -> int:
    family = FAMILIES.get(req.quantity)
    kind = family.diagram if family else None
    if req.quantity == "ppso":
        kind = "symmetric"  # known defect, ROADMAP item 3: counts another sequence
    if kind is None:
        raise RequestError(f"no diagram predicate for quantity {req.quantity!r}")
    if req.n == 0:
        return 1
    r = 1 if req.quantity == "p" else req.r
    return diagrams.count_diagrams(req.n, kind, r=r)


def _oracle(req: ComputationRequest, backend: str) -> int:
    return series.oracle_value(
        req.quantity, req.n, r=req.r, parts=req.parts, backend=backend
    )


def compute(req: ComputationRequest) -> tuple[int, str]:
    """Evaluate the request; returns (value, method actually used).

    method="auto" prefers the closed-form evaluator when its hypothesis
    holds and A_n has at most formulas.VECTOR_LIMIT vectors, and takes the
    DP oracle otherwise.  Explicit "theorem"/"stirling"
    requests outside their hypotheses fall back the same way unless
    strict=True, in which case they raise HypothesisError.
    """
    if req.method == "oracle-dp":
        return _oracle(req, "dp"), "oracle-dp"
    if req.method == "oracle-series":
        return _oracle(req, "series"), "oracle-series"
    if req.method == "oracle-enum":
        return _enum_value(req), "oracle-enum"
    if req.method == "auto":
        path = _path(req)
        if path is not None:
            return path(), "theorem"
        return _oracle(req, "dp"), "oracle-dp"
    if req.method in ("theorem", "stirling"):
        path = _path(req)
        if path is None:
            if req.strict:
                raise formulas.HypothesisError(
                    f"method {req.method!r} does not cover {_describe(req)}"
                )
            return _oracle(req, "dp"), "oracle-dp"
        return path(), req.method
    raise RequestError(f"unknown method {req.method!r}")


def _describe(req: ComputationRequest) -> str:
    label = f"{req.quantity}, n={req.n}"
    if req.r is not None:
        label += f", r={req.r}"
    return label
