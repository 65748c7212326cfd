"""Cross-validation suites wired to the CLI's `verify` subcommand.

Each check compares two independently computed values over a range and
records the first few counterexamples.  The per-family checks read
sequences.FAMILIES.  Suites:

  examples           known small values through every applicable route
  oracle-consistency series vs DP vs enumeration, plus structural invariants
  cross-method       closed-form evaluators vs the oracles
  stirling           congruence-sum engine and its regrouped variants
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import diagrams, dispatch, formulas, series, stirling
from .sequences import (
    FAMILIES,
    WeightSequence,
    quantity_weights,
    seq_pp,
    seq_strict,
)

SUITES = ("examples", "cross-method", "oracle-consistency", "stirling")

MAX_FAILURES_KEPT = 5


@dataclass
class CheckResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, got, want, label: str) -> None:
        self.cases += 1
        if got != want:
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(f"{label}: expected {want}, got {got}")
            else:
                self.failures[-1] = "... further mismatches suppressed"


def _dp(quantity, n, r=None, parts=None):
    return series.oracle_value(quantity, n, r=r, parts=parts)


def _series(quantity, n, r=None, parts=None):
    return series.oracle_value(quantity, n, r=r, parts=parts, backend="series")


def _cap(max_n) -> float:
    """The largest n a suite may check: max_n, or no bound when it is None."""
    return math.inf if max_n is None else max_n


def _r_values(quantity):
    """The r values a suite sweeps for the family: 1..6, or None for no r."""
    return range(1, 7) if FAMILIES[quantity].takes_r else (None,)


def _label(quantity, n, r=None) -> str:
    return f"{quantity}({n})" if r is None else f"{quantity}({n}, r={r})"


def _route_values(quantity, n, r=None, *, with_stirling=False) -> dict[str, int]:
    """quantity at (n, r) by every route that serves the case: both oracles,
    diagram enumeration for 1 <= n <= 8, the theorem sum in the family's
    stated range and within VECTOR_LIMIT, the Stirling sum in the stated
    range when with_stirling, and for pp_r the alternating sum."""
    family = FAMILIES[quantity]
    values = {"series": _series(quantity, n, r=r), "dp": _dp(quantity, n, r=r)}
    if family.diagram is not None and 1 <= n <= 8:
        values["enum"] = diagrams.count_diagrams(n, family.diagram, r=1 if quantity == "p" else r)
    if family.stem is not None and family.holds(n, r):
        if formulas.within_vector_limit(n):
            values["formula"] = dispatch.wrapper_value(family, "formula", n, r)
        if with_stirling:
            values["stirling"] = dispatch.wrapper_value(family, "stirling", n, r)
    if quantity == "pp_r":
        values["alternating-sum"] = formulas.ppr_via_multipartition_formula(n, r)
    return values


# --- examples ---------------------------------------------------------------

# (quantity, n, r, value), checked through every route that serves the case.
KNOWN_VALUES = (
    ("pp", 3, None, 6),
    ("pp_r", 3, 1, 3),
    ("pp_r", 3, 2, 5),
    ("pp_r", 3, 3, 6),
    ("pps", 3, None, 4),
    ("ppso", 3, None, 3),
    ("P_r", 4, 2, 20),
)
# (quantity, r, values at n = 0, 1, ...), checked through the series.
KNOWN_ROWS = (
    ("pp", None, (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500)),
    ("pps", None, (1, 1, 2, 4, 7)),
    ("P_r", 2, (1, 2, 5, 10, 20, 36)),
)
KNOWN_A3 = ((3, 0, 0), (1, 1, 0), (0, 0, 1))
KNOWN_A4 = ((4, 0, 0, 0), (2, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0), (0, 0, 0, 1))
EXAMPLE_CHECKS = (
    "pp", "pp_r", "pps", "ppso", "symmetric-diagrams", "P_r", "p_a",
    "multiplicity-vectors", "block-coefficients",
)


def _suite_examples(max_n=None, long_running=False) -> list[CheckResult]:
    cap = _cap(max_n)
    checks = {name: CheckResult(f"known-values[{name}]") for name in EXAMPLE_CHECKS}

    for quantity, n, r, want in KNOWN_VALUES:
        if n <= cap:
            for route, got in _route_values(quantity, n, r, with_stirling=True).items():
                checks[quantity].expect(got, want, f"{_label(quantity, n, r)} via {route}")
    for quantity, r, row in KNOWN_ROWS:
        for n, want in enumerate(row):
            if n <= cap:
                got = _series(quantity, n, r=r)
                checks[quantity].expect(got, want, f"{_label(quantity, n, r)} via series")

    if 3 <= cap:
        res = checks["symmetric-diagrams"]
        res.expect(diagrams.count_diagrams(3, "symmetric"), 2, "symmetric diagrams of 3")

    res = checks["p_a"]
    for parts, n, want in (((1, 2, 3), 6, 7), ((1,), 5, 1), (seq_strict(3).parts, 3, 4)):
        if n <= cap:
            res.expect(_dp("p_a", n, parts=parts), want, f"p_a({n}; parts={parts}) via dp")
    if 6 <= cap:
        got = stirling.restricted_count_stirling(WeightSequence((1, 2, 3)), 6)
        res.expect(got, 7, "p_a(6; parts=(1, 2, 3)) via stirling")

    res = checks["multiplicity-vectors"]
    for n, want in ((3, KNOWN_A3), (4, KNOWN_A4)):
        if n <= cap:
            res.expect(formulas.multiplicity_vectors(n), want, f"vectors for n={n}")

    res = checks["block-coefficients"]
    poly = stirling.BlockPolynomial(2, 6)
    res.expect(poly.coefficients(), (1, 2, 3, 2, 1), "block (1+z+z^2)^2")
    poly = stirling.BlockPolynomial(3, 6)
    res.expect(poly.coefficients(), (1, 3, 3, 1), "block (1+z)^3")
    poly = stirling.BlockPolynomial(2, 12)
    res.expect(poly.coefficient_closed(3), 4, "copies=2 modulus=12 coefficient 3")
    res.expect(poly.coefficient_closed(5), 6, "copies=2 modulus=12 coefficient 5")

    return list(checks.values())


# --- oracle consistency -----------------------------------------------------


def _suite_oracle_consistency(max_n=None, long_running=False) -> list[CheckResult]:
    top = 40 if max_n is None else max_n
    out = []

    for quantity in FAMILIES:
        res = CheckResult(f"series-vs-dp[{quantity}]")
        for r in _r_values(quantity):
            weights = quantity_weights(quantity, top, r)
            series_row = series.euler_product(weights, top)
            dp_row = series.restricted_partition_row(enumerate(weights.weights, start=1), top)
            for n in range(top + 1):
                res.expect(series_row[n], dp_row[n], _label(quantity, n, r))
        out.append(res)

    enum_top = min(8, top)
    for quantity in ("pp", "pps", "pp_r"):
        kind = FAMILIES[quantity].diagram
        res = CheckResult(f"enum-vs-series[{kind.replace('_', '-')}]")
        for n in range(1, enum_top + 1):
            for r in range(1, n + 1) if FAMILIES[quantity].takes_r else (None,):
                res.expect(
                    diagrams.count_diagrams(n, kind, r=r),
                    _series(quantity, n, r=r),
                    _label(quantity, n, r),
                )
        out.append(res)

    res = CheckResult("enum[symmetric-vs-strict-odd]")
    for n in range(1, enum_top + 1):
        res.expect(
            diagrams.count_diagrams(n, "symmetric"),
            diagrams.count_diagrams(n, "strict_odd"),
            f"n={n}",
        )
    out.append(res)

    # The theorem walk over A_n with every multiplicity 1 adds 1 per leaf,
    # so it counts the vectors without listing them.
    res = CheckResult("vector-count-vs-p")
    p_row = series.restricted_partition_row(enumerate([1] * top, start=1), top)
    for n in range(1, top + 1):
        if p_row[n] > formulas.VECTOR_LIMIT:
            break
        res.expect(formulas._vector_sum(n, [1] * n), p_row[n], f"n={n}")
    out.append(res)

    res = CheckResult("dp-permutation-invariance")
    for parts in [(1, 2, 3), (3, 1, 2), (2, 2, 5), (5, 2, 2)]:
        a = WeightSequence.from_parts(parts)
        for n in range(min(20, _cap(max_n)) + 1):
            res.expect(
                series.restricted_partition_dp(a, n),
                _dp("p_a", n, parts=parts),
                f"parts={parts} n={n}",
            )
    out.append(res)

    res = CheckResult("monotone[pp_r-in-r]")
    for n in range(0, min(12, top) + 1):
        values = [_dp("pp_r", n, r=r) for r in range(1, n + 2)]
        for r, (lo, hi) in enumerate(zip(values, values[1:]), start=1):
            res.expect(lo <= hi, True, f"pp_r({n}, r={r}) <= pp_r({n}, r={r + 1})")
        if n >= 1:
            res.expect(values[-1], _dp("pp", n), f"pp_r({n}, r={n + 1}) == pp({n})")
    out.append(res)

    return out


# --- cross-method -----------------------------------------------------------


def _suite_cross_method(max_n=None, long_running=False) -> list[CheckResult]:
    top = 12 if max_n is None else max_n
    out = []

    for quantity in FAMILIES:
        res = CheckResult(f"cross-method[{quantity}]")
        for r in _r_values(quantity):
            for n in range(top + 1):
                values = _route_values(quantity, n, r)
                for route, got in values.items():
                    res.expect(got, values["dp"], f"{_label(quantity, n, r)} via {route}")
        out.append(res)

    # The vector sum also holds below the stated ranges, which stay as data.
    res = CheckResult("vector-sum-below-range")
    for quantity, family in FAMILIES.items():
        for r in _r_values(quantity):
            for n in range(1, min(5, top) + 1):
                if not family.holds(n, r):
                    got = formulas._vector_sum(n, family.pattern(n, r))
                    res.expect(got, _dp(quantity, n, r=r), _label(quantity, n, r))
    out.append(res)

    direct = CheckResult("block-poly[direct-vs-closed]")
    reciprocity = CheckResult("block-poly[reciprocity]")
    mass = CheckResult("block-poly[mass]")
    for modulus in (6, 12, 60):
        for copies in range(1, 7):
            if modulus % copies:
                continue
            poly = stirling.BlockPolynomial(copies, modulus)
            coeffs = poly.coefficients()
            label = f"copies={copies} modulus={modulus}"
            for k in range(poly.degree + 1):
                at = f"{label} k={k}"
                direct.expect(poly.coefficient_closed(k), coeffs[k], at)
                reciprocity.expect(coeffs[k], coeffs[poly.degree - k], at)
            direct.expect(poly.coefficient_closed(poly.degree + 1), 0, f"{label} beyond degree")
            mass.expect(sum(coeffs), (modulus // copies) ** copies, label)
    out += [direct, reciprocity, mass]

    return out


# --- stirling ---------------------------------------------------------------

ENGINE_SEQUENCES = (
    (1, 2),
    (1, 2, 3),
    (2, 3, 4),
    (1, 1, 2, 2),
    seq_strict(4).parts,
    seq_pp(3).parts,
)


def _suite_stirling(max_n=None, long_running=False) -> list[CheckResult]:
    cap = _cap(max_n)
    out = []

    for parts in ENGINE_SEQUENCES:
        a = WeightSequence(tuple(parts))
        res = CheckResult(f"stirling-engine-vs-dp[parts={','.join(map(str, parts))}]")
        for n in range(min(60, cap) + 1):
            res.expect(
                stirling.restricted_count_stirling(a, n),
                series.restricted_partition_dp(a, n),
                f"n={n}",
            )
        out.append(res)

    wrapper_top = min(5 if long_running else 4, cap)
    for quantity, family in FAMILIES.items():
        if family.stem is None:
            continue
        res = CheckResult(f"stirling-wrapper[{quantity}]")
        for n in range(family.min_n, wrapper_top + 1):
            for r in range(2, n) if family.takes_r else (None,):
                got = dispatch.wrapper_value(family, "stirling", n, r)
                res.expect(got, _dp(quantity, n, r=r), _label(quantity, n, r))
        out.append(res)

    res = CheckResult("stirling[partial-sum-denominators]")
    for a in (WeightSequence((1, 2, 3)), seq_pp(4)) if 7 <= cap else ():
        partials = stirling.regrouped_partial_sums(*stirling.generic_setup(a, 7))
        scale = math.factorial(a.length - 1) * a.lcm ** (a.length - 1)
        for sw, part in partials.items():
            res.expect(
                (part * scale).denominator, 1, f"parts={a.parts} weighted-sum={sw}"
            )
        res.expect(
            sum(partials.values(), Fraction(0)).denominator,
            1,
            f"parts={a.parts} total",
        )
    out.append(res)

    return out


_SUITE_FUNCTIONS = {
    "examples": _suite_examples,
    "oracle-consistency": _suite_oracle_consistency,
    "cross-method": _suite_cross_method,
    "stirling": _suite_stirling,
}


def run_suite(name: str, *, max_n: int | None = None, long_running: bool = False) -> list[CheckResult]:
    if name not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {name!r}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    return _SUITE_FUNCTIONS[name](max_n=max_n, long_running=long_running)
