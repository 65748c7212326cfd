"""Cross-validation suites wired to the CLI's `verify` subcommand.

Each check compares two independently computed values over a range and
records the first few counterexamples.  Suites:

  examples           known small values through every applicable route
  oracle-consistency series vs DP vs enumeration, plus structural invariants
  cross-method       closed-form evaluators vs the oracles
  stirling           congruence-sum engine and its regrouped variants
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import diagrams, formulas, series, stirling
from .combinat import factorial, stirling_first_unsigned
from .sequences import (
    FAMILIES,
    WeightSequence,
    quantity_sequence,
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


def _series_row(quantity, top, r=None) -> list[int]:
    """Coefficients 0..top from one run of the series recurrence at bound top."""
    weights = quantity_weights(quantity, top, r)
    return list(series.euler_product(weights, top).coeffs)


def _cap(max_n) -> float:
    """The largest n a suite may check: max_n, or no bound when it is None."""
    return math.inf if max_n is None else max_n


def _r_values(quantity):
    """The r values a suite sweeps for the family: 1..6, or None for no r."""
    return range(1, 7) if FAMILIES[quantity].takes_r else (None,)


def _label(quantity, n, r=None) -> str:
    return f"{quantity}({n})" if r is None else f"{quantity}({n}, r={r})"


# --- examples ---------------------------------------------------------------

KNOWN_PP_ROW = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500)
KNOWN_PPS_ROW = (1, 1, 2, 4, 7)
KNOWN_P2_ROW = (1, 2, 5, 10, 20, 36)
KNOWN_A3 = ((3, 0, 0), (1, 1, 0), (0, 0, 1))
KNOWN_A4 = ((4, 0, 0, 0), (2, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0), (0, 0, 0, 1))


def _suite_examples(max_n=None, long_running=False) -> list[CheckResult]:
    cap = _cap(max_n)
    out = []

    res = CheckResult("known-values[pp]")
    if 3 <= cap:
        for route, value in [
            ("series", _series("pp", 3)),
            ("dp", _dp("pp", 3)),
            ("enum", diagrams.count_diagrams(3, "all")),
            ("formula", formulas.pp_formula(3)),
            ("stirling", stirling.pp_stirling(3)),
        ]:
            res.expect(value, 6, f"pp(3) via {route}")
    for n, want in enumerate(KNOWN_PP_ROW):
        if n <= cap:
            res.expect(_series("pp", n), want, f"pp({n}) via series")
    out.append(res)

    res = CheckResult("known-values[pp_r]")
    if 3 <= cap:
        res.expect(_dp("pp_r", 3, r=1), 3, "pp_r(3, r=1) via dp")
        res.expect(diagrams.count_diagrams(3, "max_rows", r=1), 3, "pp_r(3, r=1) via enum")
        for route, value in [
            ("series", _series("pp_r", 3, r=2)),
            ("dp", _dp("pp_r", 3, r=2)),
            ("enum", diagrams.count_diagrams(3, "max_rows", r=2)),
            ("formula", formulas.ppr_formula(3, 2)),
            ("stirling", stirling.ppr_stirling(3, 2)),
            ("alternating-sum", formulas.ppr_via_multipartition_formula(3, 2)),
        ]:
            res.expect(value, 5, f"pp_r(3, r=2) via {route}")
        res.expect(_dp("pp_r", 3, r=3), 6, "pp_r(3, r=3) via dp")
    out.append(res)

    res = CheckResult("known-values[pps]")
    if 3 <= cap:
        for route, value in [
            ("series", _series("pps", 3)),
            ("dp", _dp("pps", 3)),
            ("enum", diagrams.count_diagrams(3, "strict")),
            ("formula", formulas.pps_formula(3)),
            ("stirling", stirling.pps_stirling(3)),
        ]:
            res.expect(value, 4, f"pps(3) via {route}")
    for n, want in enumerate(KNOWN_PPS_ROW):
        if n <= cap:
            res.expect(_series("pps", n), want, f"pps({n}) via series")
    out.append(res)

    res = CheckResult("known-values[ppso]")
    if 3 <= cap:
        for route, value in [
            ("series", _series("ppso", 3)),
            ("dp", _dp("ppso", 3)),
            ("formula", formulas.ppso_formula(3)),
            ("stirling", stirling.ppso_stirling(3)),
        ]:
            res.expect(value, 3, f"ppso(3) via {route}")
    out.append(res)

    res = CheckResult("known-values[symmetric-diagrams]")
    if 3 <= cap:
        res.expect(diagrams.count_diagrams(3, "symmetric"), 2, "symmetric diagrams of 3")
    out.append(res)

    res = CheckResult("known-values[P_r]")
    if 4 <= cap:
        for route, value in [
            ("series", _series("P_r", 4, r=2)),
            ("dp", _dp("P_r", 4, r=2)),
            ("formula", formulas.multipartition_formula(4, 2)),
            ("stirling", stirling.multipartition_stirling(4, 2)),
        ]:
            res.expect(value, 20, f"P_r(4, r=2) via {route}")
    for n, want in enumerate(KNOWN_P2_ROW):
        if n <= cap:
            res.expect(_series("P_r", n, r=2), want, f"P_r({n}, r=2) via series")
    out.append(res)

    res = CheckResult("known-values[p_a]")
    if 6 <= cap:
        res.expect(_dp("p_a", 6, parts=(1, 2, 3)), 7, "p_a(6; 1,2,3) via dp")
        res.expect(
            stirling.restricted_count_stirling(WeightSequence((1, 2, 3)), 6),
            7,
            "p_a(6; 1,2,3) via stirling",
        )
    if 5 <= cap:
        res.expect(_dp("p_a", 5, parts=(1,)), 1, "p_a(5; 1) via dp")
    if 3 <= cap:
        res.expect(_dp("p_a", 3, parts=seq_strict(3).parts), 4, "p_a(3; strict seq of 3)")
    out.append(res)

    res = CheckResult("known-values[multiplicity-vectors]")
    if 3 <= cap:
        res.expect(formulas.multiplicity_vectors(3), KNOWN_A3, "vectors for n=3")
    if 4 <= cap:
        res.expect(formulas.multiplicity_vectors(4), KNOWN_A4, "vectors for n=4")
    out.append(res)

    res = CheckResult("known-values[block-coefficients]")
    poly = formulas.BlockPolynomial(2, 6)
    res.expect(poly.coefficients(), (1, 2, 3, 2, 1), "block (1+z+z^2)^2")
    poly = formulas.BlockPolynomial(3, 6)
    res.expect(poly.coefficients(), (1, 3, 3, 1), "block (1+z)^3")
    poly = formulas.BlockPolynomial(2, 12)
    res.expect(poly.coefficient_closed(3), 4, "copies=2 modulus=12 coefficient 3")
    res.expect(poly.coefficient_closed(5), 6, "copies=2 modulus=12 coefficient 5")
    out.append(res)

    return out


# --- oracle consistency -----------------------------------------------------


def _suite_oracle_consistency(max_n=None, long_running=False) -> list[CheckResult]:
    top = 40 if max_n is None else max_n
    out = []

    for quantity in FAMILIES:
        res = CheckResult(f"series-vs-dp[{quantity}]")
        for r in _r_values(quantity):
            series_row = _series_row(quantity, top, r)
            parts = quantity_sequence(quantity, top, r).parts
            dp_row = series.restricted_partition_row(parts, top)
            for n in range(top + 1):
                res.expect(series_row[n], dp_row[n], _label(quantity, n, r))
        out.append(res)

    enum_top = min(8, top)
    res = CheckResult("enum-vs-series[all]")
    for n in range(1, enum_top + 1):
        res.expect(diagrams.count_diagrams(n, "all"), _series("pp", n), f"pp({n})")
    out.append(res)
    res = CheckResult("enum-vs-series[strict]")
    for n in range(1, enum_top + 1):
        res.expect(diagrams.count_diagrams(n, "strict"), _series("pps", n), f"pps({n})")
    out.append(res)
    res = CheckResult("enum-vs-series[max-rows]")
    for n in range(1, enum_top + 1):
        for r in range(1, n + 1):
            res.expect(
                diagrams.count_diagrams(n, "max_rows", r=r),
                _series("pp_r", n, r=r),
                f"pp_r({n}, r={r})",
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

    res = CheckResult("vector-count-vs-p")
    p_row = series.restricted_partition_row(quantity_sequence("p", top).parts, top)
    for n in range(1, top + 1):
        res.expect(len(formulas.multiplicity_vectors(n)), p_row[n], f"n={n}")
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

    for quantity, family in FAMILIES.items():
        res = CheckResult(f"cross-method[{quantity}]")
        for r in _r_values(quantity):
            for n in range(top + 1):
                values = {
                    "series": _series(quantity, n, r=r),
                    "dp": _dp(quantity, n, r=r),
                }
                if family.diagram is not None and 1 <= n <= 8:
                    values["enum"] = diagrams.count_diagrams(
                        n, family.diagram, r=1 if quantity == "p" else r
                    )
                if family.stem is not None and family.holds(n, r):
                    args = (n, r) if family.takes_r else (n,)
                    values["formula"] = getattr(formulas, f"{family.stem}_formula")(*args)
                if quantity == "pp_r":
                    values["alternating-sum"] = formulas.ppr_via_multipartition_formula(n, r)
                for route, got in values.items():
                    res.expect(got, values["dp"], f"{_label(quantity, n, r)} via {route}")
        out.append(res)

    res = CheckResult("block-poly[direct-vs-closed]")
    for modulus in (6, 12, 60):
        for copies in range(1, 7):
            if modulus % copies:
                continue
            poly = formulas.BlockPolynomial(copies, modulus)
            for k in range(poly.degree + 1):
                res.expect(
                    poly.coefficient_closed(k),
                    poly.coefficient_direct(k),
                    f"copies={copies} modulus={modulus} k={k}",
                )
            res.expect(poly.coefficient_closed(poly.degree + 1), 0, "beyond degree")
    out.append(res)

    res = CheckResult("block-poly[reciprocity]")
    for modulus in (6, 12, 60):
        for copies in range(1, 7):
            if modulus % copies:
                continue
            poly = formulas.BlockPolynomial(copies, modulus)
            coeffs = poly.coefficients()
            for k in range(poly.degree + 1):
                res.expect(
                    coeffs[k],
                    coeffs[poly.degree - k],
                    f"copies={copies} modulus={modulus} k={k}",
                )
    out.append(res)

    res = CheckResult("block-poly[mass]")
    for modulus in (6, 12, 60):
        for copies in range(1, 7):
            if modulus % copies:
                continue
            poly = formulas.BlockPolynomial(copies, modulus)
            res.expect(
                sum(poly.coefficients()),
                (modulus // copies) ** copies,
                f"copies={copies} modulus={modulus}",
            )
    out.append(res)

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

    res = CheckResult("stirling-wrapper[pp]")
    for n in range(3, wrapper_top + 1):
        res.expect(stirling.pp_stirling(n), _dp("pp", n), f"pp({n})")
    out.append(res)

    res = CheckResult("stirling-wrapper[pp_r]")
    pairs = [(3, 2), (4, 2), (4, 3)]
    if long_running:
        pairs += [(5, 2), (5, 3), (5, 4)]
    for n, r in [(n, r) for n, r in pairs if n <= cap]:
        res.expect(stirling.ppr_stirling(n, r), _dp("pp_r", n, r=r), f"pp_r({n}, r={r})")
    out.append(res)

    res = CheckResult("stirling-wrapper[pps]")
    for n in range(3, wrapper_top + 1):
        res.expect(stirling.pps_stirling(n), _dp("pps", n), f"pps({n})")
    out.append(res)

    res = CheckResult("stirling-wrapper[ppso]")
    for n in range(3, wrapper_top + 1):
        res.expect(stirling.ppso_stirling(n), _dp("ppso", n), f"ppso({n})")
    out.append(res)

    res = CheckResult("stirling-wrapper[P_r]")
    pairs = [(4, 2), (4, 3)]
    if long_running:
        pairs += [(5, 2), (5, 3), (5, 4)]
    for n, r in [(n, r) for n, r in pairs if n <= cap]:
        res.expect(
            stirling.multipartition_stirling(n, r), _dp("P_r", n, r=r), f"P_r({n}, r={r})"
        )
    out.append(res)

    res = CheckResult("stirling[partial-sum-denominators]")
    for a in (WeightSequence((1, 2, 3)), seq_pp(4)) if 7 <= cap else ():
        d = a.lcm
        box = stirling.CongruenceBox(
            bounds=tuple(d // p - 1 for p in a.parts),
            weights=a.parts,
            modulus=d,
            residue=7 % d,
        )
        kernel = stirling.StirlingKernel(
            length=a.length,
            modulus=d,
            target=7,
            table=stirling_first_unsigned(a.length),
        )
        partials = stirling.regrouped_partial_sums(box, kernel)
        scale = factorial(a.length - 1) * d ** (a.length - 1)
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
