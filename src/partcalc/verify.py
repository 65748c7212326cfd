"""Cross-validation suites wired to the CLI's `verify` subcommand.

Each check compares two independently computed values over a range and
records the first few counterexamples.  The per-family checks read
sequences.FAMILIES, and dispatch says which of the enumeration, theorem and
Stirling routes serve a case, as it says for compute.  Suites:

  examples           known small values through every applicable route
  oracle-consistency series vs DP vs enumeration, plus structural invariants
  cross-method       closed-form evaluators vs the oracles
  stirling           congruence-sum engine and its regrouped variants

Every suite takes two readers that go with its run.  counts(top) lists
once, to the largest n the suite reads (diagrams.diagram_count_row).  rows
builds each oracle row once (series.oracle_row), each alternating-sum row
(formulas.ppr_via_multipartition_row) over the run's own P_r DP row, and
each theorem row by one walk (formulas._vector_row); a check reads every n
off them, and formats a case's label only when the case fails.
The stirling suite compares one generic row per part list
(stirling.restricted_row_stirling, every residue off one packed product)
with one DP row, and checks that the exact per-weighted-sum partials of
stirling.regrouped_partial_sums sum to the DP's value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import diagrams, dispatch, formulas, series, stirling
from .sequences import FAMILIES, WeightSequence, pattern, quantity_weights

ENUM_TOP, ENUM_TOP_LONG = 8, 16  # the largest n enumeration is read at, and with long_running

MAX_FAILURES_KEPT = 5


@dataclass
class CheckResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, got, want, label) -> None:
        """label is a string, or a callable called only on a mismatch."""
        self.cases += 1
        if got != want:
            if len(self.failures) < MAX_FAILURES_KEPT:
                label = label if isinstance(label, str) else label()
                self.failures.append(f"{label}: expected {want}, got {got}")
            else:
                self.failures[-1] = "... further mismatches suppressed"


def _row_reader():
    """A reader of rows for one run: rows(quantity, top, r, parts, backend)
    is series.oracle_row, built on its first read and kept for the run.
    The backend "alternating-sum" reads pp_r off
    formulas.ppr_via_multipartition_row, from the run's own P_r DP row, and
    "theorem" reads the family's vector sums off one walk to top."""
    built = {}

    def rows(quantity, top, r=None, parts=None, backend="dp"):
        key = (quantity, top, r, parts, backend)
        if key not in built:
            if backend == "alternating-sum":
                built[key] = formulas.ppr_via_multipartition_row(top, r, rows("P_r", top, r))
            elif backend == "theorem":
                built[key] = formulas._vector_row(top, quantity_weights(quantity, top, r, None).weights)
            else:
                built[key] = series.oracle_row(quantity, top, r=r, parts=parts, backend=backend)
        return built[key]

    return rows


def _cap(max_n) -> float:
    """The largest n a suite may check: max_n, or no bound when it is None."""
    return math.inf if max_n is None else max_n


def _r_values(quantity):
    """The r values a suite sweeps for the family: 1..6, or None for no r."""
    return range(1, 7) if FAMILIES[quantity].takes_r else (None,)


def _label(quantity, n, r=None) -> str:
    return f"{quantity}({n})" if r is None else f"{quantity}({n}, r={r})"


def _route_values(counts, rows, top, quantity, n, r=None, *, per_case=False) -> dict[str, int]:
    """quantity at (n, r) by every route that dispatch says serves the case:
    both oracles and, for pp_r, the alternating sum, off their rows to top;
    enumeration to ENUM_TOP off one listing; the theorem off one walk per
    (family, r) to t = min(top, vector_reach()), but at t, the largest n a
    stated range serves if any, by the wrapper that compute runs.  per_case
    (examples) lists to n, reads the alternating sum off a row to n over the
    P_r DP row to top, calls each route at n, and adds Stirling."""
    values = {
        "series": rows(quantity, top, r, backend="series")[n],
        "dp": rows(quantity, top, r)[n],
    }
    req = dispatch.ComputationRequest(quantity, n, r)
    listed = min(ENUM_TOP, n if per_case else top)
    if 1 <= n <= listed and (diagram := dispatch.diagram_kind(req)):
        values["enum"] = counts(listed)[n].count(*diagram)
    t = min(n if per_case else top, formulas.vector_reach())
    if n <= t and (route := dispatch.ROUTES["theorem"]).serves(req):
        values["theorem"] = route.value(req) if n == t else rows(quantity, t, r, backend="theorem")[n]
    if per_case and dispatch.ROUTES["stirling"].serves(req):
        values["stirling"] = dispatch.ROUTES["stirling"].value(req)
    if quantity == "pp_r":
        values["alternating-sum"] = (
            formulas.ppr_via_multipartition_row(n, r, rows("P_r", top, r)) if per_case
            else rows(quantity, top, r, backend="alternating-sum")
        )[n]
    return values


def _block_row(copies, alpha) -> tuple[int, ...]:
    """The coefficients of the block polynomial (1 + z + ... + z^alpha)^copies
    as the Stirling sums' tables read them, by formulas.bounded_composition_count."""
    return tuple(formulas.bounded_composition_count(k, copies, alpha) for k in range(copies * alpha + 1))


def _convolved(copies, alpha) -> tuple[int, ...]:
    """The same coefficients by direct convolution, the reference for _block_row."""
    out = [1]
    for _ in range(copies):
        out = [sum(out[max(k - alpha, 0) : k + 1]) for k in range(len(out) + alpha)]
    return tuple(out)


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
# The top of the suite's oracle rows: the largest n of KNOWN_VALUES and KNOWN_ROWS.
EXAMPLES_TOP = max(
    *(n for _, n, _, _ in KNOWN_VALUES), *(len(row) - 1 for _, _, row in KNOWN_ROWS)
)


def _suite_examples(counts, rows, max_n=None, long_running=False) -> list[CheckResult]:
    cap = _cap(max_n)
    top = min(EXAMPLES_TOP, cap)
    checks = {name: CheckResult(f"known-values[{name}]") for name in EXAMPLE_CHECKS}

    for quantity, n, r, want in KNOWN_VALUES:
        if n <= cap:
            values = _route_values(counts, rows, top, quantity, n, r, per_case=True)
            for route, got in values.items():
                checks[quantity].expect(got, want, f"{_label(quantity, n, r)} via {route}")
    for quantity, r, row in KNOWN_ROWS:
        series_row = rows(quantity, top, r, backend="series")
        for n, want in enumerate(row):
            if n <= cap:
                checks[quantity].expect(series_row[n], want, f"{_label(quantity, n, r)} via series")

    if 3 <= cap:
        res = checks["symmetric-diagrams"]
        res.expect(counts(3)[3].symmetric, 2, "symmetric diagrams of 3")

    res = checks["p_a"]
    for parts, n, want in (((1, 2, 3), 6, 7), ((1,), 5, 1), ((1, 2, 3, 3), 3, 4)):
        if n <= cap:
            res.expect(rows("p_a", n, parts=parts)[n], want, f"p_a({n}; parts={parts}) via dp")
    if 6 <= cap:
        got = stirling.restricted_count_stirling(WeightSequence((1, 2, 3)), 6)
        res.expect(got, 7, "p_a(6; parts=(1, 2, 3)) via stirling")

    res = checks["multiplicity-vectors"]
    for n, want in ((3, KNOWN_A3), (4, KNOWN_A4)):
        if n <= cap:
            res.expect(formulas.multiplicity_vectors(n), want, f"vectors for n={n}")

    res = checks["block-coefficients"]
    res.expect(_block_row(2, 2), (1, 2, 3, 2, 1), "block (1+z+z^2)^2")
    res.expect(_block_row(3, 1), (1, 3, 3, 1), "block (1+z)^3")
    res.expect(formulas.bounded_composition_count(3, 2, 5), 4, "copies=2 modulus=12 coefficient 3")
    res.expect(formulas.bounded_composition_count(5, 2, 5), 6, "copies=2 modulus=12 coefficient 5")

    return list(checks.values())


# --- oracle consistency -----------------------------------------------------


def _suite_oracle_consistency(counts, rows, max_n=None, long_running=False) -> list[CheckResult]:
    top = 40 if max_n is None else max_n
    out = []

    for quantity in FAMILIES:
        res = CheckResult(f"series-vs-dp[{quantity}]")
        for r in _r_values(quantity):
            series_row = rows(quantity, top, r, backend="series")
            dp_row = rows(quantity, top, r)
            for n in range(top + 1):
                res.expect(series_row[n], dp_row[n], lambda: _label(quantity, n, r))
        out.append(res)

    enum_top = min(ENUM_TOP_LONG if long_running else ENUM_TOP, top)
    for quantity in ("pp", "pps", "pp_r"):
        kind = FAMILIES[quantity].diagram
        res = CheckResult(f"enum-vs-series[{kind.replace('_', '-')}]")
        for n in range(1, enum_top + 1):
            for r in range(1, n + 1) if FAMILIES[quantity].takes_r else (None,):
                res.expect(
                    counts(enum_top)[n].count(kind, r=r),
                    rows(quantity, enum_top, r, backend="series")[n],
                    lambda: _label(quantity, n, r),
                )
        out.append(res)

    res = CheckResult("enum[symmetric-vs-strict-odd]")
    for n in range(1, enum_top + 1):
        res.expect(counts(enum_top)[n].symmetric, counts(enum_top)[n].strict_odd, f"n={n}")
    out.append(res)

    # With every multiplicity 1 each vector of A_n adds 1 to the theorem sum,
    # so the walk counts the vectors without listing them; its table for
    # parts 1 and 2 reads floor(R/2) + 1 at remainder R.  One walk gives
    # every n up to the theorem route's reach.
    res = CheckResult("vector-count-vs-p")
    p_row = rows("p", top)
    counted = min(top, formulas.vector_reach())
    vector_row = formulas._vector_row(counted, [1] * counted)
    for n in range(1, counted + 1):
        res.expect(vector_row[n], p_row[n], f"n={n}")
    out.append(res)

    res = CheckResult("dp-permutation-invariance")
    parts_top = min(20, _cap(max_n))
    for parts in [(1, 2, 3), (3, 1, 2), (2, 2, 5), (5, 2, 2)]:
        dp_row = rows("p_a", parts_top, parts=parts)
        series_row = rows("p_a", parts_top, parts=parts, backend="series")
        for n in range(parts_top + 1):
            res.expect(dp_row[n], series_row[n], f"parts={parts} n={n}")
    out.append(res)

    res = CheckResult("monotone[pp_r-in-r]")
    monotone_top = min(12, top)
    for n in range(0, monotone_top + 1):
        values = [rows("pp_r", monotone_top, r)[n] for r in range(1, n + 2)]
        for r, (lo, hi) in enumerate(zip(values, values[1:]), start=1):
            res.expect(lo <= hi, True, f"pp_r({n}, r={r}) <= pp_r({n}, r={r + 1})")
        if n >= 1:
            res.expect(values[-1], rows("pp", monotone_top)[n], f"pp_r({n}, r={n + 1}) == pp({n})")
    out.append(res)

    return out


# --- cross-method -----------------------------------------------------------


def _suite_cross_method(counts, rows, max_n=None, long_running=False) -> list[CheckResult]:
    top = 12 if max_n is None else max_n
    out = []

    for quantity in FAMILIES:
        res = CheckResult(f"cross-method[{quantity}]")
        for r in _r_values(quantity):
            for n in range(top + 1):
                values = _route_values(counts, rows, top, quantity, n, r)
                for route, got in values.items():
                    res.expect(got, values["dp"], lambda: f"{_label(quantity, n, r)} via {route}")
        out.append(res)

    # The vector sum also holds below the stated ranges, which stay as data.
    res = CheckResult("vector-sum-below-range")
    for quantity, family in FAMILIES.items():
        for r in _r_values(quantity):
            for n in range(1, min(5, top) + 1):
                if not family.holds(n, r):
                    got = formulas._vector_sum(n, quantity_weights(quantity, n, r, None).weights)
                    res.expect(got, rows(quantity, top, r)[n], _label(quantity, n, r))
    out.append(res)

    # The block polynomial (1 + z + ... + z^alpha)^copies, alpha = modulus/copies - 1,
    # weights a Stirling sum's coordinate; bounded_composition_count gives its
    # coefficients, checked against a direct convolution.
    direct = CheckResult("block-poly[direct-vs-closed]")
    reciprocity = CheckResult("block-poly[reciprocity]")
    mass = CheckResult("block-poly[mass]")
    for modulus in (6, 12, 60):
        for copies in range(1, 7):
            if modulus % copies:
                continue
            alpha = modulus // copies - 1
            degree = copies * alpha
            coeffs, reference = _block_row(copies, alpha), _convolved(copies, alpha)
            label = f"copies={copies} modulus={modulus}"
            for k in range(degree + 1):
                direct.expect(coeffs[k], reference[k], lambda: f"{label} k={k}")
                reciprocity.expect(coeffs[k], coeffs[degree - k], lambda: f"{label} k={k}")
            beyond = formulas.bounded_composition_count(degree + 1, copies, alpha)
            direct.expect(beyond, 0, f"{label} beyond degree")
            mass.expect(sum(coeffs), (modulus // copies) ** copies, label)
    out += [direct, reciprocity, mass]

    return out


# --- stirling ---------------------------------------------------------------

ENGINE_SEQUENCES = (
    (1, 2),
    (1, 2, 3),
    (2, 3, 4),
    (1, 1, 2, 2),
    (1, 2, 3, 3, 4, 4),  # the pps pattern to 4
    (1, 2, 2, 3, 3, 3),  # the pp pattern to 3
)


def _suite_stirling(counts, rows, max_n=None, long_running=False) -> list[CheckResult]:
    cap = _cap(max_n)
    out = []

    engine_top = min(60, cap)
    for parts in ENGINE_SEQUENCES:
        res = CheckResult(f"stirling-engine-vs-dp[parts={','.join(map(str, parts))}]")
        engine_row = stirling.restricted_row_stirling(WeightSequence(tuple(parts)), engine_top)
        dp_row = rows("p_a", engine_top, parts=tuple(parts))
        for n in range(engine_top + 1):
            res.expect(engine_row[n], dp_row[n], f"n={n}")
        out.append(res)

    wrapper_top = min(5 if long_running else 4, cap)
    for quantity, family in FAMILIES.items():
        if family.stem is None:
            continue
        res = CheckResult(f"stirling-wrapper[{quantity}]")
        for n in range(wrapper_top + 1):
            for r in _r_values(quantity):
                if family.holds(n, r):
                    got = dispatch.ROUTES["stirling"].value(dispatch.ComputationRequest(quantity, n, r))
                    res.expect(got, rows(quantity, wrapper_top, r)[n], _label(quantity, n, r))
        out.append(res)

    res = CheckResult("stirling[partial-sum-denominators]")
    for parts in ((1, 2, 3), (1, 2, 2, 3, 3, 3, 4, 4, 4, 4)) if 7 <= cap else ():
        partials = stirling.regrouped_partial_sums(*stirling.generic_setup(pattern("p_a", 7, None, parts), 7))
        res.expect(
            sum(partials.values(), Fraction(0)),
            rows("p_a", engine_top, parts=parts)[7],
            f"parts={parts} sum of partials",
        )
    out.append(res)

    return out


_SUITE_FUNCTIONS = {
    "examples": _suite_examples,
    "cross-method": _suite_cross_method,
    "oracle-consistency": _suite_oracle_consistency,
    "stirling": _suite_stirling,
}
SUITES = tuple(_SUITE_FUNCTIONS)


def run_suite(name: str, *, max_n: int | None = None, long_running: bool = False) -> list[CheckResult]:
    if name not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {name!r}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    # The readers go with this call, so each run lists and builds rows as a
    # fresh process would.
    counts = functools.cache(diagrams.diagram_count_row)
    rows = _row_reader()
    return _SUITE_FUNCTIONS[name](counts, rows, max_n=max_n, long_running=long_running)
