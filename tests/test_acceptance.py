"""Acceptance gate: one test per shipped contract, at stated tolerances.

Every comparison is exact integer equality.  Each test prints a single
PASS/FAIL line (visible under pytest -rA or -s) and enforces its wall-clock
budget; the pytest verdict per test is the authoritative per-criterion line.
"""

from __future__ import annotations

import time

from partcalc.combinat import bounded_composition_count
from partcalc.diagrams import count_diagrams
from partcalc.dispatch import ComputationRequest, compute
from partcalc.formulas import (
    multipartition_formula,
    multiplicity_vectors,
    pp_formula,
    ppr_formula,
    ppr_inclusion_exclusion,
    pps_formula,
    ppso_formula,
)
from partcalc.sequences import (
    WeightFunction,
    WeightSequence,
    quantity_weights,
    spp_multiplicity,
)
from partcalc.series import euler_product, oracle_value, restricted_partition_dp
from partcalc.stirling import (
    multipartition_stirling,
    pp_stirling,
    ppr_stirling,
    pps_stirling,
    ppso_stirling,
    restricted_count_stirling,
)

A3 = ((3, 0, 0), (1, 1, 0), (0, 0, 1))
A4 = ((4, 0, 0, 0), (2, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0), (0, 0, 0, 1))


def _finish(label: str, budget: float | None, started: float, failures: list) -> None:
    elapsed = time.perf_counter() - started
    status = "FAIL" if failures else "PASS"
    print(f"{label}: {status} ({elapsed:.2f}s)")
    assert not failures, f"{label}: first mismatches: {failures[:5]}"
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeded the {budget}s budget"


def _expect(failures: list, got, want, context: str) -> None:
    if got != want:
        failures.append(f"{context}: got {got}, want {want}")


def test_criterion_1_worked_examples():
    started = time.perf_counter()
    failures: list[str] = []
    cases = [
        (ComputationRequest("pp", 3), 6),
        (ComputationRequest("pp_r", 3, r=1), 3),
        (ComputationRequest("pp_r", 3, r=2), 5),
        (ComputationRequest("pp_r", 3, r=3), 6),
        (ComputationRequest("pps", 3), 4),
        (ComputationRequest("ppso", 3), 3),
        (ComputationRequest("P_r", 4, r=2), 20),
    ]
    for req, want in cases:
        value, _ = compute(req)
        _expect(failures, value, want, f"{req.quantity}(n={req.n}, r={req.r})")
    _expect(failures, multiplicity_vectors(3), A3, "multiplicity vectors, n=3")
    _expect(failures, multiplicity_vectors(4), A4, "multiplicity vectors, n=4")
    _finish("criterion 1 (worked examples)", 1.0, started, failures)


def test_criterion_2_series_oracle_equals_dp_oracle():
    started = time.perf_counter()
    failures: list[str] = []
    top = 40
    jobs = [("p", None), ("pp", None), ("pps", None), ("ppso", None)]
    jobs += [("pp_r", r) for r in range(1, 7)]
    jobs += [("P_r", r) for r in range(1, 7)]
    for quantity, r in jobs:
        row = euler_product(quantity_weights(quantity, top, r), top)
        for n in range(top + 1):
            _expect(
                failures,
                row[n],
                oracle_value(quantity, n, r=r),
                f"{quantity}, r={r}, n={n}",
            )
    for parts in ((1, 2, 3), (2, 3, 5, 7), (1, 1, 2, 2)):
        for n in range(top + 1):
            _expect(
                failures,
                oracle_value("p_a", n, parts=parts, backend="series"),
                oracle_value("p_a", n, parts=parts),
                f"p_a, parts={parts}, n={n}",
            )
    _finish("criterion 2 (series oracle vs DP oracle)", 10.0, started, failures)


def test_criterion_3_enumeration_ground_truth():
    started = time.perf_counter()
    failures: list[str] = []
    for n in range(1, 9):
        _expect(
            failures, count_diagrams(n, "all"), oracle_value("pp", n), f"all, n={n}"
        )
        _expect(
            failures,
            count_diagrams(n, "strict"),
            oracle_value("pps", n),
            f"strict, n={n}",
        )
        for r in range(1, n + 1):
            _expect(
                failures,
                count_diagrams(n, "max_rows", r=r),
                oracle_value("pp_r", n, r=r),
                f"max_rows, n={n}, r={r}",
            )
        _expect(
            failures,
            count_diagrams(n, "symmetric"),
            count_diagrams(n, "strict_odd"),
            f"symmetric vs strict-odd, n={n}",
        )
    _finish("criterion 3 (enumeration ground truth)", 120.0, started, failures)


def test_criterion_3_symmetric_diagrams_vs_weighted_series():
    # Transposition-invariant diagrams of weight n number 1, 1, 2, 3, 4, 6,
    # 8, 12 for n = 1..8: the coefficients of the weighted series with part k
    # repeated once for odd k and floor(j/2) times for k = 2j (OEIS A005987).
    # Both the series and the DP on that pattern must give the diagram count;
    # the pattern has a zero at k = 2.  The ppso pattern (k/2 for even k) is a
    # different weighted count, 1, 2, 3, 6, 8, 15, 20, 35, and this check also
    # records that it disagrees with the symmetric count from n = 2 on.
    started = time.perf_counter()
    failures: list[str] = []
    for n in range(1, 9):
        symmetric = count_diagrams(n, "symmetric")
        weights = WeightFunction(n, tuple(spp_multiplicity(k) for k in range(1, n + 1)))
        _expect(
            failures,
            symmetric,
            euler_product(weights, n)[n],
            f"symmetric vs spp series, n={n}",
        )
        _expect(
            failures,
            symmetric,
            restricted_partition_dp(weights.expand(), n),
            f"symmetric vs spp DP, n={n}",
        )
        if n >= 2 and oracle_value("ppso", n) == symmetric:
            failures.append(f"ppso equals the symmetric count at n={n}: {symmetric}")
    _finish("criterion 3 (symmetric diagrams vs weighted series)", 120.0, started, failures)


def test_criterion_4_closed_formulas_vs_oracles():
    started = time.perf_counter()
    failures: list[str] = []
    for n in range(3, 31):
        _expect(failures, pp_formula(n), oracle_value("pp", n), f"pp, n={n}")
        _expect(failures, pps_formula(n), oracle_value("pps", n), f"pps, n={n}")
        _expect(failures, ppso_formula(n), oracle_value("ppso", n), f"ppso, n={n}")
        for r in range(2, n):
            _expect(
                failures,
                ppr_formula(n, r),
                oracle_value("pp_r", n, r=r),
                f"pp_r, n={n}, r={r}",
            )
    for n in range(4, 21):
        for r in range(2, n):
            _expect(
                failures,
                multipartition_formula(n, r),
                oracle_value("P_r", n, r=r),
                f"P_r, n={n}, r={r}",
            )
    top = 25
    for r in range(1, 7):
        oracle_table = [oracle_value("P_r", k, r=r) for k in range(top + 1)]
        formula_table = [
            multipartition_formula(k, r) if k >= 4 and 2 <= r < k else oracle_table[k]
            for k in range(top + 1)
        ]
        for n in range(top + 1):
            want = oracle_value("pp_r", n, r=r)
            _expect(
                failures,
                ppr_inclusion_exclusion(n, r, oracle_table.__getitem__),
                want,
                f"alternating sum (oracle-backed), n={n}, r={r}",
            )
            _expect(
                failures,
                ppr_inclusion_exclusion(n, r, formula_table.__getitem__),
                want,
                f"alternating sum (formula-backed), n={n}, r={r}",
            )
    _finish("criterion 4 (closed formulas vs oracles)", 300.0, started, failures)


ENGINE_SEQUENCES = (
    (1, 2),
    (1, 2, 3),
    (2, 3, 4),
    (1, 1, 2, 2),
    (1, 2, 3, 3),
    (1, 2, 2, 3),
)


def test_criterion_5_stirling_engine_and_wrappers():
    # Integrality of every final rational is asserted inside the engine
    # itself: a non-integer total raises ArithmeticError instead of rounding.
    started = time.perf_counter()
    failures: list[str] = []
    for parts in ENGINE_SEQUENCES:
        a = WeightSequence(parts)
        for n in range(61):
            _expect(
                failures,
                restricted_count_stirling(parts, n),
                restricted_partition_dp(a, n),
                f"engine, parts={parts}, n={n}",
            )
    for n in (3, 4):
        _expect(failures, pp_stirling(n), oracle_value("pp", n), f"pp wrapper, n={n}")
        _expect(
            failures, pps_stirling(n), oracle_value("pps", n), f"pps wrapper, n={n}"
        )
        _expect(
            failures, ppso_stirling(n), oracle_value("ppso", n), f"ppso wrapper, n={n}"
        )
    for n, r in ((3, 2), (4, 2), (4, 3)):
        _expect(
            failures,
            ppr_stirling(n, r),
            oracle_value("pp_r", n, r=r),
            f"pp_r wrapper, n={n}, r={r}",
        )
        if n >= 4:  # the multipartition wrapper's validity range starts at n=4
            _expect(
                failures,
                multipartition_stirling(n, r),
                oracle_value("P_r", n, r=r),
                f"P_r wrapper, n={n}, r={r}",
            )
    _finish("criterion 5 (congruence-sum engine and wrappers)", 300.0, started, failures)


def test_criterion_5_wrappers_extend_to_n5():
    started = time.perf_counter()
    failures: list[str] = []
    _expect(failures, pp_stirling(5), oracle_value("pp", 5), "pp wrapper, n=5")
    _expect(failures, pps_stirling(5), oracle_value("pps", 5), "pps wrapper, n=5")
    _expect(failures, ppso_stirling(5), oracle_value("ppso", 5), "ppso wrapper, n=5")
    for r in (2, 3, 4):
        _expect(
            failures,
            ppr_stirling(5, r),
            oracle_value("pp_r", 5, r=r),
            f"pp_r wrapper, n=5, r={r}",
        )
        _expect(
            failures,
            multipartition_stirling(5, r),
            oracle_value("P_r", 5, r=r),
            f"P_r wrapper, n=5, r={r}",
        )
    _finish("criterion 5 (wrappers at n=5)", 10.0, started, failures)


def test_criterion_6_block_polynomial_properties():
    started = time.perf_counter()
    failures: list[str] = []
    for modulus in (6, 12, 60):
        for copies in range(1, 7):
            if modulus % copies:
                continue  # the block construction needs copies | modulus
            alpha = modulus // copies - 1
            degree = copies * alpha
            coeffs = [bounded_composition_count(k, copies, alpha) for k in range(-1, degree + 2)]
            _expect(
                failures,
                coeffs,
                coeffs[::-1],
                f"reciprocity, s={copies}, D={modulus}",
            )
            direct = [1]  # (1 + z + ... + z^alpha)^copies by direct convolution
            for _ in range(copies):
                direct = [sum(direct[max(k - alpha, 0) : k + 1]) for k in range(len(direct) + alpha)]
            _expect(
                failures,
                coeffs,
                [0, *direct, 0],
                f"closed form, s={copies}, D={modulus}, k=-1..{degree + 1}",
            )
            _expect(
                failures,
                sum(coeffs),
                (modulus // copies) ** copies,
                f"coefficient mass, s={copies}, D={modulus}",
            )
    p_row = euler_product(quantity_weights("p", 40), 40)
    for n in range(1, 41):
        _expect(
            failures,
            len(multiplicity_vectors(n)),
            p_row[n],
            f"multiplicity-vector census, n={n}",
        )
    _finish("criterion 6 (block-polynomial properties)", 10.0, started, failures)

