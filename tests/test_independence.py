"""Independence matrix: every route computes its values while the core
function of every other route refuses to run.

A route that quietly read another route's algorithm would fail its row, so
routes that are cross-checked against each other really use different
algorithms.
"""

from __future__ import annotations

import pytest

from partcalc import diagrams, formulas, series, stirling
from partcalc.dispatch import ComputationRequest, compute

# The function that does each route's counting, with every module binding of
# it.  The family Stirling sums multiply block tables (packed_histogram); the
# generic sum at one n walks its box (box_weight_histogram).  The generic
# row, which only verify reads, multiplies the tables too (_packed_product).
CORES = {
    "oracle-dp": ((series, "restricted_partition_row"), (formulas, "restricted_partition_row")),
    "oracle-series": ((series, "euler_product"),),
    "oracle-enum": ((diagrams, "_stacks"),),
    "theorem": ((formulas, "_vector_histogram"),),
    "family-stirling": ((stirling, "packed_histogram"),),
    "generic-stirling": ((stirling, "box_weight_histogram"),),
}

FAMILY_CASES = (("pp", None), ("pp_r", 2), ("pps", None), ("ppso", None), ("P_r", 3))

# (method, quantity, n, r, parts) of the requests each route serves.
REQUESTS = {
    "oracle-dp": [("oracle-dp", q, 80, r and 20, None) for q, r in FAMILY_CASES]
    + [("oracle-dp", "p_a", 40, None, (1, 2, 2, 5))],
    "oracle-series": [("oracle-series", q, 80, r and 20, None) for q, r in FAMILY_CASES]
    + [("oracle-series", "p_a", 40, None, (1, 2, 2, 5))],
    "oracle-enum": [
        ("oracle-enum", q, 6, r, None) for q, r in (("p", None), ("pp", None), ("pp_r", 2), ("pps", None))
    ],
    "theorem": [("theorem", q, 20, r, None) for q, r in FAMILY_CASES],
    "family-stirling": [("stirling", q, 5, r, None) for q, r in FAMILY_CASES],
    "generic-stirling": [
        ("stirling", "p", 5, None, None),
        ("stirling", "p_a", 40, None, (1, 2, 3)),
        ("stirling", "p_a", 30, None, (2, 2, 2, 5)),
    ],
}


@pytest.mark.parametrize("route", CORES)
def test_route_uses_no_other_route(monkeypatch, route):
    requests = REQUESTS[route]
    reference = "series" if route == "oracle-dp" else "dp"
    want = [
        (series.oracle_value(q, n, r=r, parts=parts, backend=reference), method)
        for method, q, n, r, parts in requests
    ]
    # The theorem guard's p row is read once per process, not per value.
    formulas.vector_reach()

    for other, bindings in CORES.items():
        if other == route:
            continue

        def refuse(*args, _other=other, **kwargs):
            raise AssertionError(f"the {route} route called the core of {_other}")

        for module, name in bindings:
            monkeypatch.setattr(module, name, refuse)
    got = [
        compute(ComputationRequest(q, n, r=r, parts=parts, method=method))
        for method, q, n, r, parts in requests
    ]
    assert got == want
