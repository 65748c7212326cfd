"""Exact counting of plane partitions, multipartitions, and restricted partitions.

Every quantity can be computed by several independent routes (closed-form
multiplicity-vector sums, Stirling-number congruence sums, truncated series,
dynamic programming, exhaustive diagram enumeration), and the routes are
cross-validated against each other.  All arithmetic is exact.

`import partcalc` loads sequences, series and dispatch.  The other modules
load on first use: formulas alone for a theorem request, stirling (with
combinat) for a Stirling request, diagrams for enumeration, each for one of
its names below, and verify only when imported.
"""

from __future__ import annotations

from .dispatch import METHODS, ComputationRequest, RequestError, compute
from .sequences import (
    QUANTITIES,
    HypothesisError,
    WeightFunction,
    WeightSequence,
    seq_multipartition,
    seq_pp,
    seq_pp_r,
    seq_strict,
    seq_symmetric,
    spp_multiplicity,
)
from .series import CostGuardExceeded, euler_product, oracle_value, restricted_partition_dp

# The module of each name that loads on first use.  Each access reads the
# module's attribute afresh, so a replaced function (a tracer, a test
# double) is the one returned.
_ON_FIRST_USE = {
    **dict.fromkeys(("bounded_composition_count", "stirling_first_unsigned"), "combinat"),
    **dict.fromkeys(
        (
            "multiplicity_vectors",
            "multipartition_formula",
            "pp_formula",
            "ppr_formula",
            "ppr_inclusion_exclusion",
            "ppr_via_multipartition_formula",
            "ppr_via_multipartition_row",
            "pps_formula",
            "ppso_formula",
        ),
        "formulas",
    ),
    **dict.fromkeys(
        (
            "CongruenceBox",
            "DEFAULT_BOX_LIMIT",
            "StirlingKernel",
            "multipartition_stirling",
            "pp_stirling",
            "ppr_stirling",
            "pps_stirling",
            "ppso_stirling",
            "regrouped_partial_sums",
            "regrouped_sum",
            "restricted_count_stirling",
        ),
        "stirling",
    ),
    **dict.fromkeys(
        ("ENUMERATION_LIMIT", "PlanePartitionDiagram", "count_diagrams", "enumerate_diagrams"),
        "diagrams",
    ),
}


def __getattr__(name: str):
    from importlib import import_module

    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


__version__ = "0.1.0"

__all__ = [
    "ComputationRequest",
    "CongruenceBox",
    "CostGuardExceeded",
    "DEFAULT_BOX_LIMIT",
    "ENUMERATION_LIMIT",
    "HypothesisError",
    "METHODS",
    "PlanePartitionDiagram",
    "QUANTITIES",
    "RequestError",
    "StirlingKernel",
    "WeightFunction",
    "WeightSequence",
    "bounded_composition_count",
    "compute",
    "count_diagrams",
    "enumerate_diagrams",
    "euler_product",
    "multipartition_formula",
    "multipartition_stirling",
    "multiplicity_vectors",
    "oracle_value",
    "pp_formula",
    "pp_stirling",
    "ppr_formula",
    "ppr_inclusion_exclusion",
    "ppr_stirling",
    "ppr_via_multipartition_formula",
    "ppr_via_multipartition_row",
    "pps_formula",
    "pps_stirling",
    "ppso_formula",
    "ppso_stirling",
    "regrouped_partial_sums",
    "regrouped_sum",
    "restricted_count_stirling",
    "restricted_partition_dp",
    "seq_multipartition",
    "seq_pp",
    "seq_pp_r",
    "seq_strict",
    "seq_symmetric",
    "spp_multiplicity",
    "stirling_first_unsigned",
]
