"""Exact counting of plane partitions, multipartitions, and restricted partitions.

Every quantity can be computed by several independent routes (closed-form
multiplicity-vector sums, Stirling-number congruence sums, truncated series,
dynamic programming, exhaustive diagram enumeration), and the routes are
cross-validated against each other.  All arithmetic is exact.
"""

from __future__ import annotations

from .combinat import binomial, lcm_range, stirling_first_unsigned
from .diagrams import (
    DEFAULT_ENUMERATION_CAP,
    PlanePartitionDiagram,
    count_diagrams,
    enumerate_diagrams,
)
from .dispatch import METHODS, ComputationRequest, RequestError, compute
from .formulas import (
    BlockPolynomial,
    CostGuardExceeded,
    HypothesisError,
    bounded_composition_count,
    multiplicity_vectors,
    multipartition_formula,
    pp_formula,
    ppr_formula,
    ppr_inclusion_exclusion,
    ppr_via_multipartition_formula,
    pps_formula,
    ppso_formula,
)
from .sequences import (
    QUANTITIES,
    WeightFunction,
    WeightSequence,
    seq_multipartition,
    seq_pp,
    seq_pp_r,
    seq_strict,
    seq_symmetric,
    spp_multiplicity,
)
from .series import euler_product, oracle_value, restricted_partition_dp
from .stirling import (
    DEFAULT_BOX_LIMIT,
    CongruenceBox,
    StirlingKernel,
    multipartition_stirling,
    pp_stirling,
    ppr_stirling,
    pps_stirling,
    ppso_stirling,
    regrouped_partial_sums,
    regrouped_sum,
    restricted_count_stirling,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPolynomial",
    "ComputationRequest",
    "CongruenceBox",
    "CostGuardExceeded",
    "DEFAULT_BOX_LIMIT",
    "DEFAULT_ENUMERATION_CAP",
    "HypothesisError",
    "METHODS",
    "PlanePartitionDiagram",
    "QUANTITIES",
    "RequestError",
    "StirlingKernel",
    "WeightFunction",
    "WeightSequence",
    "binomial",
    "bounded_composition_count",
    "compute",
    "count_diagrams",
    "enumerate_diagrams",
    "euler_product",
    "lcm_range",
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
