"""Granular operator spaces over finite universes.

Approximation operators and information tables (:mod:`granum.core`),
parthood predicates and their property auditor (:mod:`granum.parthood`),
operator-space axioms, rough quotients and the rough-origin decision
(:mod:`granum.gos`), antichain counting procedures (:mod:`granum.counting`)
and independent brute-force verifiers (:mod:`granum.oracles`).
"""

from .core import (Basis, Granulation, IndiscernibilityRelation, InformationTable,
                   ParseError, Region, Universe, indiscernibility_partition,
                   lower_approx, parse_context, parse_information_table, upper_approx)
from .counting import (AntichainDecomposition, CountLabel, CountingTrace,
                       OrderArrangement, arrangement, fhca_count, hpc_count,
                       hpca_count, pca_count, verify_decomposition)
from .gos import (AxiomReport, BasicRoughOrder, GranularOperatorSpace,
                  PartitionWitness, RoughQuotient, audit_full_underlap,
                  audit_lower_stability, audit_weak_representability,
                  basic_rough_order, knowledge_validity_check, rough_objects,
                  rough_origin)
from .oracles import (all_partitions, brute_force_signatures,
                      enumerate_maximal_antichains, inverse_rough_check,
                      minimum_antichain_cover)
from .parthood import (ParthoodVariant, PropertyReport, VARIANTS, audit_properties,
                       conflict, holds, proper_part, variant)

__version__ = "0.1.0"

__all__ = [
    "AntichainDecomposition", "AxiomReport", "Basis", "BasicRoughOrder", "CountLabel",
    "CountingTrace", "Granulation", "GranularOperatorSpace",
    "IndiscernibilityRelation", "InformationTable", "OrderArrangement",
    "ParseError", "ParthoodVariant", "PartitionWitness", "PropertyReport",
    "Region", "RoughQuotient", "Universe", "VARIANTS",
    "all_partitions", "arrangement", "audit_full_underlap", "audit_lower_stability",
    "audit_properties", "audit_weak_representability", "basic_rough_order",
    "brute_force_signatures", "conflict", "enumerate_maximal_antichains",
    "fhca_count", "holds", "hpc_count", "hpca_count",
    "indiscernibility_partition", "inverse_rough_check", "knowledge_validity_check",
    "lower_approx", "minimum_antichain_cover", "parse_context",
    "parse_information_table", "pca_count", "proper_part", "rough_objects",
    "rough_origin", "upper_approx", "variant", "verify_decomposition",
]
