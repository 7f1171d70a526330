"""Relation shapes, formal matrices/ideals, and finite-field
specializations."""

from .shapes import RibetShape, RowSpec, corpus, shape_full_mixed, shape_one_place_type4, shape_r2_two_type2, shape_sigma_type3, shape_specialization, shape_two_type1
from .formal import (
    FormalIdeals,
    FormalMatrices,
    FormalRing,
    build_A_generators,
    build_ideals,
    build_matrices,
    check_e_tau_invariance,
    check_example_r2,
    check_quotient_presentation,
    element_e,
    formal_ring,
    symbolic_det,
)
from .specialize import (
    SpecializedChecks,
    SpecializedInstance,
    check_specialized,
    generate_specialization,
    perturb_alpha,
)
