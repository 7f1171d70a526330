"""Free complexes: Koszul, Buchsbaum-Rim, tensor products, morphisms."""

from .free_complex import (
    ComplexMorphism,
    FreeComplex,
    H1Report,
    check_d2,
    homology_at_point,
    subcomplex,
    symbolic_h1,
    tensor,
    tensor_morphism,
    truncate,
    unit_complex,
)
from .build import (
    BRComplexes,
    br_complexes,
    br_detf,
    br_f,
    generic_2xn,
    inhomogeneous_regular_check,
    koszul,
    koszul_general,
    regularity_check,
)
from .morphism import CDMorphism, build_cd_morphism, ideal_generator_sets_match
