"""ribetkit: exact-arithmetic verification of relation-matrix and
complex identities for 2x2 representations.

Subpackages and modules:

- ``exactpoly``   sparse exact polynomials, the degrevlex order, weights
- ``linalg``      exact dense linear algebra over QQ and GF(p)
- ``algebra``     the engine's input types and budgets, without the engine
- ``groebner``    Buchberger engine, normal forms, quotients, syzygies
- ``reducers``    the engine's reducer sets and their support index
- ``genmat``      2x2 generic matrices, words, trace/det congruences
- ``borel``       lower-triangular substitution action and invariance
- ``ribet``       relation shapes, formal matrices/ideals, specializations
- ``brcomplex``   Koszul and Buchsbaum-Rim complexes, morphisms
- ``veriharness`` suite runner and ``verify`` CLI
"""

__version__ = "0.1.0"
