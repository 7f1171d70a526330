"""ribetkit: exact-arithmetic verification of relation-matrix and
complex identities for 2x2 representations.

Subpackages and modules:

- ``exactpoly``   sparse exact polynomials, the degrevlex order, weights
- ``groebner``    Buchberger engine, normal forms, quotients, syzygies
- ``genmat``      2x2 generic matrices, words, trace/det congruences
- ``borel``       lower-triangular substitution action and invariance
- ``ribet``       relation shapes, formal matrices/ideals, specializations
- ``brcomplex``   Koszul and Buchsbaum-Rim complexes, morphisms
- ``veriharness`` suite runner and ``verify`` CLI
"""

__version__ = "0.1.0"
