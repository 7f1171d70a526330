"""The inclusion of complexes resolving the b-coefficient ideal into the
complex of full relation quadruples.

For a relation shape, the small side C is the tensor product of

  * the Koszul complex on the b-coefficients L_i of the TypeI/TypeII
    relations, and
  * for each place v != v0, the 2-row Buchsbaum-Rim complex R(det f_v),
    twisted by -1, where f_v has columns (b_sigma, x_sigma - a_sigma)
    over sigma in B_v,

so the image of C^1 -> C^0 = R generates exactly the b-coefficient
ideal J'.  The big side D replaces each Koszul slot by four adjoint
layers (one per matrix coefficient of the relation) restricted to
pairwise-distinct slots, and each place factor by the Buchsbaum-Rim
complex of the doubled column set

  (sigma, A) -> (x_sigma - d_sigma, c_sigma)
  (sigma, B) -> (b_sigma, x_sigma - a_sigma)

restricted to wedge words with pairwise distinct sigma.  The image of
D^1 -> D^0 = R generates the full relation ideal J.

Each C factor is built together with its D factor, and C's basis
carries its B-layer labels: the Koszul slot of row i is (i, B) and the
R(det f_v) column of sigma is (sigma, B), the labels those coefficients
have in D.  So the inclusion C -> D is the identity on labels, built
once on the tensor products.  Commutativity of every square is verified
symbolically, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..borel import TauAction, adjoint_quadruple_check
from ..errors import StructuralError
from ..exactpoly import Polynomial
from ..groebner import (
    Budget,
    DEFAULT_BUDGET,
    FreeModuleMatrix,
    IdealSpec,
    _ideal_contains_all,
)
from ..ribet.formal import FormalIdeals, FormalRing, _sign_canonical, build_ideals
from ..ribet.shapes import RibetShape
from .build import br_detf, koszul_general
from .free_complex import ComplexMorphism, FreeComplex, tensor, unit_complex


def ideal_generator_sets_match(
    a: IdealSpec, b: IdealSpec, budget: Budget = DEFAULT_BUDGET
) -> bool:
    """Two-way membership of generator sets.  The sign-canonical set
    comparison is a sound fast path; mismatches fall back to
    ``_ideal_contains_all`` in both directions."""
    set_a = {_sign_canonical(g) for g in a.generators}
    set_b = {_sign_canonical(g) for g in b.generators}
    if set_a == set_b:
        return True
    return _ideal_contains_all(b, a.generators, budget) and _ideal_contains_all(
        a, b.generators, budget
    )


def _identity_on_labels(source: FreeComplex, target: FreeComplex) -> ComplexMorphism:
    """Chain map sending each source basis element to the target basis
    element with the same label, with coefficient +1; raises if the
    target has no such label.  Every degree gets a matrix, so no map is
    missing (None), which ``check_commutes`` would read as zero."""
    ring, table = source.ring, source.table
    zero = Polynomial.zero(ring, table)
    one = Polynomial.one(ring, table)
    maps = []
    for k in range(source.top_degree + 1):
        rows = target.ranks[k] if k <= target.top_degree else 0
        M = [[zero] * source.ranks[k] for _ in range(rows)]
        index = {lab: i for i, lab in enumerate(target.labels[k])} if rows else {}
        for j, lab in enumerate(source.labels[k]):
            if lab not in index:
                raise StructuralError(f"morphism image label missing: {lab!r}")
            M[index[lab]][j] = one
        maps.append(FreeModuleMatrix(M))
    return ComplexMorphism(source, target, maps)


def _named_br_detf(f: FreeModuleMatrix, names, cap: int, distinct_key=None) -> FreeComplex:
    """R(det f) twisted by -1, with column j renamed ``names[j - 1]`` in
    every degree-k >= 1 label (word, S)."""
    P = br_detf(f, cap=cap, distinct_key=distinct_key).twist(-1)
    P.labels[1:] = [
        [(word, tuple(names[j - 1] for j in S)) for (word, S) in labs] for labs in P.labels[1:]
    ]
    return P


@dataclass
class CDMorphism:
    shape: RibetShape
    ring: FormalRing
    ideals: FormalIdeals
    C: FreeComplex
    D: FreeComplex
    inclusion: ComplexMorphism
    commutes: bool
    im_c1_is_jprime: bool
    im_d1_is_j: bool
    quadruples_adjoint: bool

    def all_pass(self) -> bool:
        return (
            self.commutes
            and self.im_c1_is_jprime
            and self.im_d1_is_j
            and self.quadruples_adjoint
        )


def build_cd_morphism(
    shape: RibetShape, cap: int = 3, budget: Budget = DEFAULT_BUDGET
) -> CDMorphism:
    """Materialize C, D and the inclusion in degrees <= cap, and verify:
    square commutativity, the degree-1 image ideals, and the adjoint
    transformation law for every relation quadruple."""
    ideals = build_ideals(shape)
    F = ideals.ring

    # Each factor is a (C factor, D factor) pair.  Koszul factor: one
    # slot (row, B) per TypeI/TypeII relation, four adjoint layers
    # (row, A..D) on the D side.
    row_quads = [q for q in ideals.quadruples if q.origin[0] == "row"]
    if row_quads:
        k_cols = [((q.origin[1], "B"), q.matrix.b) for q in row_quads]
        layer_cols = [
            ((q.origin[1], layer), coeff)
            for q in row_quads
            for layer, coeff in zip("ABCD", q.matrix.entries())
        ]
        factors = [(
            koszul_general(k_cols, cap=cap),
            koszul_general(layer_cols, distinct_key=lambda lab: lab[0], cap=cap),
        )]
    else:
        factors = [(unit_complex(F.ring, F.table), unit_complex(F.ring, F.table))]

    # One R(det f) pair per place v != v0: columns (sigma, B) in C,
    # (sigma, A) and (sigma, B) in D.
    for v in shape.outer_places:
        bs = shape.b_set(v)
        small = FreeModuleMatrix([[F.b(s) for s in bs], [F.b_prime(s) for s in bs]])
        big = FreeModuleMatrix([
            [e for s in bs for e in (F.c_prime(s), F.b(s))],
            [e for s in bs for e in (F.c(s), F.b_prime(s))],
        ])
        layers = [(s, layer) for s in bs for layer in "AB"]
        factors.append((
            _named_br_detf(small, [(s, "B") for s in bs], cap),
            _named_br_detf(big, layers, cap, distinct_key=lambda j: layers[j - 1][0]),
        ))

    C, D = factors[0]
    for cf, df in factors[1:]:
        C, D = tensor(C, cf, cap), tensor(D, df, cap)
    inc = _identity_on_labels(C, D)

    commutes = inc.check_commutes()

    im_c1 = IdealSpec(
        [C.diffs[1].entries[0][j] for j in range(C.ranks[1])] if C.top_degree >= 1 else []
    )
    im_d1 = IdealSpec(
        [D.diffs[1].entries[0][j] for j in range(D.ranks[1])] if D.top_degree >= 1 else []
    )
    im_c1_ok = ideal_generator_sets_match(im_c1, ideals.Jprime, budget)
    im_d1_ok = ideal_generator_sets_match(im_d1, ideals.J, budget)

    act = TauAction(F.table)
    quads_ok = all(
        adjoint_quadruple_check(*q.matrix.entries(), action=act)
        for q in ideals.quadruples
    )

    return CDMorphism(
        shape, F, ideals, C, D, inc, commutes, im_c1_ok, im_d1_ok, quads_ok
    )
