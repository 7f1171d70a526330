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
D^1 -> D^0 = R generates the full relation ideal J.  The inclusion maps
send a wedge slot to its B-layer; commutativity of every square is
verified symbolically, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..borel import TauAction, adjoint_quadruple_check
from ..errors import StructuralError
from ..exactpoly import QQ, CoefficientRing, Polynomial
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
from .free_complex import (
    ComplexMorphism,
    FreeComplex,
    tensor,
    tensor_morphism,
    truncate,
    unit_complex,
)


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


def _identity_on_labels(
    source: FreeComplex, target: FreeComplex, label_map
) -> ComplexMorphism:
    """Chain map sending each source basis label to one target label
    with coefficient +1."""
    ring, table = source.ring, source.table
    zero = Polynomial.zero(ring, table)
    one = Polynomial.one(ring, table)
    maps = []
    for k in range(source.top_degree + 1):
        rows = target.ranks[k] if k <= target.top_degree else 0
        M = [[zero] * source.ranks[k] for _ in range(rows)]
        index = {lab: i for i, lab in enumerate(target.labels[k])} if rows else {}
        for j, lab in enumerate(source.labels[k]):
            img = label_map(k, lab)
            if img is None:
                continue
            if img not in index:
                raise StructuralError(f"morphism image label missing: {img!r}")
            M[index[img]][j] = one
        maps.append(FreeModuleMatrix(M))
    return ComplexMorphism(source, target, maps)


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
    shape: RibetShape,
    cap: int = 3,
    ring: CoefficientRing = QQ,
    budget: Budget = DEFAULT_BUDGET,
) -> CDMorphism:
    """Materialize C, D and the inclusion in degrees <= cap, and verify:
    square commutativity, the degree-1 image ideals, and the adjoint
    transformation law for every relation quadruple."""
    ideals = build_ideals(shape, ring)
    F = ideals.ring

    # Koszul factor: one slot per TypeI/TypeII relation, four adjoint
    # layers on the D side.
    row_quads = [q for q in ideals.quadruples if q.origin[0] == "row"]
    k_cols = [(("L", q.origin[1]), q.matrix.b) for q in row_quads]
    layer_cols = []
    for q in row_quads:
        rownum = q.origin[1]
        for layer, coeff in zip("ABCD", q.matrix.entries()):
            layer_cols.append(((rownum, layer), coeff))
    if k_cols:
        C_factors = [koszul_general(k_cols, cap=cap)]
        D_factors = [
            koszul_general(layer_cols, distinct_key=lambda lab: lab[0], cap=cap)
        ]
    else:
        C_factors = [unit_complex(F.ring, F.table)]
        D_factors = [unit_complex(F.ring, F.table)]

    places = [
        v
        for v in list(shape.p_places) + list(shape.sigma_places[1:])
        if len(shape.b_set(v)) >= 1
    ]
    for v in places:
        bs = shape.b_set(v)
        small = FreeModuleMatrix(
            [[F.b(s) for s in bs], [F.b_prime(s) for s in bs]]
        )
        big_cols_top: list[Polynomial] = []
        big_cols_bot: list[Polynomial] = []
        for s in bs:
            big_cols_top += [F.c_prime(s), F.b(s)]
            big_cols_bot += [F.c(s), F.b_prime(s)]
        big = FreeModuleMatrix([big_cols_top, big_cols_bot])
        P = br_detf(small, cap=cap).twist(-1)
        P.labels[1:] = [
            [(word, tuple((bs[i - 1]) for i in S)) for (word, S) in labs]
            for labs in P.labels[1:]
        ]
        # Relabel with (sigma, layer) column names on the big side.
        big_labels = []
        for s in bs:
            big_labels += [(s, "A"), (s, "B")]
        Pt = br_detf(big, cap=cap, distinct_key=lambda lab: big_labels[lab - 1][0]).twist(-1)
        Pt.labels[1:] = [
            [(word, tuple(big_labels[i - 1] for i in S)) for (word, S) in labs]
            for labs in Pt.labels[1:]
        ]
        C_factors.append(P)
        D_factors.append(Pt)

    # Per-factor inclusions.
    def koszul_map(k, lab):
        return tuple((rownum, "B") for (_tag, rownum) in lab)

    def br_map(k, lab):
        if k == 0:
            return lab
        word, S = lab
        return (word, tuple((s, "B") for s in S))

    morphisms = []
    for idx, (cf, df) in enumerate(zip(C_factors, D_factors)):
        if idx == 0 and k_cols:
            morphisms.append(_identity_on_labels(cf, df, koszul_map))
        elif idx == 0:
            morphisms.append(_identity_on_labels(cf, df, lambda k, lab: lab))
        else:
            morphisms.append(_identity_on_labels(cf, df, br_map))

    inc = morphisms[0]
    accC, accD = C_factors[0], D_factors[0]
    for idx in range(1, len(morphisms)):
        newC = truncate(tensor(accC, C_factors[idx]), cap)
        newD = truncate(tensor(accD, D_factors[idx]), cap)
        inc = tensor_morphism(inc, morphisms[idx], newC, newD)
        accC, accD = newC, newD
    C, D = accC, accD

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
