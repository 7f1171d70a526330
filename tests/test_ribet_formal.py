"""Formal-ring side of the relation shapes: matrices, ideals, and the
symbolic identity checks."""

import dataclasses

import pytest

from ribetkit.borel import TauAction
from ribetkit.errors import StructuralError
from ribetkit.exactpoly import GF, QQ
from ribetkit.groebner import FreeModuleMatrix, IdealSpec, in_ideal, reduce_by
from ribetkit.ribet.formal import (
    FormalMatrices,
    FormalRing,
    build_A_generators,
    build_ideals,
    build_matrices,
    check_e_tau_invariance,
    check_example_r2,
    check_quotient_presentation,
    element_e,
    example_r2_target,
    symbolic_det,
)
from ribetkit.ribet.shapes import (
    RibetShape,
    RowSpec,
    corpus,
    shape_full_mixed,
    shape_one_place_type4,
    shape_r2_two_type2,
    shape_sigma_type3,
    shape_two_type1,
)


def test_shape_validation():
    with pytest.raises(StructuralError):
        RibetShape(name="bad-rows", r=2, rows=(RowSpec.type_i(),))
    with pytest.raises(StructuralError):
        RibetShape(
            name="bad-iii", r=2, rows=(RowSpec.type_iii(1), RowSpec.type_i())
        )  # TypeIII without Sigma
    with pytest.raises(StructuralError):
        RibetShape(
            name="dup-dedicated",
            r=3,
            rows=(RowSpec.type_iii(3), RowSpec.type_iii(3), RowSpec.type_i()),
            sigma_places=("v0",),
        )


def test_b_sets():
    sh = shape_full_mixed()
    assert sh.b_set("v1") == [2, 3]
    assert sh.b_set("w1") == [4]
    assert sh.b_v0() == [5]
    assert sh.free_generators() == [1]
    assert sorted(sh.x_bearing()) == [2, 3, 4]


def test_build_matrices_r2_example():
    sh = shape_r2_two_type2()
    mats = build_matrices(sh)
    F = mats.ring
    # E = [[delta121, delta122], [delta211, delta212]]
    assert mats.E.entries[0][0] == F.delta(1, 2, 1)
    assert mats.E.entries[0][1] == F.delta(1, 2, 2)
    assert mats.E.entries[1][0] == F.delta(2, 1, 1)
    assert mats.E.entries[1][1] == F.delta(2, 1, 2)
    # E' alterations.
    assert mats.Eprime.entries[0][0] == F.delta(1, 2, 1) - F.d(2)
    assert mats.Eprime.entries[0][1] == F.delta(1, 2, 2) - F.a(1) - F.nu(1)
    assert mats.Eprime.entries[1][0] == F.delta(2, 1, 1) - F.a(2) - F.nu(2)
    assert mats.Eprime.entries[1][1] == F.delta(2, 1, 2) - F.d(1)
    assert mats.D.entries == mats.E.entries


def test_det_E_factorizes_without_type_iv():
    # For a shape with a place in P but no TypeIV rows, the block
    # structure gives det(E) = (x + nu) det(D) exactly.
    sh = RibetShape(
        name="p-no-iv",
        r=3,
        rows=(RowSpec.type_ii(1, 2), RowSpec.type_ii(2, 1), RowSpec.type_i()),
        p_places=("v1",),
        sigma_v={"v1": 3},
    )
    mats = build_matrices(sh)
    F = mats.ring
    det_e = symbolic_det(mats.E)
    det_d = symbolic_det(mats.D)
    g = sh.sigma_v["v1"]
    assert det_e == (F.x(g) + F.nu(g)) * det_d


def test_type_v_row_shape():
    sh = shape_full_mixed()
    mats = build_matrices(sh)
    F = mats.ring
    # The TypeV row (last row) has a unit in its generator column and
    # x + nu in the bookkeeping column.
    n = mats.E.rows
    row = sh.t + 5  # TypeV is the 6th row of the shape
    y_col = n - 1
    assert mats.E.entries[row][y_col] == F.x(4) + F.nu(4)
    assert mats.E.entries[row][sh.t + 4 - 1] == F.one()
    assert mats.Eprime.entries[row][y_col] == F.x(4) - F.a(4)


def test_build_ideals_examples():
    sh = shape_full_mixed()
    ideals = build_ideals(sh)
    F = ideals.ring
    # TypeI row contributes sum eps_i b_i to J'.
    eps_b = F.zero()
    for i in range(1, sh.r + 1):
        eps_b = eps_b + F.eps(1, i) * F.b(i)
    assert eps_b in set(ideals.Jprime.generators)
    # TypeII row (1,2) contributes (a1 + nu1) b2 + b1 d2 - sum delta b.
    tII = (F.a(1) + F.nu(1)) * F.b(2) + F.b(1) * F.d(2)
    for k in range(1, sh.r + 1):
        tII = tII - F.delta(1, 2, k) * F.b(k)
    assert tII in set(ideals.Jprime.generators)
    # Pair (2,3) at the P-place contributes B(2,3) to J' and all four
    # coefficients to J.
    B = F.b(2) * (F.x(3) - F.a(3)) - F.b(3) * (F.x(2) - F.a(2))
    assert B in set(ideals.Jprime.generators)
    A = F.b(2) * F.c(3) - (F.x(3) - F.d(3)) * (F.x(2) - F.a(2))
    assert A in set(ideals.J.generators)


def test_jprime_subset_of_j_generatorwise():
    for sh in corpus():
        ideals = build_ideals(sh)
        jset = set(ideals.J.generators)
        for g in ideals.Jprime.generators:
            assert g in jset


def test_deleted_b_never_appears():
    sh = shape_sigma_type3()
    ideals = build_ideals(sh)
    F = ideals.ring
    assert "b3" not in F.table.names
    assert F.b(3).is_zero()


def test_element_e_r2_matches_closed_form_mod_relations():
    sh = shape_r2_two_type2()
    ideals = build_ideals(sh)
    e = element_e(sh)
    F = ideals.ring
    target = e - example_r2_target(F)
    assert in_ideal(target, ideals.J)


def test_element_e_trivial_cases():
    # Only TypeI rows: E = E' so e = 0.
    assert element_e(shape_two_type1()).is_zero()
    sh = RibetShape(name="single-type1", r=1, rows=(RowSpec.type_i(),))
    assert element_e(sh).is_zero()


def test_element_e_lies_in_ir_for_corpus():
    for sh in corpus():
        element_e(sh)  # raises on membership failure


def _perturbed_r2_matrices():
    """The matrices of the r=2 example with nu1 added to the top left
    entry of E'."""
    mats = build_matrices(shape_r2_two_type2())
    rows = [list(row) for row in mats.Eprime.entries]
    rows[0][0] = rows[0][0] + mats.ring.nu(1)
    return FormalMatrices(mats.ring, mats.D, mats.E, FreeModuleMatrix(rows))


def test_element_e_rejects_a_perturbed_e_prime():
    # Negative control: E' of the r=2 example with nu1 added to its top
    # left entry.  I_R vanishes under a_i -> -nu_i, b_i, c_i, d_i -> 0 and
    # the perturbed e does not: that, not the engine, proves it is
    # outside I_R.
    sh = shape_r2_two_type2()
    perturbed = _perturbed_r2_matrices()
    F = perturbed.ring
    point = {}
    for k, (name, role) in enumerate(zip(F.table.names, F.table.roles)):
        if role == "a":
            point[k] = -F.nu(int(name[1:]))
        elif role in ("b", "c", "d"):
            point[k] = F.zero()
    assert all(g.substitute(point).is_zero() for g in build_ideals(sh).I_R.generators)
    e = symbolic_det(perturbed.Eprime) - symbolic_det(perturbed.E)
    assert e.substitute(point) == F.nu(1) * F.delta(2, 1, 2)
    with pytest.raises(StructuralError, match="escaped I_R"):
        element_e(sh, matrices=perturbed)


def test_element_e_decides_ir_membership_like_the_engine():
    # The engine, the test-only second opinion, agrees with element_e's
    # verdict, taken by the quotient map, on every corpus shape and on
    # the perturbed E' above.
    cases = [(sh, build_matrices(sh)) for sh in corpus()] + [(shape_r2_two_type2(), _perturbed_r2_matrices())]
    verdicts = []
    for sh, mats in cases:
        try:
            element_e(sh, mats)
            verdict = True
        except StructuralError:
            verdict = False
        assert verdict == in_ideal(mats.det_Eprime - mats.det_E, build_ideals(sh).I_R), sh.name
        verdicts.append(verdict)
    assert verdicts == [True] * len(corpus()) + [False]


def test_check_example_r2_variants():
    assert check_example_r2()
    assert check_example_r2(ring=GF(10007))
    assert not check_example_r2(omit_relation=7)


def test_tau_invariance_positive_and_negative():
    assert check_e_tau_invariance(shape_r2_two_type2())
    assert check_e_tau_invariance(shape_one_place_type4())
    assert not check_e_tau_invariance(
        shape_one_place_type4(), drop_pair_generator=True
    )


def test_quotient_presentation_corpus():
    for sh in corpus():
        assert check_quotient_presentation(sh)


def test_quotient_presentation_collapse_values():
    from ribetkit.ribet.formal import quotient_presentation_images

    sh = shape_r2_two_type2()
    ideals = build_ideals(sh)
    F = ideals.ring
    images = [p for p in quotient_presentation_images(ideals) if not p.is_zero()]
    expected = set()
    for (i, j) in sh.type_ii_pairs():
        acc = F.zero()
        for k in range(1, sh.r + 1):
            acc = acc + F.delta(i, j, k) * F.nu(k)
        expected.add(acc)
    assert {(-p if False else p) for p in images} or True
    canon = lambda p: -p if p.leading_term()[1] < 0 else p
    assert {canon(p) for p in images} == {canon(p) for p in expected}


def test_ideal_stability_via_adjoint_law():
    # tau_x moves every J generator by an explicit combination of its own
    # quadruple, so membership of the difference needs no basis at all.
    for sh in corpus():
        ideals = build_ideals(sh)
        act = TauAction(ideals.ring.table)
        x = act.x_var(QQ)
        for q in ideals.quadruples:
            A, B, C, D = (f.lift(act.table) for f in q.matrix.entries())
            assert act.apply(q.matrix.a) == A + B * x
            assert act.apply(q.matrix.b) == B
            assert act.apply(q.matrix.c) == C + (D - A) * x - B * x * x
            assert act.apply(q.matrix.d) == D - B * x


def test_a_generators():
    sh = shape_sigma_type3()
    F = FormalRing(sh)
    gens = dict(build_A_generators(sh, 2, formal=F))
    assert gens["tr(X1)"] == F.a(1) + F.d(1)
    assert gens["det(X1)"] == F.a(1) * F.d(1) - F.b(1) * F.c(1)
    tr12 = gens["tr(X1.X2)"]
    assert tr12 == (
        F.a(1) * F.a(2) + F.b(1) * F.c(2) + F.c(1) * F.b(2) + F.d(1) * F.d(2)
    )
    assert gens["d3"] == F.d(3)
    assert gens["tr(X1)-V"] == F.a(1) + F.d(1) + F.nu(1)


def test_a_generators_invariant():
    from ribetkit.borel import invariant_mod

    sh = shape_sigma_type3()
    F = FormalRing(sh)
    act = TauAction(F.table)
    zero = IdealSpec([])
    for label, g in build_A_generators(sh, 2, formal=F):
        if g.is_zero():
            continue
        assert invariant_mod(g, zero, action=act), label


def test_eprime_minus_e_entrywise_in_ir():
    # Every entry of E' - E lies in the shift ideal; its generators are
    # linear with coprime leading monomials, so plain reduction decides.
    for sh in corpus():
        from ribetkit.ribet.formal import build_matrices

        mats = build_matrices(sh)
        ideals = build_ideals(sh)
        n = mats.E.rows
        for i in range(n):
            for j in range(n):
                diff = mats.Eprime.entries[i][j] - mats.E.entries[i][j]
                assert reduce_by(diff, ideals.I_R.generators).is_zero(), (sh.name, i, j)


# sha256 of every formal construction of the six shapes (the corpus and
# the specialization shape) over QQ and GF(10007): the variable table,
# E, E' and D entry by entry, the generators of J, J' and I_R, the
# quotient-presentation images and the x-bearing generators.  A change
# that moves any variable, entry or generator changes it.
FORMAL_DIGEST = "8e408bd242ffce5cc874e170919f1f01cb9b62e7ef399b5cfba8e6ba946c99cc"


def test_formal_constructions_replay_the_pinned_digest():
    import hashlib
    import json

    from ribetkit.exactpoly import to_text
    from ribetkit.ribet.formal import quotient_presentation_images
    from ribetkit.ribet.shapes import shape_specialization

    def texts(polys):
        return [to_text(p) for p in polys]

    digest = hashlib.sha256()
    for sh in corpus() + [shape_specialization()]:
        for ring in (QQ, GF(10007)):
            mats = build_matrices(sh, ring)
            ideals = build_ideals(sh, ring)
            table = mats.ring.table
            record = {
                "shape": sh.name,
                "ring": repr(ring),
                "names": list(table.names),
                "roles": list(table.roles),
                "E": [texts(row) for row in mats.E.entries],
                "Eprime": [texts(row) for row in mats.Eprime.entries],
                "D": [texts(row) for row in mats.D.entries],
                "J": texts(ideals.J.generators),
                "Jprime": texts(ideals.Jprime.generators),
                "I_R": texts(ideals.I_R.generators),
                "images": texts(quotient_presentation_images(ideals)),
                "x_bearing": sh.x_bearing(),
            }
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == FORMAL_DIGEST


def test_shared_constructions_are_immutable():
    # Every check of a process shares these objects, so none may change.
    mats = build_matrices(shape_full_mixed())
    ideals = build_ideals(shape_full_mixed())
    quad = ideals.quadruples[0]
    assert isinstance(ideals.quadruples, tuple)
    for obj, attr, value in (
        (mats, "E", mats.Eprime),
        (mats, "det_E", mats.det_Eprime),
        (ideals, "J", ideals.Jprime),
        (ideals, "quadruples", ()),
        (quad, "matrix", ideals.quadruples[1].matrix),
        (quad, "origin", ("row", 99)),
        (ideals.ring, "table", None),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, value)


def test_matrices_keep_their_determinants(monkeypatch):
    # det E and det E' are computed once per matrices object, and the
    # checks that need them read the kept values.
    import ribetkit.ribet.formal as formal

    sh = shape_r2_two_type2()
    calls = []
    monkeypatch.setattr(formal, "symbolic_det", lambda M: calls.append(M) or symbolic_det(M))
    formal._formal_ring.cache_clear()
    try:
        mats = build_matrices(sh)
        assert mats.det_E == symbolic_det(mats.E) and mats.det_Eprime == symbolic_det(mats.Eprime)
        assert element_e(sh) == mats.det_Eprime - mats.det_E
        assert check_example_r2() and check_e_tau_invariance(sh)
        assert [id(M) for M in calls] == [id(mats.E), id(mats.Eprime)]
    finally:
        formal._formal_ring.cache_clear()
