"""The inclusion of the b-coefficient resolution into the relation
complex: squares, images, adjoint law."""

from dataclasses import replace

import ribetkit.groebner as groebner
from ribetkit.brcomplex import build_cd_morphism, check_d2, ideal_generator_sets_match
from ribetkit.exactpoly import QQ, Polynomial, VariableTable
from ribetkit.groebner import FreeModuleMatrix, IdealSpec
from ribetkit.linalg import rank
from ribetkit.ribet.formal import build_ideals
from ribetkit.ribet.shapes import (
    corpus,
    shape_full_mixed,
    shape_one_place_type4,
    shape_r2_two_type2,
)


def test_cd_morphism_r2():
    cd = build_cd_morphism(shape_r2_two_type2(), cap=2)
    assert cd.commutes
    assert cd.im_c1_is_jprime
    assert cd.im_d1_is_j
    assert cd.quadruples_adjoint
    # Small side: Koszul on two b-coefficient forms.
    assert cd.C.ranks == [1, 2, 1]
    # Big side: four layers per relation slot.
    assert cd.D.ranks[1] == 8
    assert check_d2(cd.C) and check_d2(cd.D)


def test_cd_morphism_corpus_cap2():
    for sh in corpus():
        cd = build_cd_morphism(sh, cap=2)
        assert cd.all_pass(), sh.name


def test_cd_morphism_full_mixed_cap3():
    cd = build_cd_morphism(shape_full_mixed(), cap=3)
    assert cd.all_pass()
    assert check_d2(cd.C) and check_d2(cd.D)
    assert cd.inclusion.check_commutes()


def test_no_cd_morphism_reaches_the_engine():
    from test_veriharness import _groebner_calls

    # The pair relations are exactly the 2 x 2 minors that d_1 of the
    # R(det f) factors produces, so both degree-1 images match their
    # ideals by the sign-canonical sets and never fall back to
    # _ideal_contains_all.
    for sh in corpus():
        for cap in (1, 2, 3):
            cd, calls = _groebner_calls(lambda: build_cd_morphism(sh, cap=cap))
            assert calls == [], (sh.name, cap)
            assert cd.all_pass(), (sh.name, cap)


def test_h0_identification():
    # im(D1 -> D0) literally generates the relation ideal.
    cd = build_cd_morphism(shape_full_mixed(), cap=1)
    gens = [cd.D.diffs[1].entries[0][j] for j in range(cd.D.ranks[1])]
    assert ideal_generator_sets_match(IdealSpec(gens), cd.ideals.J)


def test_generator_sets_match_fallback():
    t = VariableTable(["x", "y"])
    x, y = (Polynomial.var(QQ, t, i) for i in range(2))
    # Same ideal, different presentations: needs the Groebner fallback.
    a = IdealSpec([x + y, x - y])
    b = IdealSpec([x, y])
    assert ideal_generator_sets_match(a, b)
    assert not ideal_generator_sets_match(IdealSpec([x]), IdealSpec([y]))
    # An empty presentation generates the zero ideal.
    zero = Polynomial.zero(QQ, t)
    assert ideal_generator_sets_match(IdealSpec([]), IdealSpec([]))
    assert ideal_generator_sets_match(IdealSpec([zero]), IdealSpec([]))
    assert not ideal_generator_sets_match(IdealSpec([x]), IdealSpec([]))
    assert not ideal_generator_sets_match(IdealSpec([]), IdealSpec([x, y]))


def test_generator_sets_of_the_full_j_match_on_a_d_basis(monkeypatch):
    # The full basis of J(p1-type4) exhausts the default step budget; its
    # quadric generators are compared on a 2-basis instead.
    J = build_ideals(shape_one_place_type4()).J
    gens = list(J.generators)
    assert len(gens) == 16
    # The generators are linearly independent quadrics, so the degree-2
    # part of the ideal of any 15 of them is their span, which misses the
    # sixteenth: that, not the engine, proves each drop below is a
    # different ideal.
    assert all({sum(m) for m in g.terms} == {2} for g in gens)
    monos = sorted({m for g in gens for m in g.terms})
    assert rank([[g.terms.get(m, 0) for m in monos] for g in gens], J.ring) == 16

    def no_full_basis(*args, **kwargs):
        raise AssertionError("a homogeneous comparison built the full basis")

    monkeypatch.setattr(groebner, "buchberger", no_full_basis)
    assert ideal_generator_sets_match(IdealSpec([2 * g for g in gens]), J)
    for i in range(16):
        assert not ideal_generator_sets_match(IdealSpec(gens[:i] + gens[i + 1 :]), J), i


def test_place_factor_degree1_images_are_quadruple_entries():
    # The doubled-column Buchsbaum-Rim factor maps its four distinct-slot
    # wedges onto +-A, +-B, +-C, +-D of the place pair.
    from ribetkit.ribet.formal import build_ideals
    from ribetkit.ribet.shapes import shape_one_place_type4

    sh = shape_one_place_type4()
    ideals = build_ideals(sh)
    pair = next(q for q in ideals.quadruples if q.origin[0] == "pair")
    A, B, C, D = pair.matrix.entries()
    cd = build_cd_morphism(sh, cap=1)
    d1 = [cd.D.diffs[1].entries[0][j] for j in range(cd.D.ranks[1])]
    canon = lambda p: -p if p.leading_term()[1] < 0 else p
    images = {canon(p) for p in d1 if not p.is_zero()}
    for f in (A, B, C, D):
        assert canon(f) in images


def test_check_commutes_fails_when_one_inclusion_entry_changes():
    # Changing entry (i, j) of maps[1] changes column j of d^D_1 . maps[1]
    # by +-(column i of d^D_1) and leaves maps[0] . d^C_1 alone, so with
    # column i of d^D_1 nonzero the square in degree 1 cannot close.
    cd = build_cd_morphism(shape_full_mixed(), cap=3)
    m1, dD1 = cd.inclusion.maps[1], cd.D.diffs[1]
    ring, table = m1.entries[0][0].ring, m1.entries[0][0].table
    one, zero = Polynomial.one(ring, table), Polynomial.zero(ring, table)
    live = [i for i in range(dD1.cols) if any(not e.is_zero() for e in dD1.column(i))]

    def changed(i, j, value):
        rows = [list(r) for r in m1.entries]
        rows[i][j] = value
        maps = list(cd.inclusion.maps)
        maps[1] = FreeModuleMatrix(rows)
        return replace(cd.inclusion, maps=maps)

    slots = [(i, j) for i in live for j in range(m1.cols)]
    i, j = next((i, j) for i, j in slots if m1.entries[i][j] == one)
    assert not changed(i, j, zero).check_commutes()
    i, j = next((i, j) for i, j in slots if m1.entries[i][j].is_zero())
    assert not changed(i, j, one).check_commutes()
    assert cd.inclusion.check_commutes()


def test_cd_morphism_degree1_labels_of_one_place_type4():
    # C: the Koszul slots (row, B) and R(det f) on B_v1 = {3, 4}, its
    # columns named (sigma, B), the B-layer labels they carry in D; D:
    # four layers per slot, and R(det f) on the doubled columns named
    # (sigma, layer) with distinct sigma.
    cd = build_cd_morphism(shape_one_place_type4(), cap=2)
    assert cd.C.labels[1] == [("tensor", 0, 1, (), ((), ((3, "B"), (4, "B"))))] + [
        ("tensor", 1, 0, ((row, "B"),), ("det",)) for row in (1, 2, 3)
    ]
    assert cd.D.labels[1] == [
        ("tensor", 0, 1, (), ((), ((3, a), (4, c)))) for a in "AB" for c in "AB"
    ] + [("tensor", 1, 0, ((row, layer),), ("det",)) for row in (1, 2, 3) for layer in "ABCD"]


# sha256 of the C -> D construction of the five corpus shapes at caps 1,
# 2 and 3: the ranks and shifts of C and D, every differential entry of
# both, D's labels, every inclusion entry and the verdict.  C's labels
# are left out: they are names, and the inclusion entries pin what they
# mean.  A change that moves any rank, entry or image changes it.
CD_DIGEST = "36f5cd9d1e66514602fd4b9f286d2e82290b8204034b22da47cddfe226cee721"


def test_cd_morphism_replays_the_pinned_digest():
    import hashlib
    import json

    from ribetkit.exactpoly import to_text

    def texts(M, rows, cols):
        # A missing differential or map is the zero matrix of its shape.
        if M is None:
            return [["0"] * cols for _ in range(rows)]
        return [[to_text(e) for e in row] for row in M.entries]

    def diffs(X):
        return [
            texts(X.diffs[k], X.ranks[k - 1], X.ranks[k]) for k in range(1, X.top_degree + 1)
        ]

    digest = hashlib.sha256()
    for sh in corpus():
        for cap in (1, 2, 3):
            cd = build_cd_morphism(sh, cap=cap)
            C, D = cd.C, cd.D
            record = {
                "shape": sh.name,
                "cap": cap,
                "C": [C.ranks, C.shift, diffs(C)],
                "D": [D.ranks, D.shift, diffs(D), repr(D.labels)],
                "inclusion": [
                    texts(m, D.ranks[k], C.ranks[k]) for k, m in enumerate(cd.inclusion.maps)
                ],
                "all_pass": cd.all_pass(),
            }
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == CD_DIGEST
