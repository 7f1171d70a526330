"""Free complexes: Koszul, Buchsbaum-Rim, tensor, homology, regularity."""

import random

import pytest

from ribetkit.brcomplex import (
    ComplexMorphism,
    FreeComplex,
    br_complexes,
    br_detf,
    br_f,
    check_d2,
    generic_2xn,
    homology_at_point,
    inhomogeneous_regular_check,
    koszul,
    koszul_general,
    subcomplex,
    symbolic_h1,
    tensor,
    tensor_morphism,
    truncate,
    unit_complex,
)
from ribetkit.errors import StructuralError
from ribetkit.exactpoly import QQ, Polynomial
from ribetkit.groebner import FreeModuleMatrix, module_contains, module_gb
from ribetkit.brcomplex.build import regularity_check


def bvars(n):
    M = generic_2xn(n)
    return M, list(M.entries[0]), list(M.entries[1])


def test_koszul_two_elements():
    M, b, bp = bvars(2)
    K = koszul(b)
    assert K.ranks == [1, 2, 1]
    assert K.diffs[1].entries == ((b[0], b[1]),)
    d2 = K.diffs[2]
    assert [d2.entries[0][0], d2.entries[1][0]] == [-b[1], b[0]]
    assert check_d2(K)
    assert K.twists() == [0, 1, 2]


def test_koszul_single_element():
    M, b, bp = bvars(1)
    f = b[0] * bp[0] - 3
    K = koszul([f])
    assert K.ranks == [1, 1]
    assert K.diffs[1].entries[0][0] == f


def test_koszul_resolves_regular_variable_sequence():
    # Variables form a regular sequence; homology vanishes above degree 0
    # symbolically at degree 1 and at sampled points everywhere.
    M, b, bp = bvars(3)
    K = koszul(b)
    assert check_d2(K)
    assert symbolic_h1(K).is_exact_at_1
    rng = random.Random(3)
    p = 101
    nvars = len(K.table)
    for _ in range(50):
        point = {i: rng.randrange(p) for i in range(nvars)}
        dims = homology_at_point(K, point, p)
        assert all(d == 0 for d in dims[1:])


def test_br_complexes_shapes_and_d2():
    for n in (2, 3, 4):
        M, b, bp = bvars(n)
        brs = br_complexes(M)
        assert check_d2(brs.Rf)
        assert check_d2(brs.Rdetf)
        assert brs.Rf.ranks[0] == 2 and brs.Rf.ranks[1] == n
        assert brs.Rdetf.ranks[0] == 1 and brs.Rdetf.ranks[1] == n * (n - 1) // 2


def test_br_full_length_n5():
    M, b, bp = bvars(5)
    brs = br_complexes(M)
    assert brs.Rf.ranks == [2, 5, 10, 10, 3]
    assert brs.Rdetf.ranks == [1, 10, 25, 24, 8]
    assert check_d2(brs.Rf)
    assert check_d2(brs.Rdetf)


def test_br_detf_degree1_image_is_minors_ideal():
    M, b, bp = bvars(3)
    rd = br_complexes(M).Rdetf
    entries = [rd.diffs[1].entries[0][j] for j in range(rd.ranks[1])]
    r = lambda i, j: b[i] * bp[j] - b[j] * bp[i]
    minors = {r(0, 1), r(0, 2), r(1, 2)}
    assert set(entries) == minors


def test_br_f_degree2_image_is_dijk():
    M, b, bp = bvars(3)
    rf = br_complexes(M).Rf
    col = [rf.diffs[2].entries[i][0] for i in range(3)]
    r = lambda i, j: b[i] * bp[j] - b[j] * bp[i]
    # d_123 = r_12 e_3 + r_23 e_1 + r_31 e_2.
    assert col == [r(1, 2), -r(0, 2), r(0, 1)]


def test_br_m1_input_is_koszul():
    M, b, bp = bvars(2)
    row = FreeModuleMatrix([[b[0], b[1]]])
    brs = br_complexes(row)
    assert brs.Rf.ranks == brs.Rdetf.ranks == [1, 2, 1]


def test_tensor_unit_and_multiplicativity():
    M, b, bp = bvars(2)
    K1, K2 = koszul([b[0]]), koszul([b[1]])
    T = tensor(K1, K2)
    K12 = koszul(b)
    assert T.ranks == K12.ranks == [1, 2, 1]
    assert check_d2(T)
    assert symbolic_h1(T).is_exact_at_1
    U = unit_complex(QQ, K1.table)
    TU = tensor(K12, U)
    assert TU.ranks == K12.ranks
    assert check_d2(TU)


def test_tensor_rank_convolution_and_twists():
    M, b, bp = bvars(3)
    A = koszul(b)  # ranks 1,3,3,1
    B = koszul(b[:2])  # ranks 1,2,1
    T = tensor(A, B)
    expected = []
    for n in range(6):
        expected.append(
            sum(
                A.ranks[p] * B.ranks[n - p]
                for p in range(len(A.ranks))
                if 0 <= n - p < len(B.ranks)
            )
        )
    assert T.ranks == expected
    assert T.twists() == [k + A.shift + B.shift for k in range(6)]
    tw = tensor(A.twist(-1), B)
    assert tw.twists() == [k - 1 for k in range(6)]


def _dense_tensor_differential(K1, K2, n):
    """d_n of K1 (x) K2 written entry by entry: summands (p, q, j1, j2) by
    ascending p, row-major inside a block, and
    d(e1 (x) e2) = d e1 (x) e2 + (-1)^p e1 (x) d e2."""
    def basis(total):
        return [
            (p, total - p, j1, j2)
            for p in range(len(K1.ranks))
            if 0 <= total - p < len(K2.ranks)
            for j1 in range(K1.ranks[p])
            for j2 in range(K2.ranks[total - p])
        ]

    zero = K1.zero_entry()
    rows, cols = basis(n - 1), basis(n)
    M = [[zero] * len(cols) for _ in rows]
    for c, (p, q, j1, j2) in enumerate(cols):
        for r, (pt, qt, i1, i2) in enumerate(rows):
            if (pt, qt) == (p - 1, q) and i2 == j2:
                M[r][c] = K1.diffs[p].entries[i1][j1]
            elif (pt, qt) == (p, q - 1) and i1 == j1:
                e = K2.diffs[q].entries[i2][j2]
                M[r][c] = -e if p % 2 else e
    return M


def test_tensor_differentials_match_dense_koszul_sign_reference():
    M, b, bp = bvars(2)
    K1, K2 = koszul(b), koszul(bp)
    T = tensor(K1, K2)
    assert T.ranks == [1, 4, 6, 4, 1]
    # The (1, 1) block of degree 2 is 2 x 2, so its row-major order matters.
    assert T.labels[2][1:5] == [("tensor", 1, 1, (i,), (j,)) for i in (1, 2) for j in (1, 2)]
    for n in range(1, 5):
        assert [list(row) for row in T.diffs[n].entries] == _dense_tensor_differential(K1, K2, n)
    assert check_d2(T)


def _identity_morphism(K):
    one, zero = Polynomial.one(K.ring, K.table), K.zero_entry()
    maps = [
        FreeModuleMatrix([[one if i == j else zero for j in range(r)] for i in range(r)])
        for r in K.ranks
    ]
    return ComplexMorphism(K, K, maps)


def test_tensor_morphism_of_identities_is_identity():
    M, b, bp = bvars(3)
    K1, K2 = koszul(b), koszul(bp[:2])
    T = tensor(K1, K2)
    f = tensor_morphism(_identity_morphism(K1), _identity_morphism(K2), T, T)
    assert f.maps == _identity_morphism(T).maps
    assert f.check_commutes()
    # A truncation is a prefix of the layout.
    T2 = truncate(T, 2)
    g = tensor_morphism(_identity_morphism(K1), _identity_morphism(K2), T2, T2)
    assert g.maps == _identity_morphism(T2).maps


def test_capped_tensor_is_the_truncated_tensor():
    M, b, bp = bvars(3)
    brs = br_complexes(M)
    for C1, C2 in ((koszul(b).twist(2), brs.Rdetf), (brs.Rf, koszul(bp).twist(-1))):
        full = tensor(C1, C2)
        assert tensor(C1, C2, None) == full
        for cap in range(full.top_degree + 1):
            capped, expected = tensor(C1, C2, cap), truncate(full, cap)
            assert capped.ranks == expected.ranks
            assert capped.labels == expected.labels
            assert capped.shift == expected.shift
            for got, want in zip(capped.diffs, expected.diffs, strict=True):
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.entries == want.entries


@pytest.mark.parametrize("d1_is_x, commutes", [(True, False), (False, True)])
def test_check_commutes_reads_a_missing_differential_as_zero(d1_is_x, commutes):
    # The source is 0 -> R in degree 1, so its d_1 is missing (None) and
    # the square in degree 1 reduces to d_1 . phi_1 = 0 on the target side.
    M, b, bp = bvars(1)
    table = b[0].table
    x = b[0] if d1_is_x else Polynomial.zero(QQ, table)
    source = FreeComplex(QQ, table, [0, 1], [None, None], [[], ["e"]])
    target = FreeComplex(QQ, table, [1, 1], [None, FreeModuleMatrix([[x]])], [["w"], ["e"]])
    one = Polynomial.one(QQ, table)
    phi = ComplexMorphism(source, target, [FreeModuleMatrix([[]]), FreeModuleMatrix([[one]])])
    assert phi.check_commutes() is commutes


@pytest.mark.parametrize("target_d1_is_empty_matrix", [False, True])
@pytest.mark.parametrize("d1_is_x, commutes", [(True, False), (False, True)])
def test_check_commutes_reads_an_empty_matrix_as_zero(d1_is_x, commutes, target_d1_is_empty_matrix):
    # The target is R in degree 0 only, so its d_1 maps from the zero
    # module: stored as None or as a 1 x 0 matrix, it is the zero map, and
    # the square in degree 1 reduces to phi_0 . d_1 = 0 on the source side.
    M, b, bp = bvars(1)
    table = b[0].table
    x = b[0] if d1_is_x else Polynomial.zero(QQ, table)
    source = FreeComplex(QQ, table, [1, 1], [None, FreeModuleMatrix([[x]])], [["w"], ["e"]])
    target_d1 = FreeModuleMatrix([[]]) if target_d1_is_empty_matrix else None
    target = FreeComplex(QQ, table, [1, 0], [None, target_d1], [["w"], []])
    one = Polynomial.one(QQ, table)
    phi = ComplexMorphism(source, target, [FreeModuleMatrix([[one]]), FreeModuleMatrix([])])
    assert phi.check_commutes() is commutes


def test_tensor_morphism_rejects_complexes_that_do_not_fit_the_factors():
    M, b, bp = bvars(3)
    K1, K2 = koszul(b[:2]), koszul(bp[:2])
    phi, psi = _identity_morphism(K1), _identity_morphism(K2)
    T = tensor(K1, K2)
    wrong = tensor(K1, koszul(bp))
    for source, target in ((wrong, T), (T, wrong), (koszul(b), T)):
        with pytest.raises(StructuralError):
            tensor_morphism(phi, psi, source, target)


def test_check_d2_detects_corruption():
    M, b, bp = bvars(2)
    K = koszul(b)
    bad_d2 = FreeModuleMatrix([[b[1]], [b[0]]])  # sign flipped
    from ribetkit.brcomplex.free_complex import FreeComplex

    bad = FreeComplex(K.ring, K.table, K.ranks, [None, K.diffs[1], bad_d2], K.labels)
    assert not check_d2(bad)


def test_homology_at_point_examples():
    M, b, bp = bvars(2)
    K = koszul(b)
    p = 101
    generic = {0: 3, 1: 0, 2: 1, 3: 5}  # b1 != 0
    assert homology_at_point(K, generic, p) == [0, 0, 0]
    origin = {0: 0, 1: 0, 2: 1, 3: 5}
    assert homology_at_point(K, origin, p) == [1, 2, 1]


def test_symbolic_h1_examples():
    M, b, bp = bvars(2)
    assert symbolic_h1(koszul(b)).is_exact_at_1
    M3, b3, bp3 = bvars(3)
    rf = br_f(M3)
    rep = symbolic_h1(rf)
    assert rep.is_exact_at_1
    # Kernel is exactly the d_123 module: two-way containment.
    r = lambda i, j: b3[i] * bp3[j] - b3[j] * bp3[i]
    d123 = [r(1, 2), -r(0, 2), r(0, 1)]
    gb_d = module_gb([d123])
    for v in rep.h1_generators:
        assert module_contains(v, gb_d)
    # Deleting d_2 breaks exactness.
    crippled = truncate(rf, 1)
    assert not symbolic_h1(crippled).is_exact_at_1
    # No syzygies: the Koszul complex on one element is exact at 1.
    rep = symbolic_h1(koszul(b[:1]))
    assert (rep.h1_generators, rep.is_exact_at_1) == ([], True)
    # A d_2 with no columns, or none, leaves the nonzero syzygy outside.
    K = koszul(b)
    for d2 in (FreeModuleMatrix([[], []]), None):
        C = FreeComplex(K.ring, K.table, [1, 2, 0], [None, K.diffs[1], d2], K.labels[:2] + [[]])
        rep = symbolic_h1(C)
        assert len(rep.h1_generators) == 1 and not rep.is_exact_at_1


def _br_exact_instance():
    from ribetkit.veriharness.suites import _br_exact_instance

    return _br_exact_instance()


@pytest.mark.parametrize("build, count, terms", [
    (lambda: koszul(bvars(2)[1]), 1, 2),
    (lambda: br_complexes(generic_2xn(3)).Rf, 2, 12),
    (_br_exact_instance, 1, 5),
    (lambda: br_complexes(generic_2xn(4)).Rf, 12, 72),
], ids=["koszul-2", "rf-2x3", "br-exact", "rf-2x4"])
def test_symbolic_h1_generator_counts(build, count, terms):
    # The reports print these counts as witnesses.  The module basis is
    # not interreduced, so its pair order fixes them; every new element is
    # fully reduced, which fixes their terms (head-only reduction leaves
    # 82 on R(f) 2x4).
    rep = symbolic_h1(build())
    assert rep.is_exact_at_1
    assert len(rep.h1_generators) == count
    assert sum(len(e.terms) for v in rep.h1_generators for e in v) == terms


def test_subcomplex_closure():
    M, b, bp = bvars(2)
    K = koszul(b)
    only_first = subcomplex(K, lambda lab: lab == () or lab == (1,))
    assert only_first.ranks == [1, 1]
    with pytest.raises(StructuralError):
        # Keeping the top wedge without degree 1 is not closed.
        subcomplex(K, lambda lab: lab == () or len(lab) == 2)


def test_subcomplex_rejects_a_kept_column_hitting_a_dropped_row():
    # Both degrees keep something, but d((1, 2)) = b2 (1,) - b1 (2,) has
    # a nonzero entry in the dropped row (2,).
    M, b, bp = bvars(3)
    K = koszul(b)
    with pytest.raises(StructuralError):
        subcomplex(K, lambda lab: lab in ((), (1,), (1, 2)))


def test_free_complex_rejects_a_label_list_shorter_than_its_rank():
    # Degree 1 has rank 2 but one label; accepted, it made
    # subcomplex(C, lambda lab: True) keep one summand of the two.
    M, b, bp = bvars(1)
    x = b[0]
    with pytest.raises(StructuralError):
        FreeComplex(QQ, x.table, [1, 2], [None, FreeModuleMatrix([[x, x]])], [["w"], ["e"]])


def test_koszul_general_distinct_keys():
    M, b, bp = bvars(2)
    cols = [((1, "A"), b[0]), ((1, "B"), bp[0]), ((2, "A"), b[1]), ((2, "B"), bp[1])]
    C = koszul_general(cols, distinct_key=lambda lab: lab[0])
    # Degree 1: all four columns; degree 2: only cross-slot pairs (4);
    # degree 3+: impossible.
    assert C.ranks == [1, 4, 4]
    assert check_d2(C)


def _column(C, k, label):
    """d_k of the basis element ``label``, as {row label: nonzero entry}."""
    j = C.labels[k].index(label)
    d = C.diffs[k]
    return {C.labels[k - 1][i]: d.entries[i][j] for i in range(d.rows) if not d.entries[i][j].is_zero()}


def test_br_detf_basis_order_and_signs_2x4():
    M, b, bp = bvars(4)
    R = br_detf(M, cap=3)
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    triples = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert R.labels[0] == [("det",)]
    assert R.labels[1] == [((), S) for S in pairs]
    assert R.labels[2] == (
        [(((1,),), S) for S in triples]
        + [(((2,),), S) for S in triples]
        + [(((1, 2),), (1, 2, 3, 4))]
    )

    def r(i, j):
        return b[i - 1] * bp[j - 1] - b[j - 1] * bp[i - 1]

    # iota_{w1*^w2*} e_S = sum_{p<q} (-1)^{p+q} r_{S_p S_q} e_{S - {p,q}},
    # positions p, q counted from 0.
    assert _column(R, 2, (((1, 2),), (1, 2, 3, 4))) == {
        ((), (3, 4)): -r(1, 2),
        ((), (2, 4)): r(1, 3),
        ((), (2, 3)): -r(1, 4),
        ((), (1, 4)): -r(2, 3),
        ((), (1, 3)): r(2, 4),
        ((), (1, 2)): -r(3, 4),
    }
    # Degree 3: the merge w1* (x) w2* -> +w1*^w2* at bar position 0, then
    # (-1)^{k-2} = -1 times iota_{w2*} e_S = sum_pos (-1)^pos bp_{S_pos} e_{S - pos}.
    assert _column(R, 3, (((1,), (2,)), (1, 2, 3, 4))) == {
        (((1, 2),), (1, 2, 3, 4)): Polynomial.one(QQ, M.entries[0][0].table),
        (((1,),), (2, 3, 4)): -bp[0],
        (((1,),), (1, 3, 4)): bp[1],
        (((1,),), (1, 2, 4)): -bp[2],
        (((1,),), (1, 2, 3)): bp[3],
    }
    assert check_d2(R)


def test_br_detf_distinct_key_keeps_slot_sets_with_distinct_keys():
    M, b, bp = bvars(4)
    R = br_detf(M, cap=3, distinct_key=lambda j: "sstt"[j - 1])
    assert R.ranks == [1, 4]
    assert R.labels[1] == [((), S) for S in [(1, 3), (1, 4), (2, 3), (2, 4)]]
    assert check_d2(R)
    # With three keys degree 2 survives, so d_1 d_2 = 0 says something:
    # 2 * 2 * 2 slot sets of size 3, each under the words (1,) and (2,).
    R6 = br_detf(generic_2xn(6), cap=3, distinct_key=lambda j: "ssttuu"[j - 1])
    assert R6.ranks == [1, 12, 16]
    assert all(len({"ssttuu"[j - 1] for j in S}) == len(S) for labs in R6.labels[1:] for _w, S in labs)
    assert check_d2(R6)


def test_regularity_examples():
    assert regularity_check(generic_2xn(2))
    assert regularity_check(generic_2xn(3))
    M, b, bp = bvars(3)
    degenerate = FreeModuleMatrix([[b[0], b[0], b[2]], [bp[0], bp[0], bp[2]]])
    assert not regularity_check(degenerate)


def test_inhomogeneous_regularity_m2n2():
    assert inhomogeneous_regular_check(2, 2)


def test_br_exact_prop_instance():
    # One 2-element block plus one generic linear form: exact at degree 1
    # symbolically and at 20 random points in degrees >= 1.
    from ribetkit.veriharness.suites import _br_exact_instance

    C = _br_exact_instance()
    assert check_d2(C)
    assert symbolic_h1(C).is_exact_at_1
    rng = random.Random(0)
    p = 10007
    for _ in range(20):
        point = {i: rng.randrange(p) for i in range(len(C.table))}
        dims = homology_at_point(C, point, p)
        assert all(d == 0 for d in dims[1:]), dims


def test_br_complexes_acyclic_at_generic_points():
    # Both complexes of a generic 2xn map are exact away from the minors
    # locus; random points land off it, so every homology vanishes in
    # degrees >= 1 (and in degree 0 for R(det f), whose H_0 is R/minors).
    rng = random.Random(17)
    p = 10007
    for n in (3, 4, 5):
        M, b, bp = bvars(n)
        brs = br_complexes(M)
        nvars = len(M.entries[0][0].table)
        for _ in range(10):
            point = {i: rng.randrange(p) for i in range(nvars)}
            for C in (brs.Rf, brs.Rdetf):
                dims = homology_at_point(C, point, p)
                assert all(d == 0 for d in dims[1:]), (n, dims)


def test_br_detf_exact_at_1_generic_2x3():
    M, b, bp = bvars(3)
    rd = br_complexes(M).Rdetf
    rep = symbolic_h1(rd)
    assert rep.is_exact_at_1
