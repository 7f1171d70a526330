"""Generic 2x2 matrices: words, invariants, and the congruence checks."""

import random
from itertools import product

import pytest

from ribetkit.errors import StructuralError
from ribetkit.exactpoly import QQ, Polynomial
from ribetkit.genmat import (
    GenericModel,
    Mat2,
    Word,
    det_congruence_check,
    invariants_of,
    trace_congruence_check,
    v_map,
    word_eval,
)


def generic_pair():
    model = GenericModel(2)
    return model, model.rho(1), model.rho(2)


def test_word_eval_product():
    model, r1, r2 = generic_pair()
    m = word_eval(Word.parse("X1.X2"), {1: r1, 2: r2})
    assert m.a == r1.a * r2.a + r1.b * r2.c
    assert m.b == r1.a * r2.b + r1.b * r2.d


def test_word_eval_empty_is_identity():
    model, r1, _ = generic_pair()
    m = word_eval(Word(()), {1: r1})
    assert m == Mat2.identity(r1.a.ring, r1.a.table)


def test_word_eval_shifted():
    # (rho_1 + nu_1) rho_2 has upper-left (a1 + nu1) a2 + b1 c2 and
    # upper-right (a1 + nu1) b2 + b1 d2.
    model, r1, r2 = generic_pair()
    nu1 = model.nu(1)
    w = Word((1, 2), shifted=(True, False))
    m = word_eval(w, {1: r1, 2: r2}, shifts={1: nu1})
    assert m.a == (r1.a + nu1) * r2.a + r1.b * r2.c
    assert m.b == (r1.a + nu1) * r2.b + r1.b * r2.d


def test_word_parse_round_trip():
    w = Word.parse("X1.X2.X1")
    assert w.letters == (1, 2, 1)
    assert str(w) == "X1.X2.X1"


def test_invariants_of():
    model, r1, r2 = generic_pair()
    inv = invariants_of(r1 * r2)
    assert inv.trace == r1.a * r2.a + r1.b * r2.c + r1.c * r2.b + r1.d * r2.d
    inv1 = invariants_of(r1)
    assert inv1.det == r1.a * r1.d - r1.b * r1.c
    ident = Mat2.identity(QQ, model.table)
    inv_id = invariants_of(ident)
    x = Polynomial.var(QQ, inv_id.charpoly_table, len(model.table))
    one = Polynomial.one(QQ, inv_id.charpoly_table)
    assert inv_id.charpoly == x * x - 2 * x + one


def test_v_map():
    model = GenericModel(2)
    nu = {1: model.nu(1), 2: model.nu(2)}
    assert v_map(Word.parse("X1"), nu) == -model.nu(1)
    assert v_map(Word.parse("X1.X2"), nu) == model.nu(1) * model.nu(2)
    with pytest.raises(StructuralError):
        v_map(Word(()), nu)


def test_trace_congruence_length_one_and_two():
    assert trace_congruence_check(Word.parse("X1"), 2)
    assert trace_congruence_check(Word.parse("X1.X2"), 2)


def test_trace_congruence_length_three_r3():
    assert trace_congruence_check(Word.parse("X1.X2.X3"), 3)


def test_trace_congruence_rejects_bad_word():
    with pytest.raises(StructuralError):
        trace_congruence_check(Word(()), 2)
    with pytest.raises(StructuralError):
        trace_congruence_check(Word.parse("X3"), 2)


def test_det_congruence_examples():
    assert det_congruence_check(2, [1])
    assert det_congruence_check(2, [])
    assert det_congruence_check(2, [1, 2], word_cap=2)


def random_mat(rng, model, max_terms=3):
    def poly():
        terms = {}
        n = len(model.table)
        for _ in range(rng.randrange(1, max_terms + 1)):
            m = [0] * n
            for _k in range(rng.randrange(0, 3)):
                m[rng.randrange(n)] += 1
            terms[tuple(m)] = rng.randint(-4, 4)
        return Polynomial(QQ, model.table, terms)

    return Mat2(poly(), poly(), poly(), poly())


def test_trace_and_det_identities_random():
    rng = random.Random(11)
    model = GenericModel(2)
    for _ in range(40):
        M, N = random_mat(rng, model), random_mat(rng, model)
        assert (M * N).trace() == (N * M).trace()
        assert (M * N).det() == M.det() * N.det()


def test_cayley_hamilton_random():
    rng = random.Random(13)
    model = GenericModel(2)
    zero = Mat2.zero(QQ, model.table)
    for _ in range(40):
        M = random_mat(rng, model)
        chm = M * M - M.trace() * M + Mat2.scalar(M.det())
        assert chm == zero


def test_mat2_record():
    from ribetkit.genmat import mat2_to_record

    model = GenericModel(1)
    rec = mat2_to_record(model.rho(1))
    assert rec == {"a": "1*a1", "b": "1*b1", "c": "1*c1", "d": "1*d1"}


def test_one_model_answers_like_fresh_models_in_any_order():
    # Word matrices are kept by (letters, hat) and trace defects by
    # letters; asking every r=3 word of length at most 3 forward, shifted
    # first, or backward, unshifted first, gives a fresh model's answers.
    words = [w for n in range(4) for w in product((1, 2, 3), repeat=n)]
    for order, hats in ((words, (True, False)), (words[::-1], (False, True))):
        model = GenericModel(3)
        for w in order:
            for hat in hats:
                assert model.word_matrix(w, hat) == GenericModel(3).word_matrix(w, hat), (w, hat)
            assert model.trace_defect(w) == GenericModel(3).trace_defect(w), w
