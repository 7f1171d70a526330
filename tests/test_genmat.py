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
    trace_congruence_check,
    trace_congruence_question,
)


def test_word_parse_round_trip():
    w = Word.parse("X1.X2.X1")
    assert w.letters == (1, 2, 1)
    assert str(w) == "X1.X2.X1"


def test_trace_congruence_length_one_and_two():
    assert trace_congruence_check(Word.parse("X1"), 2)
    assert trace_congruence_check(Word.parse("X1.X2"), 2)


def test_trace_congruence_length_three_r3():
    assert trace_congruence_check(Word.parse("X1.X2.X3"), 3)


@pytest.mark.parametrize(
    "text, r", [("X1", 2), ("X1.X2", 2), ("X2.X1.X2", 2), ("X1.X2.X3", 3), ("X3.X1.X3.X2", 3)]
)
def test_trace_congruence_fails_with_a_wrong_or_missing_pair(text, r, monkeypatch):
    import ribetkit.genmat as genmat

    w = Word.parse(text)
    target, pairs = genmat._trace_terms(w, r, None)
    assert len(pairs) == 2 ** len(w) - 1
    # The generators are the question's, in its order.
    assert tuple(g for _q, g in pairs) == trace_congruence_question(w, r)[1].generators
    for k in range(len(pairs)):
        q, g = pairs[k]
        for changed in (pairs[:k] + pairs[k + 1:], pairs[:k] + [(-q, g)] + pairs[k + 1:]):
            monkeypatch.setattr(genmat, "_trace_terms", lambda *args, c=changed: (target, c))
            assert trace_congruence_check(w, r) is False, (text, k)
    monkeypatch.setattr(genmat, "_trace_terms", lambda *args: (target, pairs))
    assert trace_congruence_check(w, r) is True


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
