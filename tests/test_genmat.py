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
from ribetkit.groebner import IdealSpec, in_ideal


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


def _det_question(r, indices, word_cap):
    """The det congruence as a membership question, built apart from the
    check: det(sum_k c_k rho_{i_k}) and the tr and det defects of every
    word of length at most the cap over the letters of ``indices``."""
    names = tuple(f"c_{k}" for k in range(1, len(indices) + 1))
    model = GenericModel(r, extra=names)
    elem = Mat2.zero(model.ring, model.table)
    for name, i in zip(names, indices):
        elem = elem + model.extra_var(name) * model.rho(i)
    cap = word_cap if word_cap is not None else max(1, len(indices))
    words = [w for n in range(1, cap + 1) for w in product(sorted(set(indices)), repeat=n)]
    return elem.det(), IdealSpec([f for w in words for f in (model.trace_defect(w), model.det_defect(w))])


@pytest.mark.parametrize(
    "r, indices, word_cap",
    [(3, (3,), None), (2, (1, 2), 2), (3, (2, 1), 2), (2, (1, 1), 1), (3, (1, 1, 2), None),
     (3, (1, 2, 3), None), (2, (), None), (2, (2, 2, 2), None), (3, (1, 2, 3, 1), 2)],
)
def test_det_congruence_agrees_with_in_ideal(r, indices, word_cap):
    import ribetkit.genmat as genmat

    # The cofactors' target is the question's, each generator they use is
    # one of the question's, and the engine, the test-only second
    # opinion, gives the same verdict.
    target, pairs = genmat._det_terms(r, indices, word_cap)
    question, spec = _det_question(r, indices, word_cap)
    assert target == question
    assert {g for _q, g in pairs} <= set(spec.generators)
    assert det_congruence_check(r, indices, word_cap) is in_ideal(question, spec) is True


@pytest.mark.parametrize("r, indices, word_cap", [(2, (1,), None), (2, (1, 2), 2), (2, (1, 1), 1), (3, (1, 1, 2), None)])
def test_det_congruence_fails_with_a_wrong_or_missing_pair(r, indices, word_cap, monkeypatch):
    import ribetkit.genmat as genmat

    target, pairs = genmat._det_terms(r, indices, word_cap)
    for k in range(len(pairs)):
        q, g = pairs[k]
        for changed in (pairs[:k] + pairs[k + 1:], pairs[:k] + [(-q, g)] + pairs[k + 1:]):
            monkeypatch.setattr(genmat, "_det_terms", lambda *args, c=changed: (target, c))
            assert det_congruence_check(r, indices, word_cap) is False, (indices, k)
    monkeypatch.setattr(genmat, "_det_terms", lambda *args: (target, pairs))
    assert det_congruence_check(r, indices, word_cap) is True


@pytest.mark.parametrize("r, indices, word_cap", [(2, (1, 2), 1), (3, (1, 1, 2), 1), (2, (1,), 0), (2, (2, 2), 0)])
def test_det_congruence_rejects_a_word_cap_below_its_cofactors(r, indices, word_cap):
    # The cofactors need T_i and D_i, and T_ij once two indices differ.
    with pytest.raises(StructuralError, match=f"word_cap {word_cap} is below"):
        det_congruence_check(r, indices, word_cap)


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
