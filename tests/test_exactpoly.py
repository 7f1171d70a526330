"""Polynomial kernel: arithmetic, substitution, evaluation, grading,
the monomial order, and text round-trips."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ribetkit.errors import StructuralError
from ribetkit.exactpoly import (
    GF,
    QQ,
    ZZ,
    Polynomial,
    VariableTable,
    evaluate_all,
    from_text,
    to_text,
)

T2 = VariableTable(["x", "y"])
T3 = VariableTable(["x", "y", "z"])
TBC = VariableTable(["a1", "b1", "c1", "d1"], ["a", "b", "c", "d"])


def V(i, ring=QQ, table=T3):
    return Polynomial.var(ring, table, i)


def test_difference_of_squares():
    x, y = V(0), V(1)
    assert (x + y) * (x - y) == x * x - y * y


def test_reduced_charpoly_product():
    # (x - chi)(x - psi) expands to x^2 - (chi + psi) x + chi psi.
    t = VariableTable(["x", "chi", "psi"])
    x, chi, psi = (Polynomial.var(QQ, t, i) for i in range(3))
    lhs = (x - chi) * (x - psi)
    rhs = x * x - (chi + psi) * x + chi * psi
    assert lhs == rhs


def test_gf5_product_normalizes():
    x = Polynomial.var(GF(5), T3, 0)
    assert (2 * x) * (3 * x) == x * x


def test_structurally_equal_tables_are_compatible():
    clone = VariableTable(["x", "y", "z"])
    assert V(0) + Polynomial.var(QQ, clone, 0) == 2 * V(0)


def test_mismatched_tables_error():
    other = VariableTable(["u", "v", "w"])
    with pytest.raises(StructuralError):
        V(0) + Polynomial.var(QQ, other, 0)
    with pytest.raises(StructuralError):
        V(0) * Polynomial.var(GF(7), T3, 0)


def test_substitute_tau_style():
    # c -> c + (d - a) x - b x^2 applied to f = c.
    ext = TBC.extend(["x"], ["param"])
    a, b, c, d = (Polynomial.var(QQ, ext, i) for i in range(4))
    x = Polynomial.var(QQ, ext, 4)
    f = Polynomial.var(QQ, TBC, 2)
    image = c + (d - a) * x - b * x * x
    assert f.substitute({2: image}) == image


def test_substitute_identity_and_zero_product():
    x, y = V(0), V(1)
    f = x * x * y + 3 * y
    assert f.substitute({0: x, 1: y}) == f
    # a -> -nu, d -> 0 kills a*d.
    t = VariableTable(["a", "d", "nu"])
    a, d, nu = (Polynomial.var(QQ, t, i) for i in range(3))
    assert (a * d).substitute({0: -nu, 1: Polynomial.zero(QQ, t)}).is_zero()


def test_evaluate_examples():
    x, y = V(0), V(1)
    assert (x * x + y).evaluate({0: 2, 1: 3}) == Fraction(7)
    t = VariableTable(["a", "b", "c", "d"])
    a, b, c, d = (Polynomial.var(QQ, t, i) for i in range(4))
    assert (a * d - b * c).evaluate({0: 1, 1: 0, 2: 0, 3: 1}) == 1
    assert ((x + y) ** 2).evaluate({0: 1, 1: 2}) == 9
    with pytest.raises(StructuralError):
        (x + y).evaluate({0: 1})
    # Over GF(p) point values are reduced mod p: -1 -> 6 and 9 -> 2 in GF(7).
    gx, gy = V(0, GF(7)), V(1, GF(7))
    assert (gx * gy + 3).evaluate({0: -1, 1: 9}) == 1
    assert (gx ** 3).evaluate({0: 7 * 5 + 3}) == 27 % 7
    assert gx.evaluate({0: Fraction(9)}) == 2
    # Entries for variables the polynomial does not use are never read.
    assert (x + y).evaluate({0: 1, 1: 2, 2: None}) == 3
    assert (gx + 1).evaluate({0: 1, 1: None, 2: None}) == 2
    # A missing variable is named in the error, however many terms read it.
    with pytest.raises(StructuralError, match=r"missing assignment for \['y', 'z'\]"):
        (x * y + y * V(2) + x).evaluate({0: 1})


class _ReadLog(dict):
    """A point that records which entries evaluation reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(7)], ids=repr)
def test_repeated_evaluation_keeps_the_values(ring):
    x, y, z = (V(i, ring) for i in range(3))
    f = x**3 * y - 2 * y * z**2 + 5 * z + 4
    if ring.kind == "QQ":
        f = f * Fraction(1, 3)
    points = [{0: 2, 1: -1, 2: 3}, {0: 9, 1: 4, 2: -5}, {0: 0, 1: 6, 2: 1}]
    if ring.kind == "QQ":
        points[1] = {0: Fraction(1, 2), 1: 4, 2: Fraction(-5, 3)}
    for k, point in enumerate(points):
        fresh = Polynomial(ring, T3, f.terms)
        assert f.evaluate(point) == fresh.evaluate(point)
        assert bool(f._sparse) == (k > 0)


def test_a_polynomial_evaluated_once_keeps_no_sparse_form():
    f = V(0, GF(7)) * V(1, GF(7)) + 1
    assert f._sparse is None
    f.evaluate({0: 1, 1: 2})
    assert not f._sparse
    f.evaluate({0: 1, 1: 2})
    assert f._sparse == ((1, ((0, 1), (1, 1))), (1, ()))


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=repr)
def test_kept_sparse_form_reads_and_errors_as_before(ring):
    x, y, z = (V(i, ring) for i in range(3))
    f = x * y + y * z + x
    for _ in range(2):
        point = _ReadLog({0: 1, 1: 2, 2: 1, 3: None})
        assert f.evaluate(point) == 5
        assert point.read == {0, 1, 2}
    assert f._sparse
    g = x + 1
    for _ in range(3):
        point = _ReadLog({0: 4, 1: None, 2: None})
        assert g.evaluate(point) == 5
        assert point.read == {0}
    with pytest.raises(StructuralError, match=r"missing assignment for \['y', 'z'\]"):
        f.evaluate({0: 1})


def _naive_value(f, point):
    """Reference: every factor of every dense term, exponent 0 included,
    raised by pow, over the rationals (mod p over GF(p))."""
    p = f.ring.p
    total = 0
    for m, c in f.terms.items():
        for i, e in enumerate(m):
            c = c * pow(point[i] % p, e, p) % p if p else c * pow(Fraction(point[i]), e)
        total += c
    return total % p if p else f.ring.normalize(total)


@pytest.mark.parametrize("ring", [QQ, GF(7), GF(1000003)], ids=repr)
def test_evaluation_kernel_matches_pow_on_every_factor(ring):
    # Random polynomials with every exponent in 0..3, evaluated one at a
    # time and all in one pass, at points holding negative, large and (over
    # QQ) fractional values.
    rng = random.Random(f"evaluate_all:{ring!r}")
    for _ in range(40):
        polys = []
        for _ in range(rng.randint(1, 5)):
            terms = {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-9, 9)
                     for _ in range(rng.randint(0, 6))}
            polys.append(Polynomial(ring, T3, {m: c for m, c in terms.items() if c}))
        values = [rng.randint(-10**7, 10**7), rng.randint(-3, 3), rng.randint(0, 9)]
        if ring.kind == "QQ":
            values[2] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        point = dict(enumerate(values))
        want = [_naive_value(f, point) for f in polys]
        assert evaluate_all(polys, point) == want
        assert [f.evaluate(point) for f in polys] == want
    assert evaluate_all([], {}) == []


def test_evaluation_kernel_errors():
    # A missing variable is named as evaluate names it, from the first
    # polynomial that reads it; the polynomials must share one ring.
    x, y, z = (V(i) for i in range(3))
    with pytest.raises(StructuralError, match=r"^missing assignment for \['y', 'z'\]$"):
        evaluate_all([x + 1, x * y + z], {0: 1})
    with pytest.raises(StructuralError, match="one ring"):
        evaluate_all([x, V(0, GF(7))], {0: 1})


def test_equality_and_hash_ignore_the_sparse_form():
    f, g = V(0) * V(2) + 3, V(0) * V(2) + 3
    before = hash(f)
    for _ in range(2):
        f.evaluate({0: 1, 2: 5})
    assert f._sparse and g._sparse is None
    assert f == g and hash(f) == hash(g) == before
    assert {f: 1}[g] == 1


def test_torus_weight_examples():
    t = VariableTable(["a1", "b1", "b2", "c2", "x1"], ["a", "b", "b", "c", "x_sigma"])
    a1, b1, b2, c2, x1 = (Polynomial.var(QQ, t, i) for i in range(5))
    assert (b1 * c2).torus_weight() == 0
    # b (x - a)-style combination is isobaric of weight 1.
    assert (b1 * (x1 - a1) - b2 * (x1 - a1)).torus_weight() == 1
    assert (a1 + b1).torus_weight() is None
    assert Polynomial.zero(QQ, t).torus_weight() == 0


def test_degree_of_zero_is_minus_infinity():
    assert Polynomial.zero(QQ, T3).total_degree() == float("-inf")
    assert (V(0) * V(1)).total_degree() == 2


def test_canonical_form_cancellation():
    x = V(0)
    assert (x - x).terms == {}
    assert (x - x).is_zero()


def test_orders():
    # Degrevlex: the total degree first, then the smaller exponent in the
    # last variable where two monomials differ; 1 is minimal.
    x, y, z = V(0), V(1), V(2)
    assert (x + y * y * z).leading_term()[0] == (0, 2, 1)
    assert (x * z + y * y).leading_term()[0] == (0, 2, 0)
    assert (x * z + y * z).leading_term()[0] == (1, 0, 1)
    assert [m for m, _ in (z + 1).sorted_terms()] == [(0, 0, 1), (0, 0, 0)]


def test_text_round_trip_bit_exact():
    x, y, z = V(0), V(1), V(2)
    f = Fraction(3, 4) * x * x * y - z + 7
    text = to_text(f)
    assert from_text(text, QQ, T3) == f
    assert from_text("0", QQ, T3).is_zero()
    g = Polynomial.var(GF(11), T3, 0) * 9 + 5
    assert from_text(to_text(g), GF(11), T3) == g


def test_integral_qq_coefficients_are_ints():
    m = (1, 0, 0)
    assert type(Polynomial(QQ, T3, {m: Fraction(4, 2)}).terms[m]) is int
    assert type(Polynomial(QQ, T3, {m: Fraction(1, 2)}).terms[m]) is Fraction
    half = V(0) * Fraction(1, 2)
    total = half + half
    assert total == V(0) and type(total.terms[m]) is int
    assert type((half * 2).terms[m]) is int
    assert [type(c) for c in (QQ.zero(), QQ.one(), QQ.inv(Fraction(1, 3)))] == [int] * 3


def test_text_round_trip_keeps_the_integral_form():
    f = Fraction(3, 4) * V(0) * V(0) * V(1) - V(2) + 7
    text = to_text(f)
    assert text == "3/4*x^2*y + -1*z + 7"
    back = from_text(text, QQ, T3)
    assert back == f and to_text(back) == text
    assert [type(c) for _, c in back.sorted_terms()] == [Fraction, int, int]


def test_int_and_fraction_coefficients_make_one_polynomial():
    m = (0, 2, 1)
    a = Polynomial(QQ, T3, {m: 2})
    b = Polynomial(QQ, T3, {m: Fraction(2)})
    assert a == b and hash(a) == hash(b) and to_text(a) == to_text(b)
    # A Fraction(2) held as is (no normalization) still prints, compares
    # and hashes as the int.
    (packed,) = a._terms
    raw = Polynomial._trusted(QQ, T3, {packed: Fraction(2)})
    assert raw == a and hash(raw) == hash(a) and to_text(raw) == to_text(a)


@pytest.mark.parametrize("exps", [(-1, 0), (1.5, 0), (Fraction(1, 2), 0), ("1", 0), (32768, 0), (20000, 20000)])
def test_invalid_exponents_are_rejected(exps):
    # A negative field would borrow from its neighbour, and a total degree
    # past the cap would overflow the degree field.
    with pytest.raises(StructuralError, match="exponents must be integers"):
        Polynomial(QQ, T2, {exps: 1})


@pytest.mark.parametrize("text", ["1*x^-1", "2*x^1.5", "1*x^", "1*x^y", "1*x^-1*x^2", "1*x^32768",
                                  "1*x^20000*y^20000"])
def test_from_text_rejects_invalid_exponents(text):
    with pytest.raises(StructuralError, match="exponent"):
        from_text(text, QQ, T2)


@pytest.mark.parametrize("text, ring", [("x", QQ), ("2/0*x", QQ), ("1/2*x", ZZ), ("1/2*x", GF(7)),
                                        ("1*x + y*x", QQ)])
def test_from_text_rejects_invalid_coefficients(text, ring):
    bad_term = text.split(" + ")[-1]
    with pytest.raises(StructuralError, match=re.escape(f"of term {bad_term!r}")):
        from_text(text, ring, T2)


def test_exponents_up_to_the_cap_are_kept():
    f = from_text("1*x^32767 + 1*x^16383*y^16384", QQ, T2)
    assert f.terms == {(32767, 0): 1, (16383, 16384): 1}
    assert f.total_degree() == 32767 and from_text(to_text(f), QQ, T2) == f


def test_zz_rejects_fractions():
    with pytest.raises(StructuralError):
        Polynomial.const(ZZ, T3, Fraction(1, 2))


def test_gf_fractions_invert_the_denominator():
    gf7 = GF(7)
    assert gf7.normalize(Fraction(1, 2)) == 4
    assert V(0, gf7) * Fraction(3, 2) == V(0, gf7) * 5
    assert Polynomial.const(gf7, T3, Fraction(-1, 3)) == Polynomial.const(gf7, T3, 2)
    assert (V(0) * Fraction(3, 2)).change_ring(gf7) == V(0, gf7) * 5
    with pytest.raises(StructuralError, match="not invertible"):
        gf7.normalize(Fraction(1, 7))


def test_gf_requires_prime():
    with pytest.raises(StructuralError):
        GF(10)
    with pytest.raises(StructuralError):
        GF(2**31 + 11)


# -- hypothesis property tests ------------------------------------------------

def polys(ring=QQ, table=T3, max_terms=4, max_exp=3):
    monos = st.tuples(*([st.integers(0, max_exp)] * len(table)))
    if ring.kind == "GF":
        coeffs = st.integers(0, ring.p - 1)
    else:
        coeffs = st.integers(-9, 9)
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(ring, table, d)
    )


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms_qq(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polys(GF(7)), polys(GF(7)), polys(GF(7)))
def test_ring_axioms_gf7(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)))
def test_evaluation_is_ring_hom(f, g, pt):
    point = dict(enumerate(pt))
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


point_values = st.one_of(
    st.integers(-10**12, 10**12),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@settings(max_examples=60, deadline=None)
@given(polys(max_exp=4), st.tuples(point_values, point_values, point_values),
       st.sampled_from([7, 10007, 2**31 - 1]))
def test_gf_evaluation_is_the_rational_value_mod_p(f, pt, p):
    # Non-reduced, negative and Fraction point values all map into GF(p)
    # the way the rational value does.
    gf = GF(p)
    assume(all(Fraction(v).denominator % p for v in pt))
    point = dict(enumerate(pt))
    assert f.change_ring(gf).evaluate(point) == gf.normalize(f.evaluate(point))
    y = Polynomial.var(gf, T3, 1)
    if f.change_ring(gf) * y:
        with pytest.raises(StructuralError, match=r"missing assignment for \['y'\]"):
            (f.change_ring(gf) * y).evaluate({0: pt[0], 2: pt[2]})


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_substitution_is_ring_hom(f, g):
    x, y = V(0), V(1)
    sub = {0: x + y, 2: x * y - 1}
    assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)


@settings(max_examples=60, deadline=None)
@given(polys(table=TBC), polys(table=TBC))
def test_torus_weight_additive_on_isobaric(f, g):
    wf, wg = f.torus_weight(), g.torus_weight()
    if wf is None or wg is None or f.is_zero() or g.is_zero():
        return
    assert (f * g).torus_weight() == wf + wg


# The sum and product loops as they were written before the kernels
# inlined the ring operations: one ``ring.add``/``ring.mul`` dispatch per
# term and a zip-based monomial product.  Kept as the reference.

def _reference_add(f, g):
    ring, out = f.ring, dict(f.terms)
    for m, c in g.terms.items():
        s = ring.add(out.get(m, ring.zero()), c)
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _reference_mul(f, g):
    ring, out = f.ring, {}
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = ring.add(out.get(m, ring.zero()), ring.mul(c1, c2))
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _operand_pairs(ring, coeffs):
    # Two variables of degree at most 2: terms collide and cancel often.
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    poly = st.dictionaries(monos, coeffs, max_size=6).map(lambda terms: Polynomial(ring, T2, terms))
    return st.tuples(poly, poly)


_P31 = 2**31 - 1
_KERNEL_OPERANDS = st.one_of(
    _operand_pairs(ZZ, st.integers(-3, 3)),
    _operand_pairs(QQ, st.fractions(-2, 2, max_denominator=3)),
    _operand_pairs(GF(2), st.integers(0, 1)),
    _operand_pairs(GF(_P31), st.sampled_from([1, 2, _P31 - 1, _P31 - 2]) | st.integers(0, _P31 - 1)),
)


@settings(max_examples=200, deadline=None)
@given(_KERNEL_OPERANDS)
def test_sum_and_product_kernels_match_the_ring_loop(operands):
    f, g = operands
    for got, want in ((f + g, _reference_add(f, g)), (f * g, _reference_mul(f, g))):
        assert got.terms == want
        assert list(got.terms) == list(want)
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.values()]


@settings(max_examples=60, deadline=None)
@given(polys())
def test_self_subtraction_is_canonical_zero(f):
    assert (f - f).terms == {}


@settings(max_examples=60, deadline=None)
@given(polys())
def test_text_round_trip_property(f):
    assert from_text(to_text(f), QQ, T3) == f
