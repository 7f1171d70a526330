"""Packed monomials against a tuple reference.

Every polynomial operation is checked on seeded random polynomials over
ZZ, QQ and GF(p), on tables of width 1, 20 and 71, against the same
algorithm written on dense exponent tuples with ``mono_mul`` and the
ring's own operations: the terms, their key order, the coefficient
types, and the text form.
"""

import random
from fractions import Fraction

import pytest

from ribetkit import groebner
from ribetkit.errors import StructuralError
from ribetkit.exactpoly import (
    DEGREE_CAP,
    GF,
    QQ,
    ZZ,
    Polynomial,
    VariableTable,
    from_text,
    mono_mul,
    mono_pairs,
    to_text,
)

P31 = 2**31 - 1
RINGS = [ZZ, QQ, GF(10007), GF(P31)]
WIDTHS = [1, 20, 71]
CASES = [(ring, n) for ring in RINGS for n in WIDTHS]


def _table(n):
    return VariableTable([f"v{i}" for i in range(n)])


def _coefficient(rng, ring):
    if ring.kind == "GF":
        return rng.choice([1, ring.p - 1, rng.randrange(ring.p)])
    if ring.kind == "QQ" and rng.random() < 0.4:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randint(-9, 9)


def _exponents(rng, n, max_exp=4):
    e = [0] * n
    for _ in range(rng.randint(0, min(n, 4))):
        e[rng.randrange(n)] += rng.randint(1, max_exp)
    return tuple(e)


def _poly(rng, ring, table, max_terms=6):
    terms = {_exponents(rng, len(table)): _coefficient(rng, ring) for _ in range(rng.randint(0, max_terms))}
    return Polynomial(ring, table, terms)


# -- the tuple reference: the kernels' algorithms on exponent tuples --------

def _add_into(out, terms, ring):
    for m, c in terms.items():
        s = ring.add(out.get(m, ring.zero()), c)
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _mul(a, b, ring):
    out = {}
    if len(a) > len(b):
        a, b = b, a
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _add_into(out, {mono_mul(m1, m2): ring.mul(c1, c2)}, ring)
    return out


def _pow(a, k, ring, n):
    result, base = {(0,) * n: ring.one()}, a
    while k:
        if k & 1:
            result = _mul(result, base, ring)
        base = _mul(base, base, ring) if k > 1 else base
        k >>= 1
    return result


def _substitute(f, mapping, width):
    ring = f.ring
    powers = {i: [{(0,) * width: ring.one()}, g.terms] for i, g in mapping.items()}

    def power(i, e):
        ps = powers[i]
        while len(ps) <= e:
            ps.append(_mul(ps[-1], ps[1], ring))
        return ps[e]

    out = {}
    for m, c in f.terms.items():
        fixed, term = [0] * width, None
        for i, e in enumerate(m):
            if not e:
                continue
            if i in mapping:
                term = power(i, e) if term is None else _mul(term, power(i, e), ring)
            else:
                fixed[i] = e
        base = {tuple(fixed): c}
        _add_into(out, base if term is None else _mul(base, term, ring), ring)
    return out


def _evaluate(f, point):
    total = Fraction(0)
    for m, c in f.terms.items():
        for i, e in enumerate(m):
            c = c * Fraction(point[i]) ** e
        total += c
    return f.ring.normalize(total)


def _degrevlex(m):
    """Degrevlex on exponent tuples: larger keys for larger monomials."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _text(terms, names):
    if not terms:
        return "0"
    parts = []
    for m, c in sorted(terms.items(), key=lambda t: _degrevlex(t[0]), reverse=True):
        parts.append("*".join([str(c)] + [names[i] if e == 1 else f"{names[i]}^{e}"
                                          for i, e in enumerate(m) if e]))
    return " + ".join(parts)


def _same(got: Polynomial, want: dict):
    """Equal terms, in the same key order, with the same coefficient types."""
    terms = got.terms
    assert terms == want
    assert list(terms) == list(want)
    assert [type(c) for c in terms.values()] == [type(c) for c in want.values()]


def _ids(case):
    ring, n = case
    return f"{ring!r}-w{n}"


@pytest.mark.parametrize("case", CASES, ids=[_ids(c) for c in CASES])
def test_arithmetic_matches_the_tuple_reference(case):
    ring, n = case
    rng = random.Random(f"arith:{ring!r}:{n}")
    table = _table(n)
    for _ in range(25):
        f, g = _poly(rng, ring, table), _poly(rng, ring, table)
        _same(f + g, _add_into(dict(f.terms), g.terms, ring))
        _same(f - g, _add_into(dict(f.terms), {m: ring.neg(c) for m, c in g.terms.items()}, ring))
        _same(f * g, _mul(f.terms, g.terms, ring))
        k = rng.randint(0, 3)
        _same(f ** k, _pow(f.terms, k, ring, n))
        assert (f * g).total_degree() == max((sum(m) for m in _mul(f.terms, g.terms, ring)),
                                             default=float("-inf"))


@pytest.mark.parametrize("case", CASES, ids=[_ids(c) for c in CASES])
def test_moves_and_evaluation_match_the_tuple_reference(case):
    ring, n = case
    rng = random.Random(f"moves:{ring!r}:{n}")
    table = _table(n)
    wide = table.extend(["s", "t"])
    for _ in range(20):
        f = _poly(rng, ring, table)
        lifted = f.lift(wide)
        _same(lifted, {m + (0, 0): c for m, c in f.terms.items()})
        for target in (QQ, GF(7)):
            if ring.kind == "GF" and target.kind == "QQ":
                continue
            want = {m: target.normalize(c) for m, c in f.terms.items()}
            _same(f.change_ring(target), {m: c for m, c in want.items() if c != 0})
        mapped = rng.sample(range(n), min(n, 3))
        mapping = {i: _poly(rng, ring, wide, max_terms=3) for i in mapped}
        _same(f.substitute(mapping), _substitute(f, mapping, n + 2))
        point = {i: rng.randint(-5, 5) for i in range(n)}
        assert f.evaluate(point) == _evaluate(f, point)
        assert f.variables() == {i for m in f.terms for i, e in enumerate(m) if e}
        for m in f.terms:
            packed = Polynomial(ring, table, {m: 1})
            assert mono_pairs(next(iter(packed._terms))) == tuple((i, e) for i, e in enumerate(m) if e)


@pytest.mark.parametrize("case", CASES, ids=[_ids(c) for c in CASES])
def test_text_order_and_identity_match_the_tuple_reference(case):
    ring, n = case
    rng = random.Random(f"text:{ring!r}:{n}")
    table = _table(n)
    for _ in range(25):
        f, g = _poly(rng, ring, table), _poly(rng, ring, table)
        want = sorted(f.terms.items(), key=lambda t: _degrevlex(t[0]), reverse=True)
        assert f.sorted_terms() == want
        assert to_text(f) == _text(f.terms, table.names)
        if f:
            assert f.leading_term() == want[0]
        assert from_text(to_text(f), ring, table) == f
        copy = Polynomial(ring, table, f.terms)
        assert copy == f and hash(copy) == hash(f)
        assert (f == g) == (f.terms == g.terms)


@pytest.mark.parametrize("ring", [QQ, GF(P31)], ids=repr)
@pytest.mark.parametrize("n", WIDTHS)
def test_engine_packing_round_trips(ring, n):
    # Both coefficient cores: a scalar, and a rank-2 module element, with
    # exponents in the hundreds so the engine's fields are wider than at
    # the default degree cap.
    rng = random.Random(f"engine:{ring!r}:{n}")
    table = _table(n)
    for _ in range(15):
        f, g = _poly(rng, ring, table), _poly(rng, ring, table)
        f = f * Polynomial(ring, table, {_exponents(rng, n, max_exp=150): 1})
        degree = max(f.total_degree(), g.total_degree(), 0)
        eng = groebner._Engine(ring, n, degree, components=2)
        terms, denom = eng.pack([f, g])
        if not terms:
            continue
        assert eng.to_vector(terms, table, count=2, divisor=denom) == [f, g]
        scalar = groebner._Engine(ring, n, degree)
        terms, denom = scalar.pack([f])
        if terms:
            assert scalar.to_vector(terms, table, divisor=denom) == [f]


def test_products_past_the_cap_raise():
    table = _table(2)
    x, y = (Polynomial.var(QQ, table, i) for i in range(2))
    top = x ** DEGREE_CAP
    assert top.total_degree() == DEGREE_CAP
    assert (x ** 16383 * y ** 16384).terms == {(16383, 16384): 1}
    for overflow in (lambda: top * x, lambda: top * y, lambda: (x * y) ** 16384,
                     lambda: x ** (DEGREE_CAP + 1), lambda: (y ** 300).substitute({1: x ** 200})):
        with pytest.raises(StructuralError, match="exceeds the monomial degree cap"):
            overflow()
    # An engine result past the cap cannot become a Polynomial.
    eng = groebner._Engine(QQ, 2, 2 * DEGREE_CAP)
    with pytest.raises(StructuralError, match="exceeds the monomial degree cap"):
        eng.to_vector({(DEGREE_CAP + 1) * eng.packer.units[0]: 1}, table)
