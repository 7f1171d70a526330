"""Groebner engine: bases, normal forms, quotients, syzygies, budgets."""

import pytest
from fractions import Fraction
from functools import cache
from itertools import product
from hypothesis import assume, example, given, reject, settings, strategies as st

import ribetkit.groebner as groebner
import ribetkit.reducers as reducers
from ribetkit.errors import BudgetExceeded, StructuralError
from ribetkit.exactpoly import (
    GF,
    QQ,
    ZZ,
    Polynomial,
    VariableTable,
    _pack,
    mono_deg,
    mono_divides,
    mono_mul,
)
from ribetkit.groebner import (
    Budget,
    FreeModuleMatrix,
    GroebnerBasis,
    IdealSpec,
    buchberger,
    ideal_quotient,
    in_ideal,
    module_contains,
    module_gb,
    reduce_by,
    syzygies,
)
from ribetkit.brcomplex import br_complexes, br_f, generic_2xn, symbolic_h1
from ribetkit.genmat import GenericModel, Word, trace_congruence_check, trace_congruence_question
from ribetkit.linalg import kernel_basis
from ribetkit.ribet import (
    build_ideals,
    check_e_tau_invariance,
    check_example_r2,
    shape_full_mixed,
    shape_one_place_type4,
    shape_r2_two_type2,
    shape_sigma_type3,
)

TXY = VariableTable(["x", "y"])
TXYZ = VariableTable(["x", "y", "z"])
TXYZW = VariableTable(["x", "y", "z", "w"])
_X, _Y, _Z = (Polynomial.var(QQ, TXYZ, i) for i in range(3))
_X7, _Y7, _Z7 = (Polynomial.var(GF(7), TXYZ, i) for i in range(3))


def V(i, ring=QQ, table=TXY):
    return Polynomial.var(ring, table, i)


def _degrevlex(m):
    """Degrevlex on exponent tuples: larger keys for larger monomials."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _packed(packer, m):
    """The engine int of the exponent tuple m, through exactpoly's key."""
    return packer.from_key(_pack(m))


def test_buchberger_example():
    x, y = V(0), V(1)
    gb = buchberger(IdealSpec([x * x - 1, x * y - 1]))
    assert set(gb.basis) == {x - y, y * y - 1}
    assert gb.verify()


def test_single_generator_becomes_monic():
    x, y = V(0), V(1)
    gb = buchberger(IdealSpec([3 * x * y + 6 * y]))
    assert gb.basis == (x * y + 2 * y,)


def test_already_a_basis():
    x, y = V(0), V(1)
    gb = buchberger(IdealSpec([x, y]))
    assert set(gb.basis) == {x, y}


def test_normal_form_examples():
    x, y = V(0), V(1)
    gb = buchberger(IdealSpec([x * x - 1, x * y - 1]))
    assert gb.normal_form(x * x) == Polynomial.one(QQ, TXY)
    assert gb.normal_form(Polynomial.zero(QQ, TXY)).is_zero()
    assert gb.normal_form((x - y) * (x + 5 * y * y)).is_zero()


def test_normal_form_idempotent():
    x, y = V(0), V(1)
    gb = buchberger(IdealSpec([x * x + y, y * y - 2]))
    f = (x + y) ** 3 - 5 * x * y
    nf = gb.normal_form(f)
    assert gb.normal_form(nf) == nf


def test_zz_generators_lift_to_qq():
    x = Polynomial.var(ZZ, TXY, 0)
    gb = buchberger(IdealSpec([2 * x]))
    assert gb.basis[0].ring == QQ
    assert gb.basis[0] == V(0)


def _recorded_counters(monkeypatch):
    """A list that collects every step counter handed out from here on."""
    counters = []
    fresh = Budget.fresh_counter

    def recording(budget):
        counters.append(fresh(budget))
        return counters[-1]

    monkeypatch.setattr(Budget, "fresh_counter", recording)
    return counters


def test_a_basis_and_an_inhomogeneous_question_each_take_one_counter(monkeypatch):
    # The basis, the check that every generator reduces to zero against
    # it and every target's reduction share one step counter: one budget
    # per buchberger run and per membership question.  The tau-invariance
    # question of p1-type4 is inhomogeneous, so it is decided on the
    # reduced basis, not a truncated one.
    counters = _recorded_counters(monkeypatch)
    buchberger(build_ideals(shape_r2_two_type2()).J)
    assert len(counters) == 1
    counters.clear()
    assert check_e_tau_invariance(shape_one_place_type4())
    assert len(counters) == 1


def test_verify_and_the_module_path_take_one_counter_per_call(monkeypatch):
    # verify() runs check mode and reduces the source generators to zero
    # on one counter.  symbolic_h1 spends one on syzygies and one on the
    # membership batch that tests them against the columns of d_2.  A
    # call answered before any engine work takes none.
    gb = buchberger(build_ideals(shape_r2_two_type2()).J)
    counters = _recorded_counters(monkeypatch)
    assert gb.verify()
    assert [c.steps for c in counters] == [6_663]
    counters.clear()
    assert symbolic_h1(br_f(generic_2xn(4))).is_exact_at_1
    assert len(counters) == 2 and sum(c.steps for c in counters) == 45
    counters.clear()
    x, zero = V(0), Polynomial.zero(QQ, TXY)
    assert in_ideal(zero, IdealSpec([x])) and module_contains([zero], [[x]])
    assert counters == []


def test_a_basis_short_of_an_element_fails_its_certificate(monkeypatch):
    # A signature loop that loses its first record: the reduced basis no
    # longer reduces every generator to zero, so an inhomogeneous question
    # ends in an internal error, never in a verdict.
    signature_loop = groebner._signature_basis

    def short(eng, inputs, counter, degree_bound=None):
        return signature_loop(eng, inputs, counter, degree_bound)[1:]

    monkeypatch.setattr(groebner, "_signature_basis", short)
    with pytest.raises(StructuralError, match="internal error"):
        check_e_tau_invariance(shape_one_place_type4())
    x, y = V(0), V(1)
    with pytest.raises(StructuralError, match="internal error"):
        in_ideal(y - 1, IdealSpec([x * x - 1, x * y - 1]))


def test_reduce_by_returns_the_exact_remainder():
    x, y = V(0), V(1)
    assert reduce_by(7 * x * x + 3 * y, [2 * x]) == 3 * y
    f = Fraction(1, 2) * x * y + Fraction(1, 5) * y * y
    assert reduce_by(f, [3 * x - 1]) == Fraction(1, 6) * y + Fraction(1, 5) * y * y


def test_normal_form_of_fractions_is_exact():
    # x^2 - y/3 alone is a Groebner basis; x^3/2 = (x/2) x^2 = xy/6 mod it.
    x, y = V(0), V(1)
    gb = buchberger(IdealSpec([x * x - Fraction(1, 3) * y]))
    f = Fraction(1, 2) * x**3 + Fraction(1, 5) * y
    assert gb.normal_form(f) == Fraction(1, 6) * x * y + Fraction(1, 5) * y


def test_in_ideal_quick_path_and_gb_path():
    x, y = V(0), V(1)
    spec = IdealSpec([x * x - 1, x * y - 1])
    # The ideal is not homogeneous, so all three questions are decided on
    # its reduced Groebner basis: a combination of the generators...
    assert in_ideal((x * x - 1) * y + x * (x * y - 1), spec)
    # ...a member that plain division by the generators does not certify...
    assert not reduce_by(x - y, spec.generators).is_zero()
    assert in_ideal(x - y, spec)
    assert not in_ideal(x, spec)


def test_budget_exceeded_reports_timeout():
    t = VariableTable([f"v{i}" for i in range(6)])
    gens = []
    for i in range(5):
        a = Polynomial.var(QQ, t, i)
        b = Polynomial.var(QQ, t, (i + 1) % 6)
        c = Polynomial.var(QQ, t, (i + 2) % 6)
        gens.append(a * a * b + b * c * c + a + 3 * c)
    with pytest.raises(BudgetExceeded):
        buchberger(IdealSpec(gens), Budget(max_steps=10))


def test_degree_cap_reports_timeout():
    x, y = V(0), V(1)
    with pytest.raises(BudgetExceeded):
        buchberger(IdealSpec([x ** 5 - y, y ** 5 - x]), Budget(max_degree=4))


@pytest.mark.parametrize("cap", [4, 40, 300])
def test_field_width_follows_the_degree_cap(cap):
    # The sum of two monomials of the largest degree the fields hold must
    # not carry into a neighbouring field.
    packer = groebner._Packer(3, cap)
    assert packer.room >= cap
    a = (packer.room, 0, 0)
    product = 2 * _packed(packer, a)
    assert packer.unpack(product) == mono_mul(a, a)
    assert product & packer.deg_mask == 2 * packer.room
    assert (packer.bits > 8) == (cap > 255)


def test_large_degree_cap_reduces_exactly():
    x, y = V(0), V(1)
    big = Budget(max_degree=300)
    gb = buchberger(IdealSpec([x**150 - y, y**2 - 2]), big)
    assert set(gb.basis) == {x**150 - y, y**2 - 2}
    # Exponents above 255 need fields wider than 8 bits.
    assert gb.normal_form(x**300 + x**151 * y, big) == 2 * x + 2
    with pytest.raises(BudgetExceeded):
        gb.normal_form(x**300)


def test_monomial_reducer_forms_no_product():
    # x^50 is above the default degree cap, but dividing by the monomial x
    # forms no product for the cap to check.
    x, y = V(0), V(1)
    assert reduce_by(x**50, [x]).is_zero()
    assert buchberger(IdealSpec([x])).normal_form(x**50 * y).is_zero()


@pytest.fixture
def packer_rooms(monkeypatch):
    """The room of every packer the engine builds, in order."""
    rooms = []

    class Recording(groebner._Packer):
        def __init__(self, *args):
            super().__init__(*args)
            rooms.append(self.room)

    monkeypatch.setattr(groebner, "_Packer", Recording)
    return rooms


@pytest.fixture
def spoly_overflows(monkeypatch):
    """The room of every packer whose fields an S-polynomial tail overflowed."""
    rooms = []
    spoly = groebner._Engine.spoly

    def recording(self, *args):
        try:
            return spoly(self, *args)
        except groebner._FieldOverflow as exc:
            rooms.append(exc.room)
            raise

    monkeypatch.setattr(groebner._Engine, "spoly", recording)
    return rooms


@pytest.fixture
def signature_overflows(monkeypatch):
    """The room of every packer whose fields a signature loop overflowed."""
    rooms = []
    signature_loop = groebner._signature_basis

    def recording(*args):
        try:
            return signature_loop(*args)
        except groebner._FieldOverflow as exc:
            rooms.append(exc.room)
            raise

    monkeypatch.setattr(groebner, "_signature_basis", recording)
    return rooms


@pytest.mark.parametrize("ring", [QQ, GF(101)], ids=repr)
def test_a_signature_above_the_room_widens_the_fields(
    ring, packer_rooms, spoly_overflows, signature_overflows, monkeypatch
):
    # A signature t e_i has the degree of t, which no cap bounds: here one
    # passes the room of the fields sized for max_degree=7, outside any
    # S-polynomial, and the engine must restart with wider fields rather
    # than carry.  The steps the discarded attempt spent stay on the run's
    # one counter.
    x, y, z = (Polynomial.var(ring, TXYZ, i) for i in range(3))
    spec = IdealSpec([y**2 * z + 4 * x * z + 5, 5 * x**2 * z, 6 * y**3])
    counters = _recorded_counters(monkeypatch)
    gb = buchberger(spec, Budget(max_degree=7))
    assert [c.steps for c in counters] == [109]
    assert packer_rooms[:2] == [7, 15]
    assert (signature_overflows, spoly_overflows) == ([7], [])
    assert gb.basis == buchberger(spec).basis == (Polynomial.one(ring, TXYZ),)


@pytest.mark.parametrize("ring", [QQ, GF(101)], ids=repr)
def test_a_module_tail_above_the_lead_widens_the_fields(ring, packer_rooms, spoly_overflows):
    # Under position over term a module element's tail can outweigh its
    # lead in total degree: the S-pair of (5x, 2xz) and (2xyz, 0) has lcm
    # xyz e0 of degree 3, within the cap, but multiplies the tail xz e1 by
    # yz, to degree 4, past the room of the fields sized for max_degree=3.
    x, y, z = (Polynomial.var(ring, TXYZ, i) for i in range(3))
    zero = Polynomial.zero(ring, TXYZ)
    columns = [[5 * x, 2 * x * z], [2 * x * y * z, zero], [4 * z, zero]]
    gb = module_gb(columns, budget=Budget(max_degree=3))
    assert packer_rooms[:2] == [3, 7]
    assert spoly_overflows == [3]
    assert gb == module_gb(columns) and len(gb) == 4


def test_gf_remainders_drop_terms_that_cancel_mod_p():
    # Over GF(p) coefficients are reduced when their term is popped; what
    # the loop returns, head-only (with a signature) or full, holds no
    # multiple of p.
    p = 101
    eng = groebner._Engine(GF(p), 2, 40)
    x2, xy, y2 = (_packed(eng.packer, m) for m in ((2, 0), (1, 1), (0, 2)))
    reducers = [eng.record({y2: 1})]
    terms = {x2: 3, xy: p, y2: 2 * p + 5}
    counter = Budget().fresh_counter()
    assert eng.reduce(terms, reducers, counter, signature=0) == ({x2: 3, y2: 5}, 1)
    assert eng.reduce(terms, reducers, counter) == ({x2: 3}, 1)
    assert counter.steps == 1


def test_qq_rescaling_scales_the_remainder_already_taken():
    # Over QQ a reducer whose leading coefficient does not divide the
    # head's scales everything: the term y^3 already in the remainder as
    # well as the terms still to reduce.  f = y^3 + xy by g = 2x + 3y:
    # 2f = y * g + (2y^3 - 3y^2), the remainder with scale 2.  No suite
    # or benchmark workload reaches this path.
    x, y = V(0), V(1)
    f, g = y**3 + x * y, 2 * x + 3 * y
    eng = groebner._Engine(QQ, 2, 40)
    terms, denom = eng.pack([f])
    assert denom == 1
    counter = Budget().fresh_counter()
    y3, y2 = (_packed(eng.packer, m) for m in ((0, 3), (0, 2)))
    assert eng.reduce(terms, eng.records([[g]]), counter) == ({y3: 2, y2: -3}, 2)
    assert counter.steps == 1
    assert reduce_by(f, [g]) == y**3 - Fraction(3, 2) * y**2


def test_pair_loop_reducers_stay_in_tail_length_order_ties_first_come():
    # The pair loops grow their reducer lists by bisect.insort keyed on the
    # tail length: the list is the stable sort of the records by tail
    # length, so of two records with one tail length the earlier is tried
    # first, whatever the lengths of the records inserted in between.
    import random
    from bisect import insort

    rng = random.Random("tail-length-order")
    eng = groebner._Engine(QQ, 3, 40)
    units = eng.packer.units
    records, reducers = [], []
    for _ in range(200):
        terms = {sum(rng.randrange(5) * u for u in units): rng.randint(1, 9) for _ in range(rng.randint(1, 5))}
        rec = eng.record(terms)
        records.append(rec)
        insort(reducers, rec, key=groebner._tail_length)
    expected = sorted(records, key=groebner._tail_length)
    assert len({groebner._tail_length(r) for r in records}) > 2
    assert all(a is b for a, b in zip(reducers, expected, strict=True))


_exps = st.tuples(*[st.integers(0, 20)] * 5)


@settings(max_examples=200, deadline=None)
@given(_exps, _exps, _exps)
def test_packed_monomials_agree_with_tuples(a, b, c):
    packer = groebner._Packer(5, 200)
    g = packer.guard
    pa, pb = _packed(packer, a), _packed(packer, b)
    assert (pa < pb) == (_degrevlex(a) < _degrevlex(b))
    assert (pa == pb) == (a == b)
    assert packer.unpack(pa + pb) == mono_mul(a, b)
    assert pa & packer.deg_mask == mono_deg(a)
    for divisor, m in ((a, b), (a, mono_mul(a, c))):
        pm = _packed(packer, m)
        assert (((pm | g) - _packed(packer, divisor)) & g == g) == mono_divides(divisor, m)


@settings(max_examples=200, deadline=None)
@given(_exps, _exps, st.integers(0, 2), st.integers(0, 2))
def test_packed_module_monomials_are_position_over_term(a, b, ca, cb):
    # Component fields above the order rows: component 0 is largest,
    # divisibility forces equal components, and neither field adds to the
    # degree.
    packer = groebner._Packer(5, 200, 3)
    g = packer.guard
    pa, pb = _packed(packer, a) + packer.components[ca], _packed(packer, b) + packer.components[cb]
    assert (pa < pb) == ((-ca, _degrevlex(a)) < (-cb, _degrevlex(b)))
    assert (packer.component(pa), packer.unpack(pa)) == (ca, a)
    assert pa & packer.deg_mask == mono_deg(a)
    pm = _packed(packer, mono_mul(a, b)) + packer.components[cb]
    assert (((pm | g) - pa) & g == g) == (ca == cb)


@settings(max_examples=200, deadline=None)
@given(_exps, _exps, st.sampled_from([0, 3]), st.integers(0, 2))
def test_sparse_lcm_is_the_packed_lcm(e, f, rank, c):
    # The pair lcm, from the (variable, exponent) pairs of one lead and
    # the packed other lead, is bit for bit the packed exponent-wise max
    # in that lead's component.  A scalar is component 0 of rank 0.
    packer = groebner._Packer(5, 200, rank)
    component = packer.components[c % len(packer.components)]
    support = [(v, x) for v, x in enumerate(e) if x]
    assert packer.lcm(_packed(packer, f) + component, f, support) == _packed(packer, tuple(map(max, e, f))) + component


def test_qq_and_gf_cores_agree_on_a_corpus_ideal():
    # The first six relations of J(sigma-v0-type3): a 34-element basis,
    # about 3000 reduction steps, and verify() well under a second.
    p = 2**31 - 1
    shape = shape_sigma_type3()
    qq = buchberger(IdealSpec(build_ideals(shape).J.generators[:6]))
    gf = buchberger(IdealSpec(build_ideals(shape, GF(p)).J.generators[:6]))
    assert len(qq.basis) == 34
    assert [g.change_ring(GF(p)) for g in qq.basis] == list(gf.basis)
    assert qq.verify() and gf.verify()


class _CountingBudget(Budget):
    """The default budget, keeping every step counter it hands out."""

    def __init__(self):
        super().__init__()
        self.counters = []

    def fresh_counter(self):
        counter = super().fresh_counter()
        self.counters.append(counter)
        return counter


@cache
def _j_sigma_v0_type3_runs():
    """The reduced bases of J(sigma-v0-type3) over QQ and GF(2^31 - 1),
    each with the step counters its buchberger run took."""
    runs = []
    for ring in (QQ, GF(2**31 - 1)):
        budget = _CountingBudget()
        runs.append((buchberger(build_ideals(shape_sigma_type3(), ring).J, budget), budget.counters))
    return runs


def test_full_basis_of_j_sigma_v0_type3_on_both_cores():
    # The engine-core verdict of the benchmark: 102 elements over QQ and
    # over GF(2^31 - 1), and the QQ basis reduced mod p is the GF(p) basis.
    p = 2**31 - 1
    (qq, _), (gf, _) = _j_sigma_v0_type3_runs()
    assert len(qq.basis) == len(gf.basis) == 102
    assert [g.change_ring(GF(p)) for g in qq.basis] == list(gf.basis)


def _assert_reduced(gb):
    """Every element is monic, and no term of any element is divisible by
    the lead of another."""
    leads = [g.leading_term() for g in gb.basis]
    for k, g in enumerate(gb.basis):
        assert leads[k][1] == 1, g
        others = leads[:k] + leads[k + 1 :]
        assert not any(mono_divides(lead, m) for m in g.terms for lead, _ in others), g


def _small_polys(ring):
    """Polynomials in x, y, z of degree at most 3 with one to three terms."""
    monos = [m for m in product(range(4), repeat=3) if sum(m) <= 3]
    terms = st.dictionaries(st.sampled_from(monos), st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    return terms.map(lambda t: Polynomial(ring, TXYZ, t))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, GF(101)]).flatmap(lambda ring: st.lists(_small_polys(ring), min_size=1, max_size=3)))
def test_buchberger_returns_a_reduced_basis(gens):
    _assert_reduced(buchberger(IdealSpec(gens)))


def test_basis_of_j_sigma_v0_type3_is_reduced_on_both_cores():
    for gb, _ in _j_sigma_v0_type3_runs():
        _assert_reduced(gb)


def test_work_counts_of_j_sigma_v0_type3_on_both_cores():
    # The counters are deterministic, so a change to the phase order or to
    # a criterion shows here as a count diff.  The steps are the pairs
    # formed plus the reduction steps: in the loop, in reducing its records
    # to the reduced basis, and the 8 of reducing the generators to zero
    # against it, all on the run's one counter.
    for _, counters in _j_sigma_v0_type3_runs():
        (counter,) = counters
        assert counter.steps == 10_584
        assert counter.steps - counter.stats["pairs"] == 1_661
        assert counter.stats == {
            "pairs": 8_923,
            "queued": 828,
            "f5": 7_980,
            "syzygy": 2,
            "rewrite": 675,
            "one-per-signature": 11,
            "zero": 1,
        }


@pytest.mark.parametrize("ring", [QQ, GF(2**31 - 1)], ids=repr)
def test_work_counts_of_a_degree_5_member_of_j_p1_type4(ring):
    # A homogeneous question decided on a basis truncated at degree 5, so
    # the signature loop forms pairs at the degree bound and leaves out
    # those above it: a pair criterion that forms or prunes one pair more
    # or less shows here.  The steps are the pairs formed plus the
    # reduction steps, in the loop and in reducing the target.
    ideals = build_ideals(shape_one_place_type4(), ring)
    J = ideals.J
    member = J.generators[1] * J.generators[4] * ideals.ring.nu(1)
    budget = _CountingBudget()
    assert in_ideal(member, J, budget)
    (counter,) = budget.counters
    assert counter.steps == 3_841
    assert counter.stats == {
        "pairs": 2_031,
        "queued": 762,
        "f5": 1_244,
        "syzygy": 2,
        "rewrite": 324,
        "one-per-signature": 75,
        "zero": 3,
    }


def test_verify_keeps_the_criteria_of_buchberger():
    # The first six relations of J(p1-type4): a 39-element basis.  A
    # verify() that reduced all 741 S-pairs took about 25 s here.
    gb = buchberger(IdealSpec(build_ideals(shape_one_place_type4()).J.generators[:6]))
    assert len(gb.basis) == 39
    assert gb.verify()


@pytest.mark.parametrize("ring", [QQ, GF(2**31 - 1)], ids=["QQ", "GF"])
def test_verify_rejects_a_basis_missing_an_element(ring):
    gb = buchberger(IdealSpec(build_ideals(shape_r2_two_type2(), ring).J.generators))
    assert len(gb.basis) == 51 and gb.verify()
    rest = gb.basis[:-1]
    assert not GroebnerBasis(rest, gb.source).verify()
    # With the truncated set as its own source every generator is a
    # member, so the S-pair that fails to reduce to zero is what rejects.
    assert not GroebnerBasis(rest, IdealSpec(rest)).verify()
    # One element is a Groebner basis of its own ideal, so the source
    # generators that it does not reduce to zero are what rejects.
    assert not GroebnerBasis(gb.basis[:1], gb.source).verify()


def _membership_verdicts(ring):
    """The verdict of every membership check the QQ/GF(p) differential
    test compares, keyed by a label."""
    verdicts = {"example-r2": check_example_r2(ring)}
    for k in range(8):
        verdicts[f"example-r2-omit-{k}"] = check_example_r2(ring, omit_relation=k)
    for shape in (shape_r2_two_type2(), shape_one_place_type4()):
        verdicts[f"tau-{shape.name}"] = check_e_tau_invariance(shape, ring)
    verdicts["tau-drop-pair"] = check_e_tau_invariance(
        shape_one_place_type4(), ring, drop_pair_generator=True
    )
    model = GenericModel(2, ring)
    for length in (1, 2, 3):
        for letters in product((1, 2), repeat=length):
            verdicts[f"trace-{letters}"] = in_ideal(*trace_congruence_question(Word(letters), 2, model))
    return verdicts


def _r3_trace_verdicts(ring):
    """The 20 distinct r=3 trace congruence questions of words of length
    1 to 3: one word per rotation class, the least rotation."""
    model = GenericModel(3, ring)
    verdicts = {}
    for length in (1, 2, 3):
        for letters in product((1, 2, 3), repeat=length):
            if letters == min(letters[k:] + letters[:k] for k in range(length)):
                verdicts[f"trace-r3-{letters}"] = in_ideal(*trace_congruence_question(Word(letters), 3, model))
    return verdicts


def test_qq_and_gf_membership_verdicts_agree():
    # Both coefficient cores enter the engine through the same pack, so
    # the ideal membership verdicts of the formal checks must not depend
    # on the field.  Omitting relation 3 or 7 of the r=2 example, and the
    # local pair generator of J', are the rejections.
    qq = _membership_verdicts(QQ)
    assert len(qq) == 26
    assert sorted(k for k, v in qq.items() if not v) == [
        "example-r2-omit-3", "example-r2-omit-7", "tau-drop-pair"
    ]
    for p in (2**31 - 1, 998244353):
        assert _membership_verdicts(GF(p)) == qq, p
    qq_r3 = _r3_trace_verdicts(QQ)
    assert len(qq_r3) == 20 and all(qq_r3.values())
    for p in (2**31 - 1, 998244353):
        assert _r3_trace_verdicts(GF(p)) == qq_r3, p


def test_closed_form_trace_check_agrees_with_in_ideal():
    # The engine stays a second opinion on the trace congruences that the
    # suite checks by closed-form cofactors: every trace-r* word, and three
    # r = 3 words of length 4.
    words = [(r, w) for r in (2, 3) for n in (1, 2, 3) for w in product(range(1, r + 1), repeat=n)]
    words += [(3, (1, 2, 3, 1)), (3, (3, 2, 1, 2)), (3, (1, 1, 2, 3))]
    assert len(words) == 56
    models = {2: GenericModel(2), 3: GenericModel(3)}
    for r, letters in words:
        w = Word(letters)
        closed = trace_congruence_check(w, r, models[r])
        assert closed is True and in_ideal(*trace_congruence_question(w, r, models[r])) is True, letters


def test_gf_path():
    p = 101
    x, y = V(0, GF(p)), V(1, GF(p))
    gb = buchberger(IdealSpec([x * x - 1, x * y - 1]))
    assert gb.normal_form(x * x) == Polynomial.one(GF(p), TXY)
    assert gb.verify()


# -- homogeneous membership on a d-basis -----------------------------------------

def test_truncated_path_decides_the_length_4_r3_classes_like_the_full_basis():
    # One word per rotation class, the least rotation: 24 classes, each
    # a degree-4 target over homogeneous trace defects.
    model = GenericModel(3)
    classes = [w for w in product((1, 2, 3), repeat=4) if w == min(w[k:] + w[:k] for k in range(4))]
    assert len(classes) == 24
    for letters in classes:
        target, spec = trace_congruence_question(Word(letters), 3, model)
        full = buchberger(spec).normal_form(target).is_zero()
        assert groebner._ideal_contains_all(spec, [target], Budget()) == full, letters
        assert in_ideal(target, spec) == full, letters


@cache  # building a strategy per draw would cost more than the test
def _forms(ring, d):
    """Homogeneous forms of degree d in x, y, z with one to three terms."""
    monos = [m for m in product(range(d + 1), repeat=3) if sum(m) == d]
    coeffs = st.fractions(-2, 2, max_denominator=2).filter(bool) if ring == QQ else st.integers(1, 100)
    return st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3).map(
        lambda terms: Polynomial(ring, TXYZ, terms)
    )


@st.composite
def _homogeneous_questions(draw):
    ring = draw(st.sampled_from([QQ, GF(101)]))
    gens = [draw(_forms(ring, draw(st.integers(1, 2)))) for _ in range(draw(st.integers(1, 3)))]
    targets = []
    for d in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)):
        # A combination of the generators of degree d, plus possibly a
        # form that takes it out of the ideal.
        f = Polynomial.zero(ring, TXYZ)
        for g in gens:
            if not g.is_zero() and g.total_degree() <= d:
                f = f + draw(_forms(ring, d - g.total_degree())) * g
        if draw(st.booleans()):
            f = f + draw(_forms(ring, d))
        targets.append(f)
    return targets, gens


@settings(max_examples=120, deadline=None)
@given(_homogeneous_questions())
def test_truncated_verdicts_equal_full_basis_verdicts(question):
    # One to three targets of different degrees, decided as one batch on
    # a basis truncated at the largest of them.
    targets, gens = question
    spec = IdealSpec(gens)
    assume(spec.generators and any(not f.is_zero() for f in targets))
    gb = buchberger(spec)
    full = [gb.normal_form(f).is_zero() for f in targets]
    assert groebner._ideal_contains_all(spec, targets, Budget()) == all(full)
    assert [in_ideal(f, spec) for f in targets] == full


@pytest.mark.parametrize("shape", [shape_one_place_type4(), shape_full_mixed()], ids=lambda s: s.name)
def test_full_j_decides_degree_4_questions_on_a_d_basis(shape, monkeypatch):
    # The full basis of these J exhausts the default step budget (20-40 s
    # before it gives up); their 4-bases take a fraction of a second.
    ideals = build_ideals(shape)
    J, F = ideals.J, ideals.ring
    member = J.generators[1] * J.generators[4]
    non_member = member + F.nu(1) ** 2 * F.nu(2) ** 2
    # J vanishes where every matrix entry and every x_g is zero, and the
    # non-member does not: that, not the engine, proves it is outside J.
    entries = {i: F.zero() for i, role in enumerate(F.table.roles) if role in ("a", "b", "c", "d", "x_sigma")}
    assert all(g.substitute(entries).is_zero() for g in J.generators)
    assert not non_member.substitute(entries).is_zero()

    def no_full_basis(*args, **kwargs):
        raise AssertionError("a homogeneous question built the full basis")

    monkeypatch.setattr(groebner, "buchberger", no_full_basis)
    assert not reduce_by(member, J.generators).is_zero()
    assert in_ideal(member, J)
    assert not reduce_by(non_member, J.generators).is_zero()
    assert not in_ideal(non_member, J)


def test_bounded_check_accepts_a_d_basis_and_rejects_it_short_of_a_remainder():
    # The records of the 4-basis of J(p1-type4) pass check mode under the
    # same bound, and fail it without the last record added, an S-pair
    # remainder.  Unbounded, the check rejects them: the full basis of this
    # J is far larger.
    J = build_ideals(shape_one_place_type4()).J
    gens = groebner._lift(J.generators)
    eng = groebner._engine_for(gens, Budget().max_degree)
    G = groebner._buchberger(eng, [eng.pack([g])[0] for g in gens], Budget().fresh_counter(), degree_bound=4)
    assert len(G) == 113 and len(gens) == 16

    def check(records, degree_bound=4):
        inputs = [rec[2] for rec in records]
        return groebner._buchberger(eng, inputs, Budget().fresh_counter(), check=True, degree_bound=degree_bound)

    assert check(G) is not None
    assert check(G[:-1]) is None
    assert check(G, None) is None


def _checked_d_bases(spec, target, monkeypatch):
    """The verdict of ``_ideal_contains_all`` on one target, and whether
    check mode under the same bound accepts the d-basis it built."""
    built = []
    signature_loop = groebner._signature_basis

    def recording(eng, inputs, counter, degree_bound=None):
        G = signature_loop(eng, inputs, counter, degree_bound)
        built.append((eng, G, degree_bound))
        return G

    monkeypatch.setattr(groebner, "_signature_basis", recording)
    verdict = groebner._ideal_contains_all(spec, [target], Budget())
    monkeypatch.undo()
    ((eng, G, d),) = built
    assert d == target.total_degree()
    inputs = [rec[2] for rec in G]
    return verdict, groebner._buchberger(eng, inputs, Budget().fresh_counter(), check=True, degree_bound=d) is not None


def test_d_bases_of_the_r3_length_3_trace_questions_pass_the_check(monkeypatch):
    model = GenericModel(3)
    for letters in product((1, 2, 3), repeat=3):
        target, spec = trace_congruence_question(Word(letters), 3, model)
        assert _checked_d_bases(spec, target, monkeypatch) == (True, True), letters


def test_d_basis_of_the_degree_4_negative_control_in_j_p1_type4_passes_the_check(monkeypatch):
    # The control is outside J (test_full_j_decides_degree_4_questions_on_a_d_basis).
    ideals = build_ideals(shape_one_place_type4())
    J, F = ideals.J, ideals.ring
    control = J.generators[1] * J.generators[4] + F.nu(1) ** 2 * F.nu(2) ** 2
    assert _checked_d_bases(J, control, monkeypatch) == (False, True)


# -- the signature loop --------------------------------------------------------

@st.composite
def _ideals(draw):
    """One to three generators in x, y, z over QQ, GF(101) or GF(7): forms
    of degree 1 to 3 when the drawn flag is set, else any polynomials of
    degree at most 3.  Returns the generators and the flag."""
    ring = draw(st.sampled_from([QQ, GF(101), GF(7)]))
    homogeneous = draw(st.booleans())
    count = draw(st.integers(1, 3))
    if homogeneous:
        gens = [draw(_forms(ring, draw(st.integers(1, 3)))) for _ in range(count)]
    else:
        gens = draw(st.lists(_small_polys(ring), min_size=count, max_size=count))
    return gens, homogeneous


def _both_loops(spec, degree_bound=None):
    """The engine, and the records that the signature loop and
    ``_buchberger`` build from the generators of ``spec`` on it; None for
    the latter when it exceeds the default budget where the signature
    loop does not."""

    def run(degree):
        gens = groebner._lift(spec.generators)
        eng = groebner._engine_for(gens, degree)
        inputs = [eng.pack([g])[0] for g in gens]
        signature = groebner._signature_basis(eng, inputs, Budget().fresh_counter(), degree_bound)
        try:
            plain = groebner._buchberger(eng, inputs, Budget().fresh_counter(), degree_bound=degree_bound)
        except BudgetExceeded:
            plain = None
        return eng, signature, plain

    return groebner._widening(Budget().max_degree, run)


@settings(max_examples=150, deadline=None)
@given(_ideals(), st.integers(1, 4))
@example(([_X7**2 + _X7 * _Y7 + 5 * _Y7**2 + 6 * _Y7, 2 * _Z7**2, _X7**2 * _Z7 + 5], False), 1)
def test_signature_loop_agrees_with_buchberger(ideal, d):
    # The records of the signature loop give the reduced basis that
    # _buchberger's records give, and check mode, which trusts none of the
    # signature criteria, accepts them.  For forms the same holds of the
    # d-bases, in degrees up to d.  The explicit example generates the
    # unit ideal.  A rewrite criterion that prefers the latest element to
    # the largest ratio, with singular top-reducible results dropped,
    # ends it with a basis of (y^2 + 5y, x + 3y, z), which check mode
    # accepts: only the comparison of reduced bases catches it.
    gens, homogeneous = ideal
    spec = IdealSpec(gens)
    assume(spec.generators)
    eng, signature, plain = _both_loops(spec)
    assume(plain is not None)

    def reduced(G):
        records = groebner._reduced_basis(eng, G, Budget().fresh_counter())
        return [eng.to_vector(rec[2], spec.table)[0] for rec in records]

    def checked(G, bound=None):
        inputs = [rec[2] for rec in G]
        return groebner._buchberger(eng, inputs, Budget().fresh_counter(), check=True, degree_bound=bound) is not None

    assert reduced(signature) == reduced(plain)
    assert checked(signature)
    if homogeneous:
        eng, signature, plain = _both_loops(spec, d)
        low = [[g for g in reduced(G) if g.total_degree() <= d] for G in (signature, plain)]
        assert low[0] == low[1]
        assert checked(signature, d)


def _signature_run(spec, degree_bound=None, budget=Budget()):
    """The signature loop's records for the generators of ``spec``, with
    the steps and the counts of its one counter, widening as
    ``_ideal_basis`` does."""
    counter = budget.fresh_counter()

    def run(degree):
        gens = groebner._lift(spec.generators)
        eng = groebner._engine_for(gens, degree)
        return groebner._signature_basis(eng, [eng.pack([g])[0] for g in gens], counter, degree_bound)

    return groebner._widening(budget.max_degree, run), counter.steps, counter.stats


def _forcing_the_index(monkeypatch):
    """Select the support index for every reducer set and every phase,
    however small."""
    monkeypatch.setattr(reducers, "_INDEX_MIN_RECORDS", 0)
    monkeypatch.setattr(reducers, "_INDEX_MIN_VARS", 0)


@settings(max_examples=150, deadline=None)
@given(_ideals(), st.integers(1, 4))
@example(([_X7**2 + _X7 * _Y7 + 5 * _Y7**2 + 6 * _Y7, 2 * _Z7**2, _X7**2 * _Z7 + 5], False), 1)
def test_indexed_divisor_queries_give_the_records_and_counts_of_the_scans(ideal, d):
    # The ideals of test_signature_loop_agrees_with_buchberger are too
    # small for the selection, so they run the scans; with the index
    # forced, the signature loop must build the same records with the
    # same steps and counts, for the whole basis and for the d-basis.
    gens, homogeneous = ideal
    spec = IdealSpec(gens)
    assume(spec.generators)
    for bound in (None, d) if homogeneous else (None,):
        scanned = _signature_run(spec, bound)
        with pytest.MonkeyPatch.context() as mp:
            _forcing_the_index(mp)
            assert _signature_run(spec, bound) == scanned


def _overflowing(ring, which):
    """Ideals whose bases at max_degree=7 overflow the packed fields once
    with a signature: that of
    test_a_signature_above_the_room_widens_the_fields; one whose pair
    that overflows is an earlier-phase pair whose element's lead divides
    the pair's signature; and that one with w^5 put between its two
    phases, a lead coprime to the last phase's leads, whose id comes
    after that of the pair that overflows."""
    if which == "widens":
        x, y, z = (Polynomial.var(ring, TXYZ, i) for i in range(3))
        return IdealSpec([y**2 * z + 4 * x * z + 5, 5 * x**2 * z, 6 * y**3])
    x, y, z, w = (Polynomial.var(ring, TXYZW, i) for i in range(4))
    first, last = 53 * x**2 * y**3, 68 * x**3 * y * z + 19 * z**2
    return IdealSpec([first, last] if which == "own-lead" else [first, w**5, last])


@pytest.mark.parametrize("ring", [QQ, GF(101)], ids=repr)
def test_an_overflowing_attempt_counts_only_the_pairs_before_the_overflow(
    ring, packer_rooms, signature_overflows, monkeypatch
):
    # The discarded attempt's F5 and queued counts stay on the run's
    # counter, but not the pair that overflowed, although the lead of its
    # earlier-phase element divides its true signature: the room check
    # comes before every F5 test, since past the room a packed signature
    # is no monomial.
    counters = _recorded_counters(monkeypatch)
    gb = buchberger(_overflowing(ring, "own-lead"), Budget(max_degree=7))
    assert len(gb.basis) == 5
    assert packer_rooms[:2] == [7, 15]
    assert signature_overflows == [7]
    (counter,) = counters
    assert counter.steps == 15
    assert counter.stats == {
        "pairs": 13,
        "queued": 5,
        "f5": 8,
        "syzygy": 0,
        "rewrite": 0,
        "one-per-signature": 0,
        "zero": 0,
    }


@pytest.mark.parametrize("which", ["widens", "own-lead", "coprime"])
@pytest.mark.parametrize("ring", [QQ, GF(101)], ids=repr)
def test_an_indexed_phase_that_overflows_counts_what_the_scan_counts(ring, which, monkeypatch):
    # With the index forced, the same records, steps and counts as the
    # scans, among them the F5 and queued counts that the discarded
    # attempt flushed when it overflowed, which take only the coprime
    # pairs before the one that overflowed.
    spec, budget = _overflowing(ring, which), Budget(max_degree=7)
    scanned = _signature_run(spec, budget=budget)
    _forcing_the_index(monkeypatch)
    assert _signature_run(spec, budget=budget) == scanned
    counters = _recorded_counters(monkeypatch)
    basis = buchberger(spec, budget).basis
    if which == "widens":
        assert [c.steps for c in counters] == [109]
        assert basis == (Polynomial.one(ring, TXYZ),)
    assert basis == buchberger(spec).basis


@settings(max_examples=150, deadline=None)
@given(_ideals(), st.data())
def test_inhomogeneous_verdicts_agree_with_buchberger_records(ideal, data):
    # An inhomogeneous question is decided on the certified reduced basis
    # of the signature loop.  Reducing its target by the records of
    # _buchberger, a Groebner basis that trusts none of the signature
    # criteria, gives the same verdict.  The target is one of those
    # records, which may be of low degree and come from pairs of higher
    # degree, or a combination of the generators, plus possibly a
    # polynomial that takes it out of the ideal.
    gens, _ = ideal
    spec = IdealSpec(gens)
    assume(spec.generators)
    lifted = groebner._lift(spec.generators)
    eng = groebner._engine_for(lifted, Budget().max_degree)
    G = groebner._buchberger(eng, [eng.pack([g])[0] for g in lifted], Budget().fresh_counter())
    if data.draw(st.booleans()):
        f = eng.to_vector(data.draw(st.sampled_from(G))[2], TXYZ)[0]
    else:
        one = Polynomial.one(spec.ring, TXYZ)
        f = Polynomial.zero(spec.ring, TXYZ)
        for g in spec.generators:
            f = f + data.draw(st.sampled_from([0 * one, one]) | _small_polys(spec.ring)) * g
    if data.draw(st.booleans()):
        f = f + data.draw(_small_polys(spec.ring))
    assume(not f.is_zero())
    assume(not all(groebner._is_homogeneous(g) for g in (f, *spec.generators)))
    verdict = groebner._ideal_contains_all(spec, [f], Budget())
    assert verdict == (not eng.reduce(eng.pack([f])[0], G, Budget().fresh_counter())[0])


@settings(max_examples=100, deadline=None)
@given(_homogeneous_questions(), st.data())
def test_input_order_changes_neither_basis_nor_verdicts(question, data):
    # The signature loop sorts its inputs into phases, so the order they
    # are passed in changes only the work: the reduced basis, the verdicts
    # on d-bases and the check of the loop's records stay the same.
    targets, gens = question
    spec = IdealSpec(gens)
    assume(spec.generators)
    shuffled = IdealSpec(data.draw(st.permutations(gens)))
    assert buchberger(shuffled).basis == buchberger(spec).basis
    for f in targets:
        verdicts = [groebner._ideal_contains_all(s, [f], Budget()) for s in (spec, shuffled)]
        assert verdicts[0] == verdicts[1]
    eng, signature, _ = _both_loops(shuffled)
    inputs = [rec[2] for rec in signature]
    assert groebner._buchberger(eng, inputs, Budget().fresh_counter(), check=True) is not None


# -- ideal quotients -----------------------------------------------------------

def test_ideal_quotient_examples():
    x, y = V(0), V(1)
    q = ideal_quotient(IdealSpec([x * y]), x)
    assert [g for g in q.generators] == [y]
    # A ZZ divisor is lifted to the field of the ideal.
    assert ideal_quotient(IdealSpec([x * y]), V(0, ZZ)).generators == (y,)
    # (I : 1) = I
    q = ideal_quotient(IdealSpec([x * y, y * y]), Polynomial.one(QQ, TXY))
    gb_q = buchberger(q)
    gb_i = buchberger(IdealSpec([x * y, y * y]))
    assert set(gb_q.basis) == set(gb_i.basis)
    # (I : 0) is the unit ideal.
    q = ideal_quotient(IdealSpec([x * y]), Polynomial.zero(QQ, TXY))
    assert q.generators == (Polynomial.one(QQ, TXY),)


@settings(max_examples=100, deadline=None)
@given(_ideals(), _small_polys(QQ))
@example(([_X * _X * _Y - _Y, _X * _Y * _Y], False), _X * _Y - _Y)
def test_quotient_soundness_property(ideal, f):
    # Every generator g of (I : f) has g f in I, and I lies in (I : f).
    # The syzygies behind a quotient can need cofactors far above the
    # degree of its generators, and reach the default cap of 40 only
    # after seconds; a cap of 16 refuses those early, and a refused
    # quotient is a resource report, not one to check.
    gens, _ = ideal
    spec = IdealSpec(gens)
    assume(spec.generators)
    f = Polynomial(spec.ring, TXYZ, f.terms)  # integer coefficients, read in the ideal's field
    try:
        q = ideal_quotient(spec, f, Budget(max_degree=16))
    except BudgetExceeded:
        reject()
    assert groebner._ideal_contains_all(spec, [g * f for g in q.generators], Budget())
    assert groebner._ideal_contains_all(q, spec.generators, Budget())


_monomials = st.tuples(*[st.integers(0, 3)] * 3)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([QQ, GF(101)]),
    st.lists(_monomials, min_size=1, max_size=4),
    _monomials,
)
def test_quotient_of_a_monomial_ideal_by_a_monomial(ring, gens, m):
    # (m_1, ..., m_k) : m = (m_i / gcd(m_i, m)): the quotient is complete,
    # not only sound.
    def mono(e):
        return Polynomial(ring, TXYZ, {e: 1})

    spec = IdealSpec([mono(e) for e in gens])
    expected = IdealSpec([mono(tuple(max(a - b, 0) for a, b in zip(e, m))) for e in gens])
    q = ideal_quotient(spec, mono(m))
    assert all(in_ideal(g, expected) for g in q.generators)
    assert all(in_ideal(g, q) for g in expected.generators)


def test_ideal_quotient_under_a_small_degree_cap():
    # The syzygies behind (I : f) pass degree 7 before they are done.
    t = VariableTable(["x", "y", "z"])
    x, y, z = (Polynomial.var(QQ, t, i) for i in range(3))
    spec, f = IdealSpec([-2 * x**3 - 2 * x**2 * z, -2 * y**3 - 2 * x * z**2]), -(y**2) - y
    q = ideal_quotient(spec, f, Budget(max_degree=8))
    assert q.generators == ideal_quotient(spec, f).generators
    assert all(in_ideal(g * f, spec) for g in q.generators)
    expected = IdealSpec([x**2 * y**2 + x * y**2 * z, x**3 + x**2 * z, y**3 + x * z**2])
    assert buchberger(q).basis == buchberger(expected).basis
    with pytest.raises(BudgetExceeded):
        ideal_quotient(spec, f, Budget(max_degree=7))


# -- sparse matrix products ----------------------------------------------------

def _dense_matmul(A, B, zero):
    """Reference product: every entry pair multiplied, in order."""
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), zero) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _entry_pool(ring):
    x, y = V(0, ring), V(1, ring)
    one, zero = Polynomial.one(ring, TXY), Polynomial.zero(ring, TXY)
    third = Fraction(1, 3) if ring == QQ else 5  # 5 = 1/3 in GF(7)
    # Zeros are common, and x, -x and x + y, -y let products cancel.
    return [zero, zero, zero, one, -one, x, -x, y, x + y, -y, x * y * third, x * x - third]


@st.composite
def _matrix_products(draw):
    ring = draw(st.sampled_from([QQ, GF(7)]))
    pool = _entry_pool(ring)
    zero = pool[0]
    m, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.sampled_from(pool)
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    B = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    v = draw(st.lists(entry, min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, m - 1))):
        A[i] = [zero] * n
    for j in draw(st.sets(st.integers(0, k - 1))) if k else ():
        for row in B:
            row[j] = zero
    return ring, A, B, v


@settings(max_examples=150, deadline=None)
@given(_matrix_products())
def test_sparse_products_match_the_dense_reference(case):
    ring, A, B, v = case
    zero = Polynomial.zero(ring, TXY)
    MA = FreeModuleMatrix(A)
    assert MA.matmul(FreeModuleMatrix(B)).entries == tuple(map(tuple, _dense_matmul(A, B, zero)))
    assert MA.apply(v) == [row[0] for row in _dense_matmul(A, [[e] for e in v], zero)]


def test_sparse_product_zero_entries_keep_the_ring():
    x, y = V(0, GF(7)), V(1, GF(7))
    z = Polynomial.zero(GF(7), TXY)
    P = FreeModuleMatrix([[x, z], [z, z], [x, x]]).matmul(FreeModuleMatrix([[z, y], [x, -y]]))
    # Row 2, column 1 is x*y - x*y: products that cancel.
    assert P.entries == ((z, x * y), (z, z), (x * x, z))
    assert all(e.ring == GF(7) and e.table == TXY for row in P.entries for e in row)


def test_matmul_with_no_output_columns_keeps_the_shape():
    x = V(0)
    for A, B in (([[], []], []), ([[x, x], [x, x]], [[], []])):
        P = FreeModuleMatrix(A).matmul(FreeModuleMatrix(B))
        assert P.entries == ((), ())


# -- syzygies -----------------------------------------------------------------

def test_syzygy_koszul_pair():
    x, y = V(0), V(1)
    M = FreeModuleMatrix([[x, y]])
    syz = syzygies(M)
    gb = module_gb(syz)
    assert module_contains([-y, x], gb)


def test_syzygy_zero_matrix():
    z = Polynomial.zero(QQ, TXY)
    syz = syzygies(FreeModuleMatrix([[z]]))
    gb = module_gb(syz)
    assert module_contains([Polynomial.one(QQ, TXY)], gb)


def test_module_degree_cap_bounds_the_spair_lcm():
    # The S-pair of x^3 e0 and y^3 e0 has lcm x^3 y^3 of degree 6: the cap
    # bounds intermediate degrees, as it does for ideals.
    x, y = V(0), V(1)
    M = FreeModuleMatrix([[x**3, y**3]])
    with pytest.raises(BudgetExceeded):
        syzygies(M, budget=Budget(max_degree=4))
    assert syzygies(M, budget=Budget(max_degree=6)) == syzygies(M) == [[y**3, -(x**3)]]


def test_module_degree_cap_counts_every_term_of_a_new_element():
    # S = y v1 - x v2 = (0, y, y^5) leads with y e1 of degree 1, but a
    # module order is not degree-compatible: its tail y^5 e2 passes a cap
    # of 4 without any product of the reduction reaching it.
    x, y = V(0), V(1)
    one, zero = Polynomial.one(QQ, TXY), Polynomial.zero(QQ, TXY)
    cols = [[x, one, y**4], [y, zero, zero]]
    with pytest.raises(BudgetExceeded):
        module_gb(cols, budget=Budget(max_degree=4))
    assert module_gb(cols, budget=Budget(max_degree=5))[2] == [zero, y, y**5]


def test_syzygies_of_columns_with_different_denominators():
    # Over QQ each input is scaled to integers as a whole, bookkeeping
    # unit included, so the syzygy read back is one of M itself.
    x, y = V(0), V(1)
    M = FreeModuleMatrix([[Fraction(1, 2) * x, Fraction(1, 3) * y]])
    assert syzygies(M) == [[y, Fraction(-3, 2) * x]]


def test_module_pairs_with_coprime_leads_are_not_skipped():
    # The leads x e0 and y e0 are coprime, yet the S-pair is (0, y): the
    # product criterion does not hold for module elements.
    x, y = V(0), V(1)
    one, zero = Polynomial.one(QQ, TXY), Polynomial.zero(QQ, TXY)
    gb = module_gb([[x, one], [y, zero]])
    assert module_contains([zero, y], gb)
    assert not module_contains([zero, x], gb)
    assert not module_contains([zero, y], [])


def test_module_membership_against_a_generating_set_that_is_no_groebner_basis():
    # y^2 = y (x^2 + y) - x (x y), though neither lead divides y^2.
    x, y = V(0), V(1)
    assert module_contains([y * y], [[x * x + y], [x * y]])
    assert not module_contains([x], [[x * x + y], [x * y]])


@settings(max_examples=100, deadline=None)
@given(_ideals(), st.sampled_from(["random", "combination", "perturbed"]), st.data())
def test_rank_one_module_membership_is_ideal_membership(ideal, kind, data):
    # A submodule of R^1 is an ideal, so module_contains against the
    # generators as vectors, rarely a Groebner basis, agrees with in_ideal.
    # The target is random, a combination of the generators, or such a
    # combination plus a polynomial that may take it out of the ideal.
    gens, _ = ideal
    spec = IdealSpec(gens)
    assume(spec.generators)
    if kind == "random":
        f = data.draw(_small_polys(spec.ring))
    else:
        f = Polynomial.zero(spec.ring, TXYZ)
        for g in spec.generators:
            f = f + data.draw(_small_polys(spec.ring)) * g
        if kind == "perturbed":
            f = f + data.draw(_small_polys(spec.ring))
    try:
        verdicts = [in_ideal(f, spec), module_contains([f], [[g] for g in spec.generators])]
    except BudgetExceeded:
        reject()
    assert verdicts[0] == verdicts[1]


def test_gf_syzygies_are_the_qq_syzygies_mod_p():
    p = 2**31 - 1
    d1 = br_complexes(generic_2xn(3)).Rf.diffs[1]
    qq = syzygies(d1)
    gf = syzygies(FreeModuleMatrix([[e.change_ring(GF(p)) for e in row] for row in d1.entries]))
    assert len(qq) == 2
    assert gf == [[e.change_ring(GF(p)) for e in v] for v in qq]


def _bp_table(n):
    names = [f"b{i}" for i in range(1, n + 1)] + [f"bp{i}" for i in range(1, n + 1)]
    return VariableTable(names, ["b"] * n + ["other"] * n)


def test_syzygy_generic_2x3_is_d123():
    t = _bp_table(3)
    b = [Polynomial.var(QQ, t, i) for i in range(3)]
    bp = [Polynomial.var(QQ, t, 3 + i) for i in range(3)]
    M = FreeModuleMatrix([b, bp])
    syz = syzygies(M)
    assert syz, "kernel must be nonzero"
    r = lambda i, j: b[i] * bp[j] - b[j] * bp[i]
    d123 = [r(1, 2), -r(0, 2), r(0, 1)]
    gb = module_gb(syz)
    assert module_contains(d123, gb)
    gb_d = module_gb([d123])
    for v in syz:
        assert module_contains(v, gb_d)


def _monomials_up_to(table, d):
    n = len(table)
    out = []

    def rec(prefix, remaining, idx):
        if idx == n:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            prefix.append(e)
            rec(prefix, remaining - e, idx + 1)
            prefix.pop()

    rec([], d, 0)
    return out


def brute_force_syzygies(M: FreeModuleMatrix, deg: int):
    """Independent oracle: solve for all syzygies with entries of total
    degree <= deg by linear algebra over monomial coefficients."""
    table = M.entries[0][0].table
    monos = _monomials_up_to(table, deg)
    cols = M.cols
    unknowns = [(j, m) for j in range(cols) for m in monos]
    # Rows: constraint per (matrix row, target monomial).
    constraints = {}
    for u_idx, (j, m) in enumerate(unknowns):
        for i in range(M.rows):
            e = M.entries[i][j]
            for mm, c in e.terms.items():
                key = (i, tuple(a + b for a, b in zip(mm, m)))
                constraints.setdefault(key, {})[u_idx] = constraints.setdefault(
                    key, {}
                ).get(u_idx, 0) + c
    keys = sorted(constraints)
    rows = [[Fraction(constraints[k].get(u, 0)) for u in range(len(unknowns))] for k in keys]
    if not rows:
        rows = [[Fraction(0)] * len(unknowns)]
    basis = kernel_basis(rows, QQ)
    out = []
    for vec in basis:
        v = []
        for j in range(cols):
            terms = {}
            for u_idx, (jj, m) in enumerate(unknowns):
                if jj == j and vec[u_idx] != 0:
                    terms[m] = vec[u_idx]
            v.append(Polynomial(QQ, table, terms))
        out.append(v)
    return out


def test_syzygy_completeness_against_brute_force():
    # Compare on small instances: returned generators must span every
    # degree-bounded syzygy found by the oracle.
    x, y = V(0), V(1)
    cases = [
        FreeModuleMatrix([[x, y]]),
        FreeModuleMatrix([[x * y, x * x - y, y * y]]),
        FreeModuleMatrix([[x, y], [y, x]]),
    ]
    for M in cases:
        syz = syzygies(M)
        gb = module_gb(syz) if syz else []
        for v in brute_force_syzygies(M, 3):
            if all(e.is_zero() for e in v):
                continue
            assert module_contains(v, gb), f"oracle syzygy missed for {M}"


def test_gb_spair_reduction_verify_randomized():
    import random

    rng = random.Random(7)
    p = 101
    t = TXY
    for _ in range(25):
        gens = []
        for _k in range(2):
            terms = {}
            for _t in range(3):
                m = (rng.randrange(3), rng.randrange(3))
                terms[m] = rng.randrange(1, p)
            gens.append(Polynomial(GF(p), t, terms))
        spec = IdealSpec([g for g in gens if not g.is_zero()])
        if not spec.generators:
            continue
        assert buchberger(spec).verify()
