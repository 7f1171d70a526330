"""The lower-triangular substitution action: transformation laws,
invariance modulo ideals, and the one-parameter subgroup law."""

import pytest
from hypothesis import given, settings, strategies as st

from ribetkit.borel import TauAction, _tau_images, adjoint_quadruple_check, invariant_mod
from ribetkit.errors import StructuralError
from ribetkit.exactpoly import GF, QQ, Polynomial, VariableTable
from ribetkit.genmat import GenericModel
from ribetkit.groebner import IdealSpec
from ribetkit.ribet.formal import FormalRing, build_ideals
from ribetkit.ribet.shapes import shape_full_mixed, shape_one_place_type4, shape_r2_two_type2

T = VariableTable(
    ["a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2", "s"],
    ["a", "b", "c", "d", "a", "b", "c", "d", "other"],
)


def V(name):
    return Polynomial.var(QQ, T, T.index(name))


def test_tau_on_generators():
    act = TauAction(T)
    x = act.x_var(QQ)
    a, b, c, d = (V(n).lift(act.table) for n in ("a1", "b1", "c1", "d1"))
    assert act.apply(V("a1")) == a + b * x
    assert act.apply(V("b1")) == b
    assert act.apply(V("c1")) == c + (d - a) * x - b * x * x
    assert act.apply(V("d1")) == d - b * x
    assert act.apply(V("s")) == V("s").lift(act.table)


def test_tau_with_zero_applied_is_identity():
    act = TauAction(T)
    f = V("a1") * V("c2") + 3 * V("d1")
    image = act.apply(f)
    zero = Polynomial.zero(QQ, act.table)
    collapsed = image.substitute({act.param: zero})
    assert collapsed == f.lift(act.table)


def test_tau_rejects_matrix_variables_not_named_by_their_role_letter():
    # Each of aa1, bb1, cc1, dd1 would form a quadruple of its own, which
    # tau_x fixes, so a tau-invariance question would pass vacuously.
    table = VariableTable(["aa1", "bb1", "cc1", "dd1"], ["a", "b", "c", "d"])
    with pytest.raises(StructuralError, match="aa1, bb1, cc1, dd1"):
        TauAction(table)


_mono9 = st.lists(st.integers(0, 8), min_size=0, max_size=3).map(
    lambda idxs: tuple(idxs.count(i) for i in range(9))
)
_poly9 = st.lists(
    st.tuples(_mono9, st.integers(-5, 5)), min_size=0, max_size=3
).map(lambda pairs: Polynomial(QQ, T, dict(pairs)))


@settings(max_examples=40, deadline=None)
@given(_poly9, _poly9)
def test_tau_is_ring_homomorphism(f, g):
    act = TauAction(T)
    assert act.apply(f * g) == act.apply(f) * act.apply(g)
    assert act.apply(f + g) == act.apply(f) + act.apply(g)


def test_one_parameter_subgroup_law():
    # Applying tau with parameter x then y equals tau with parameter x+y.
    # The second action's parameter clashes with the first's, x, so it is
    # named _x.
    act_x = TauAction(T)
    act_y = TauAction(act_x.table)
    act_z = TauAction(T)
    assert act_y.table.names[len(T):] == ("x", "_x")
    x = Polynomial.var(QQ, act_y.table, act_x.param)
    y = Polynomial.var(QQ, act_y.table, act_y.param)
    for name in ("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2", "s"):
        two_step = act_y.apply(act_x.apply(V(name)))
        one_step = act_z.apply(V(name))
        zidx = act_z.param
        rebased = Polynomial.zero(QQ, act_y.table)
        for m, c in one_step.terms.items():
            base = Polynomial(QQ, act_y.table, {m[: len(T)] + (0, 0): c})
            rebased = rebased + base * (x + y) ** m[zidx]
        assert two_step == rebased


def test_adjoint_quadruple_defining_action():
    assert adjoint_quadruple_check(V("a1"), V("b1"), V("c1"), V("d1"))
    assert not adjoint_quadruple_check(
        V("a1"), V("b1"), V("c1"), Polynomial.zero(QQ, T)
    )


def test_adjoint_quadruple_local_pair():
    # The A, B, C, D combinations attached to a place pair transform as
    # the adjoint; pull them from the full-mixed shape.
    ideals = build_ideals(shape_full_mixed())
    pair = [q for q in ideals.quadruples if q.origin[0] == "pair"]
    assert pair
    for q in pair:
        assert adjoint_quadruple_check(*q.matrix.entries())


def test_adjoint_quadruple_relation_rows():
    ideals = build_ideals(shape_r2_two_type2())
    for q in ideals.quadruples:
        assert adjoint_quadruple_check(*q.matrix.entries())


def test_adjoint_quadruple_check_rejects_a_quadruple_times_its_own_b():
    # B is tau-fixed and the law is linear, so (A, B, C, D) times B still
    # transforms like the adjoint; only the torus weights, now
    # (1, 2, 0, 1), tell it apart.
    ideals = build_ideals(shape_one_place_type4())
    A, B, C, D = ideals.quadruples[0].matrix.entries()
    assert adjoint_quadruple_check(A, B, C, D)
    scaled = [f * B for f in (A, B, C, D)]
    act = TauAction(A.table)
    lifted = [f.lift(act.table) for f in scaled]
    assert [act.apply(f) for f in scaled] == list(_tau_images(*lifted, act.x_var(A.ring)))
    assert [f.torus_weight() for f in scaled] == [1, 2, 0, 1]
    assert not adjoint_quadruple_check(*scaled)


def test_invariant_mod_examples():
    # Traces of words are invariant with the zero ideal.
    model = GenericModel(2)
    tr = (model.rho(1) * model.rho(2)).trace()
    assert invariant_mod(tr, IdealSpec([]))
    dets = model.rho(1).det()
    assert invariant_mod(dets, IdealSpec([]))
    # d is invariant modulo (b).
    F = FormalRing(shape_r2_two_type2())
    assert invariant_mod(F.d(1), IdealSpec([F.b(1)]))
    assert not invariant_mod(F.b(1), IdealSpec([]))
    # a is also invariant modulo (b).
    assert invariant_mod(F.a(1), IdealSpec([F.b(1)]))
    # but not modulo the zero ideal.
    assert not invariant_mod(F.a(1), IdealSpec([]))


def test_one_action_over_several_rings_matches_fresh_actions():
    # The substitution map is kept per coefficient ring: after QQ, GF(p)
    # and GF(q), each image still equals a fresh action's.
    f = V("a1") * V("d1") - V("b1") * V("c1") + 3 * V("c2") * V("s") + V("a2") ** 2 - 5 * V("d2")
    act = TauAction(T)
    for ring in (QQ, GF(101), GF(2**31 - 1), QQ):
        g = f.change_ring(ring)
        image = act.apply(g)
        assert image.ring == ring
        assert image == TauAction(T).apply(g), ring
