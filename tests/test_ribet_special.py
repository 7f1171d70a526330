"""Finite-field specializations: generation invariants and the four
numeric checks."""

import copy
import random

import pytest

import ribetkit.ribet.formal as formal
from ribetkit.errors import StructuralError
from ribetkit.exactpoly import GF, QQ
from ribetkit.linalg import rank
from ribetkit.ribet.formal import build_ideals, build_matrices, formal_ring
from ribetkit.ribet.shapes import (
    RibetShape,
    RowSpec,
    corpus,
    shape_one_place_type4,
    shape_r2_two_type2,
    shape_specialization,
)
from ribetkit.ribet.specialize import (
    SpecializedInstance,
    _assemble_matrices,
    _check_j_vanishes,
    _coefficient_matrix,
    _m2_add_scalar,
    _m2_inv,
    _m2_mul,
    _m2_scale,
    _instance_point,
    _point_plan,
    _rand_gl2,
    check_specialized,
    generate_specialization,
    perturb_alpha,
)

P = 10007


def test_generation_requires_four_free_generators():
    with pytest.raises(StructuralError):
        generate_specialization(shape_r2_two_type2(), 0, P)


def test_generated_instance_invariants():
    sh = shape_specialization()
    inst = generate_specialization(sh, 0, P)
    # Shifted images span the full matrix algebra.
    assert rank(_coefficient_matrix(inst), GF(P)) == 4
    # Lower-triangular at v0: the TypeIII generator has b = 0.
    for g in sh.b_v0():
        assert inst.rho_images[g][1] % P == 0
    # Local shape at the P-place: M_v conjugates to lower triangular.
    v = sh.p_places[0]
    data = inst.places[v]
    for g in sh.b_set(v):
        m = inst.rho_images[g]
        A, B, C, D = data.M
        # rho(g) M = M lower means the upper-right of M^{-1} rho(g) M is 0;
        # equivalently D * b(g) = B * (xi - psi - a(g)) (the e:db relation).
        b_entry = inst.rho_shift(g)[1]
        a_entry = inst.rho_shift(g)[0]
        assert (D * b_entry - B * (inst.x_val(g) - a_entry)) % P == 0
    # Relation rows hold exactly.
    coeff = _coefficient_matrix(inst)
    for eps in inst.eps:
        for i in range(4):
            assert sum(coeff[i][j] * eps[j] for j in range(sh.r)) % P == 0
    for (i, j), delta in inst.delta.items():
        lhs_mat = inst.rho_shift(i)
        import ribetkit.ribet.specialize as sp

        lhs = sp._m2_mul(
            sp._m2_add_scalar(inst.rho_shift(i), inst.nu(i), P), inst.rho_shift(j), P
        )
        for comp in range(4):
            rhs = sum(delta[k] * inst.rho_shift(k + 1)[comp] for k in range(sh.r)) % P
            assert lhs[comp] % P == rhs


def test_x_and_z_values_read_the_place_of_their_generator():
    # Each dedicated generator is a key of exactly one place's xi; a free
    # generator is attached to no place, and has neither value.
    sh = shape_specialization()
    inst = generate_specialization(sh, 0, P)
    dedicated = [(g, data) for v, data in inst.places.items() for g in sh.b_set(v)]
    assert sorted(g for g, _ in dedicated) == sorted({g for g, _ in dedicated})
    for g, data in dedicated:
        assert inst.x_val(g) == (data.xi[g] - inst.psi[g]) % P
        assert inst.z_val(g) == (data.xi[g] - inst.chi[g]) % P
    for read in (inst.x_val, inst.z_val):
        with pytest.raises(StructuralError, match="not attached to a place"):
            read(sh.free_generators()[0])


def test_twenty_seeds_all_checks_pass():
    sh = shape_specialization()
    for seed in range(20):
        inst = generate_specialization(sh, seed, P)
        checks = check_specialized(inst)
        assert checks.all_pass(), (seed, checks)


def test_j_vanishes_check_rejects_a_point_off_j():
    # One eps value moved: the first J generator no longer vanishes at the
    # instance's point, and the check must say so.
    sh = shape_specialization()
    inst = generate_specialization(sh, 0, P)
    assert _check_j_vanishes(inst)
    bad = copy.deepcopy(inst)
    bad.eps[0][0] = (bad.eps[0][0] + 1) % P
    assert build_ideals(sh, bad.ring).J.generators[0].evaluate(_instance_point(bad)) != 0
    assert not _check_j_vanishes(bad)


def test_perturbed_instance_fails_det_eprime():
    sh = shape_specialization()
    inst = generate_specialization(sh, 0, P)
    bad = check_specialized(perturb_alpha(inst))
    assert not bad.detEprime_zero
    # Block structure is untouched, so the factorization still holds.
    assert bad.detE_factorization


def _shape_with_type_v() -> RibetShape:
    """Every place-bearing row kind with four free generators: TypeIII at
    v0, TypeIV at v1 in P, TypeV at w1 in Sigma."""
    return RibetShape(
        name="spec-r8-type5",
        r=8,
        rows=(
            RowSpec.type_iii(8),
            RowSpec.type_iv("v1", 6),
            RowSpec.type_v("w1", 7),
            RowSpec.type_i(),
            RowSpec.type_i(),
            RowSpec.type_ii(1, 2),
            RowSpec.type_ii(2, 3),
            RowSpec.type_ii(3, 4),
            RowSpec.type_ii(4, 1),
        ),
        sigma_places=("v0", "w1"),
        p_places=("v1",),
        sigma_v={"v1": 5},
    )


def _perturb_by_deepcopy(inst):
    """Reference control: a deep copy of the whole instance with the first
    alpha coefficient (else delta, else eps) moved by one, reassembled."""
    out = copy.deepcopy(inst)
    if out.alpha:
        row = out.alpha[sorted(out.alpha)[0]]
    elif out.delta:
        row = out.delta[sorted(out.delta)[0]]
    else:
        row = out.eps[0]
    row[0] = (row[0] + 1) % out.p
    _assemble_matrices(out)
    return out


def _mutate_everything(inst):
    """Change every mutable container an instance holds, and the rows in
    them; the shape is a frozen value."""
    for rows in (inst.eps, list(inst.delta.values()), list(inst.alpha.values()),
                 inst.E, inst.Eprime, inst.D):
        for row in rows:
            row[0] += 1
            row.append(0)
    for table in (inst.chi, inst.psi, *(d.eta for d in inst.places.values()),
                  *(d.xi for d in inst.places.values())):
        for g in table:
            table[g] += 1
    for g in inst.rho_images:
        inst.rho_images[g] = (0, 0, 0, 0)
    for v in inst.places:
        inst.places[v].M = (0, 0, 0, 0)
    inst.eps.append([1])
    inst.delta[(0, 0)] = [1]
    inst.alpha[0] = [1]
    inst.places["w"] = None
    for rows in (inst.E, inst.Eprime, inst.D):
        rows.append([1])


@pytest.mark.parametrize("sh", [shape_specialization(), _shape_with_type_v()], ids=lambda s: s.name)
def test_perturbed_control_shares_no_mutable_state(sh):
    for seed in range(4):
        inst = generate_specialization(sh, seed, P)
        record = inst.to_record()
        control = perturb_alpha(inst)
        assert control.to_record() == _perturb_by_deepcopy(inst).to_record()
        assert control.shape is inst.shape and inst.to_record() == record
        control_record = control.to_record()
        _mutate_everything(control)
        assert inst.to_record() == record
        control = perturb_alpha(inst)
        _mutate_everything(inst)
        assert control.to_record() == control_record


@pytest.mark.parametrize("p", [3, P])
@pytest.mark.parametrize("sh", [shape_specialization(), _shape_with_type_v()], ids=lambda s: s.name)
def test_numeric_matrices_are_the_formal_ones_at_the_instance(sh, p):
    # E and E' of an instance are the GF(p) formal E and E' evaluated at
    # the instance point, except in the cells that differ by design: the
    # generator block of a P row holds alpha[sigma_v] in both, and in E
    # a TypeIV place entry is 0 and a TypeV place entry is nu_g.
    t, r = sh.t, sh.r
    cols = sh.place_columns()
    mats = build_matrices(sh, GF(p))
    kinds_seen = set()
    for seed in range(6):
        inst = generate_specialization(sh, seed, p)
        point = _instance_point(inst)
        both = {}  # (row, column) -> designed value in E and E'
        for k, v in enumerate(sh.p_places):
            for i, value in enumerate(inst.alpha[sh.sigma_v[v]]):
                both[(k, t + i)] = value
        e_only = {}  # (row, column) -> designed value in E alone
        for ri, row in enumerate(sh.rows, start=t):
            if row.kind in ("IV", "V"):
                kinds_seen.add(row.kind)
                e_only[(ri, cols[row.place])] = 0 if row.kind == "IV" else inst.nu(row.sigma)
        for name, formal_m, numeric, designed in (
            ("E", mats.E, inst.E, {**both, **e_only}),
            ("Eprime", mats.Eprime, inst.Eprime, both),
        ):
            assert len(numeric) == formal_m.rows == t + r + sh.s
            for i, row in enumerate(formal_m.entries):
                for j, entry in enumerate(row):
                    expected = designed[(i, j)] if (i, j) in designed else entry.evaluate(point)
                    assert numeric[i][j] == expected, (name, seed, i, j)
        assert inst.D == [row[t:] for row in inst.E[t:]]
    assert kinds_seen == ({"IV", "V"} if sh.s else {"IV"})


def test_relation_ideal_is_built_once_per_shape_and_prime(monkeypatch):
    # Count the constructions of the relation quadruples behind J: one per
    # (shape, ring) entry of the shared cache.
    from ribetkit.veriharness import SuiteConfig, run_suite

    calls = []
    real = formal.relation_quadruples

    def counting(F):
        calls.append((F.shape.name, F.ring))
        return real(F)

    monkeypatch.setattr(formal, "relation_quadruples", counting)
    formal._formal_ring.cache_clear()
    try:
        # One `verify run all` (at --jobs 1, so every check runs here)
        # builds each of its six (shape, ring) keys exactly once.
        report = run_suite(SuiteConfig(suite="all", jobs=1))
        assert report.summary() == {"pass": 176, "fail": 0, "timeout": 0}
        keys = [(sh.name, QQ) for sh in corpus()] + [("spec-r4", GF(P))]
        assert sorted(calls, key=repr) == sorted(keys, key=repr)
        # Fresh instances and the perturbed control find the GF(p) entry.
        calls.clear()
        insts = [generate_specialization(shape_specialization(), seed, P) for seed in range(5)]
        for inst in insts:
            assert check_specialized(inst).J_vanishes
        assert check_specialized(perturb_alpha(insts[0])).J_vanishes
        assert calls == []
        # QQ and GF(p) are separate entries of one shape.
        assert build_ideals(shape_specialization()).ring.ring == QQ
        assert calls == [("spec-r4", QQ)]
        assert build_ideals(shape_specialization(), GF(P)).ring.ring == GF(P)
        assert calls == [("spec-r4", QQ)]
    finally:
        formal._formal_ring.cache_clear()


def _point_by_names(inst):
    """Reference: parse every formal variable name at each instance."""
    table = formal_ring(inst.shape, inst.ring).table
    point = {}
    for name in table.names:
        idx = table.index(name)
        if name.startswith("nu"):
            point[idx] = inst.nu(int(name[2:]))
        elif name.startswith("eps"):
            block, i = name[3:].split("_")
            point[idx] = inst.eps[int(block) - 1][int(i) - 1]
        elif name.startswith("delta"):
            i, j, k = name[5:].split("_")
            point[idx] = inst.delta[(int(i), int(j))][int(k) - 1]
        elif name.startswith("x"):
            point[idx] = inst.x_val(int(name[1:]))
        else:
            point[idx] = inst.rho_shift(int(name[1:]))["abcd".index(name[0])]
    return point


def test_instance_point_parses_the_names_once_per_shape_and_prime(monkeypatch):
    # The point plan is read once per (shape, p) from the keys of the
    # shared formal ring, the one J-vanishes evaluates J on: one ring is
    # constructed in all.
    built = []
    post_init = formal.FormalRing.__post_init__

    def counting(self):
        built.append((self.shape.name, self.ring))
        post_init(self)

    monkeypatch.setattr(formal.FormalRing, "__post_init__", counting)
    _point_plan.cache_clear()
    formal._formal_ring.cache_clear()
    try:
        insts = [generate_specialization(shape_specialization(), seed, P) for seed in range(6)]
        insts.append(perturb_alpha(insts[0]))
        for inst in insts:
            assert _instance_point(inst) == _point_by_names(inst)
            assert check_specialized(inst).J_vanishes
        info = _point_plan.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert built == [("spec-r4", GF(P))]
    finally:
        _point_plan.cache_clear()
        formal._formal_ring.cache_clear()


def test_shape_hash_is_a_value_hash():
    from ribetkit.veriharness.config import parse_flat_config

    sh = shape_specialization()
    copied = copy.deepcopy(sh)
    round_trip = RibetShape.from_mapping(parse_flat_config(sh.to_config_text())[""])
    assert copied == sh and round_trip == sh
    assert hash(copied) == hash(sh) == hash(round_trip)
    formal._formal_ring.cache_clear()
    try:
        # A copied shape, a config round trip and the default ring all
        # find the entry of build_ideals(sh): one construction, shared.
        ideals = build_ideals(sh)
        assert build_ideals(sh, QQ) is ideals
        assert build_ideals(copied) is ideals and build_ideals(round_trip, QQ) is ideals
        assert build_matrices(copied).ring is ideals.ring is formal_ring(round_trip)
        info = formal._formal_ring.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        # GF(p) is an entry of its own, found again by a ring made anew.
        assert build_ideals(copied, GF(101)) is build_ideals(sh, GF(101)) is not ideals
        info = formal._formal_ring.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
    finally:
        formal._formal_ring.cache_clear()


def test_shapes_differing_only_in_sigma_v_are_unequal():
    a = shape_one_place_type4()
    b = RibetShape(a.name, a.r, a.rows, a.sigma_places, a.p_places, {"v1": 1})
    assert a.sigma_v != b.sigma_v
    assert a != b
    assert len({a, b}) == 2


def test_replay_determinism():
    sh = shape_specialization()
    a = generate_specialization(sh, 5, P)
    b = generate_specialization(sh, 5, P)
    assert a.E == b.E and a.Eprime == b.Eprime
    assert a.rho_images == b.rho_images and a.chi == b.chi and a.psi == b.psi
    c = generate_specialization(sh, 6, P)
    assert c.E != a.E


def test_no_place_shape_factorization_reduces_to_det_d():
    # A TypeI row needs a nonzero kernel, so r must exceed the spanning
    # dimension 4.
    sh = RibetShape(
        name="free-only",
        r=5,
        rows=(
            RowSpec.type_i(),
            RowSpec.type_ii(1, 2),
            RowSpec.type_ii(2, 3),
            RowSpec.type_ii(3, 4),
            RowSpec.type_ii(4, 5),
        ),
    )
    inst = generate_specialization(sh, 1, P)
    checks = check_specialized(inst)
    assert checks.all_pass()
    assert inst.E == inst.D  # t = s = 0


def test_small_prime_works():
    sh = shape_specialization()
    inst = generate_specialization(sh, 2, 101)
    assert check_specialized(inst).all_pass()


def test_instance_record_replay():
    import json

    sh = shape_specialization()
    a = generate_specialization(sh, 9, P).to_record()
    b = generate_specialization(sh, 9, P).to_record()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["E"] and a["delta"]


# sha256 of the generated instances' records, in the order below.  A
# change to generation that moves any drawn or solved value, or the
# random stream behind the rerolls (frequent at p = 3), changes it.
REPLAY_DIGEST = "089af55a06c81d52d09b7be9d4f05198f4bed58f7593ebaca8a00a57c5afbafc"


def test_generated_instances_replay_the_pinned_records():
    import hashlib
    import json

    free_only = RibetShape(
        name="free-only",
        r=5,
        rows=(RowSpec.type_i(),) + tuple(RowSpec.type_ii(i, i + 1) for i in range(1, 5)),
    )
    sh = shape_specialization()
    cases = [(sh, seed, P) for seed in range(20)] + [(sh, seed, 1000003) for seed in range(8)]
    cases += [(sh, seed, 3) for seed in range(20)] + [(free_only, seed, 3) for seed in range(20)]
    digest = hashlib.sha256()
    for shape, seed, p in cases:
        record = generate_specialization(shape, seed, p).to_record()
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == REPLAY_DIGEST


def test_four_free_generators_no_places():
    # The minimal spanning situation: exactly four generators, no places,
    # only TypeII rows; the shifted images must fill the matrix algebra.
    sh = RibetShape(
        name="r4-free",
        r=4,
        rows=(
            RowSpec.type_ii(1, 2),
            RowSpec.type_ii(2, 1),
            RowSpec.type_ii(3, 4),
            RowSpec.type_ii(4, 3),
        ),
    )
    inst = generate_specialization(sh, 0, P)
    assert rank(_coefficient_matrix(inst), GF(P)) == 4
    assert check_specialized(inst).all_pass()


def _kappa_unscaled(self, word):
    """rho(w) - psi(w), missing the psi(w)^{-1} scale."""
    pw = self.char_word(self.psi, word)
    return _m2_add_scalar(self.rho_word(word), -pw % self.p, self.p)


def _kappa_of_chi(self, word):
    """chi(w)^{-1} (rho(w) - chi(w)): kappa built from the wrong character."""
    p = self.p
    cw = self.char_word(self.chi, word)
    return _m2_scale(_m2_add_scalar(self.rho_word(word), -cw % p, p), pow(cw, p - 2, p), p)


@pytest.mark.parametrize("kappa", [_kappa_unscaled, _kappa_of_chi])
def test_cocycle_check_rejects_a_wrong_kappa(monkeypatch, kappa):
    insts = [generate_specialization(shape_specialization(), seed, P) for seed in range(5)]
    assert all(check_specialized(inst).cocycle for inst in insts)
    monkeypatch.setattr(SpecializedInstance, "kappa", kappa)
    for inst in insts:
        checks = check_specialized(inst)
        assert not checks.cocycle, inst.seed
        assert checks.detE_factorization and checks.J_vanishes


def test_cocycle_check_accepts_a_cohomologous_kappa(monkeypatch):
    # psi(w)^{-1} (rho(w) - chi(w)) is kappa plus w -> 1 - chi psi^{-1}(w),
    # a coboundary for the chi psi^{-1}-twisted action, so it satisfies
    # the same cocycle identity exactly: no exact check of it can reject it.
    def kappa_shifted_by_chi(self, word):
        p = self.p
        m = _m2_add_scalar(self.rho_word(word), -self.char_word(self.chi, word) % p, p)
        return _m2_scale(m, pow(self.char_word(self.psi, word), p - 2, p), p)

    monkeypatch.setattr(SpecializedInstance, "kappa", kappa_shifted_by_chi)
    for seed in range(5):
        inst = generate_specialization(shape_specialization(), seed, P)
        assert check_specialized(inst).cocycle, seed


@pytest.mark.parametrize("p", [3, 5, 7, 10007])
def test_images_sharing_an_eigenline_do_not_span(p):
    # Generation keeps only instances whose shifted images span M_2(F_p).
    # Images fixing one line M e_2 are M (lower triangular) M^{-1}: they
    # lie in a 3-dimensional Borel subalgebra, so they never span and a
    # reducible instance is always rerolled.
    sh = shape_specialization()
    rng = random.Random(f"eigenline:{p}")
    for _ in range(200):
        M = _rand_gl2(rng, p)
        Minv = _m2_inv(M, p)
        images = {}
        for g in range(1, sh.r + 1):
            lower = (rng.randrange(1, p), 0, rng.randrange(p), rng.randrange(1, p))
            images[g] = _m2_mul(_m2_mul(M, lower, p), Minv, p)
        inst = SpecializedInstance(
            shape=sh,
            p=p,
            seed=0,
            rho_images=images,
            chi={g: rng.randrange(1, p) for g in images},
            psi={g: rng.randrange(1, p) for g in images},
            places={},
            eps=[],
            delta={},
            alpha={},
        )
        assert rank(_coefficient_matrix(inst), GF(p)) <= 3
