"""Formal-ring side of a relation shape: the auxiliary matrices, the
relation ideals, and the symbolic identity checks.

For a shape with r generators the formal ring carries

    nu_1..nu_r                     trace shifts
    eps_k_1..eps_k_r               one block per TypeI row
    delta_i_j_1..delta_i_j_r       one block per TypeII row (i, j)
    x_g                            one per generator in some B_v, v != v0
    a_i, b_i, c_i, d_i             generic matrix entries

with b_sigma for sigma in B_{v0} deleted outright: the quotient by
(b_sigma) is realized by never creating the variable, and every formula
reads those entries as the zero polynomial.

The auxiliary square matrix E has t place columns, then r generator
columns, then s bookkeeping columns (RibetShape.place_columns gives the
column of each place v != v0).  Its first t rows carry a unit in the
column of the dedicated generator sigma_v; then come the relation rows:
eps or delta coefficients across the generator columns for TypeI and
TypeII rows, a unit in the dedicated generator's column for TypeIII,
IV and V rows.  Each place entry (the place diagonal of the first t
rows, and the place column of a TypeIV or TypeV row) is x_g + nu_g.

E' is E plus the determinant-killing alterations: each place entry
becomes x_g - a_g, and each TypeII row (i, j) loses a_i + nu_i in
column j and d_j in column i.  D is the lower-right (r+s) block of E.
auxiliary_matrices lays all three out once, from a table of entry
values: the formal entries here, an instance's values in
specialize._assemble_matrices, which states the three entries of E
where the two differ by design.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product as iproduct

from ..borel import TauAction
from ..errors import StructuralError
from ..exactpoly import QQ, CoefficientRing, Polynomial, VariableTable
from ..genmat import Mat2
from ..groebner import (
    Budget,
    DEFAULT_BUDGET,
    FreeModuleMatrix,
    IdealSpec,
    in_ideal,
)
from .shapes import RibetShape, shape_r2_two_type2


@dataclass(frozen=True)
class FormalRing:
    """Variable table and accessors for one shape.

    ``keys`` maps each variable's key, (kind, indices...), to its column
    in ``table``; the table names a variable by its kind followed by its
    indices joined by "_" (nu1, eps1_2, delta1_2_3, x3, a1).

    Each variable, the auxiliary matrices (``matrices``) and the relation
    ideals (``ideals``) are built once, on first use, and kept on the
    ring.  ``formal_ring`` hands out one ring per (shape, coefficient
    ring), so every check in a process shares that construction."""

    shape: RibetShape
    ring: CoefficientRing = QQ
    table: VariableTable = field(init=False)
    keys: dict[tuple, int] = field(init=False)
    _vars: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        shape = self.shape
        gens = range(1, shape.r + 1)
        deleted = set(shape.b_v0())
        keys = [("nu", i) for i in gens]
        keys += [("eps", k, i) for k in range(1, shape.type_i_count() + 1) for i in gens]
        keys += [("delta", i, j, k) for (i, j) in shape.type_ii_pairs() for k in gens]
        keys += [("x", g) for g in shape.x_bearing()]
        keys += [(tag, i) for i in gens for tag in "abcd" if not (tag == "b" and i in deleted)]
        object.__setattr__(self, "keys", {key: n for n, key in enumerate(keys)})
        object.__setattr__(self, "table", VariableTable(
            [kind + "_".join(map(str, indices)) for kind, *indices in keys],
            ["x_sigma" if kind == "x" else kind for kind, *_ in keys],
        ))

    @functools.cached_property
    def matrices(self) -> "FormalMatrices":
        return _build_matrices(self)

    @functools.cached_property
    def ideals(self) -> "FormalIdeals":
        return _build_ideals(self)

    # -- variable accessors ---------------------------------------------
    def _v(self, *key) -> Polynomial:
        v = self._vars.get(key)
        if v is None:
            v = self._vars[key] = Polynomial.var(self.ring, self.table, self.keys[key])
        return v

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.ring, self.table)

    def one(self) -> Polynomial:
        return Polynomial.one(self.ring, self.table)

    def nu(self, i: int) -> Polynomial:
        return self._v("nu", i)

    def eps(self, block: int, i: int) -> Polynomial:
        return self._v("eps", block, i)

    def delta(self, i: int, j: int, k: int) -> Polynomial:
        return self._v("delta", i, j, k)

    def x(self, g: int) -> Polynomial:
        return self._v("x", g)

    def a(self, i: int) -> Polynomial:
        return self._v("a", i)

    def b(self, i: int) -> Polynomial:
        if ("b", i) not in self.keys:
            return self.zero()
        return self._v("b", i)

    def c(self, i: int) -> Polynomial:
        return self._v("c", i)

    def d(self, i: int) -> Polynomial:
        return self._v("d", i)

    def rho(self, i: int) -> Mat2:
        return Mat2(self.a(i), self.b(i), self.c(i), self.d(i))

    def b_prime(self, g: int) -> Polynomial:
        return self.x(g) - self.a(g)

    def c_prime(self, g: int) -> Polynomial:
        return self.x(g) - self.d(g)


def formal_ring(shape: RibetShape, ring: CoefficientRing = QQ) -> FormalRing:
    """The FormalRing of (shape, ring), shared by every caller in the
    process: built on the first call and kept in a bounded cache keyed by
    the shape's value and the ring's (kind, p), so a copied shape or a
    GF(p) made anew finds the same entry."""
    return _formal_ring(shape, ring)


@functools.lru_cache(maxsize=16)
def _formal_ring(shape: RibetShape, ring: CoefficientRing) -> FormalRing:
    return FormalRing(shape, ring)


# ---------------------------------------------------------------------------
# Symbolic determinants: cofactor expansion over column subsets, skipping
# zero entries (the matrices here are sparse by construction).

def symbolic_det(M: FreeModuleMatrix) -> Polynomial:
    n = M.rows
    if n != M.cols:
        raise StructuralError("determinant needs a square matrix")
    probe = M.entries[0][0]
    ring, table = probe.ring, probe.table
    if n == 0:
        return Polynomial.one(ring, table)
    minors: dict[int, Polynomial] = {0: Polynomial.one(ring, table)}
    for row in range(n):
        nxt: dict[int, Polynomial] = {}
        for mask, val in minors.items():
            cols = [c for c in range(n) if not (mask >> c) & 1]
            for pos, c in enumerate(cols[: n - row]):
                e = M.entries[row][c]
                if e.is_zero():
                    continue
                term = val * e if pos % 2 == 0 else -(val * e)
                key = mask | (1 << c)
                if key in nxt:
                    nxt[key] = nxt[key] + term
                else:
                    nxt[key] = term
        minors = nxt
    full = (1 << n) - 1
    return minors.get(full, Polynomial.zero(ring, table))


# ---------------------------------------------------------------------------
# Matrix builders.

@dataclass(frozen=True)
class FormalMatrices:
    """E, E' and D of one shape; det E and det E' are computed on first
    use and kept."""

    ring: FormalRing
    D: FreeModuleMatrix
    E: FreeModuleMatrix
    Eprime: FreeModuleMatrix

    @functools.cached_property
    def det_E(self) -> Polynomial:
        return symbolic_det(self.E)

    @functools.cached_property
    def det_Eprime(self) -> Polynomial:
        return symbolic_det(self.Eprime)


def build_matrices(shape: RibetShape, ring: CoefficientRing = QQ) -> FormalMatrices:
    """The formal auxiliary matrices E, E' and the relation block D of
    (shape, ring), built once per process (see ``formal_ring``)."""
    return formal_ring(shape, ring).matrices


def auxiliary_matrices(shape: RibetShape, zero, one, entries: dict) -> tuple[list, list, list]:
    """E, E' and D of ``shape`` as lists of rows, from ``entries``, which
    maps each role to the function giving its values:

        "P"       g        generator block of the P row whose sigma_v is g
        "I"       k        generator block of the k-th TypeI row
        "II"      i, j     generator block of the TypeII row (i, j)
        "place"   kind, g  E's place entry in a row of kind "P", "IV" or "V"
        "place'"  g        E''s place entry, x_g - a_g
        "II'"     i, j     (a_i + nu_i, d_j), taken off the TypeII row
                           (i, j) of E' in columns j and i

    A TypeIII, IV or V row holds ``one`` in its dedicated generator's
    column.  E is filled first; E' is a copy of E with the alterations
    applied; D is the lower-right (r+s) block of E."""
    t, r = shape.t, shape.r
    n = t + r + shape.s
    cols = shape.place_columns()
    E = [[zero] * n for _ in range(n)]
    place_entries = []  # (row, column, generator)
    for k, v in enumerate(shape.p_places):
        g = shape.sigma_v[v]
        E[k][t:t + r] = entries["P"](g)
        E[k][k] = entries["place"]("P", g)
        place_entries.append((k, k, g))
    type_i_seen = 0
    for ri, row in enumerate(shape.rows, start=t):
        if row.kind == "I":
            type_i_seen += 1
            E[ri][t:t + r] = entries["I"](type_i_seen)
        elif row.kind == "II":
            E[ri][t:t + r] = entries["II"](row.i, row.j)
        else:
            E[ri][t + row.sigma - 1] = one
            if row.place is not None:
                E[ri][cols[row.place]] = entries["place"](row.kind, row.sigma)
                place_entries.append((ri, cols[row.place], row.sigma))

    Ep = [list(row) for row in E]
    for ri, col, g in place_entries:
        Ep[ri][col] = entries["place'"](g)
    for ri, row in enumerate(shape.rows, start=t):
        if row.kind == "II":
            at_j, at_i = entries["II'"](row.i, row.j)
            Ep[ri][t + row.j - 1] -= at_j
            Ep[ri][t + row.i - 1] -= at_i
    return E, Ep, [row[t:] for row in E[t:]]


def _build_matrices(F: FormalRing) -> FormalMatrices:
    gens = range(1, F.shape.r + 1)
    zero, one = F.zero(), F.one()
    E, Ep, D = auxiliary_matrices(F.shape, zero, one, {
        "P": lambda g: [one if i == g else zero for i in gens],
        "I": lambda k: [F.eps(k, i) for i in gens],
        "II": lambda i, j: [F.delta(i, j, k) for k in gens],
        "place": lambda kind, g: F.x(g) + F.nu(g),
        "place'": F.b_prime,
        "II'": lambda i, j: (F.a(i) + F.nu(i), F.d(j)),
    })
    return FormalMatrices(F, FreeModuleMatrix(D), FreeModuleMatrix(E), FreeModuleMatrix(Ep))


# ---------------------------------------------------------------------------
# Relation ideals.

@dataclass(frozen=True)
class RelationQuadruple:
    """One adjoint quadruple of relation coefficients.

    ``origin`` is ("row", row_index) for TypeI/TypeII relations or
    ("pair", place, sigma, tau) for the local relations of e:b4 shape.
    """

    origin: tuple
    matrix: Mat2


@dataclass(frozen=True)
class FormalIdeals:
    ring: FormalRing
    J: IdealSpec
    Jprime: IdealSpec
    I_R: IdealSpec
    quadruples: tuple[RelationQuadruple, ...]


def relation_quadruples(F: FormalRing) -> tuple[RelationQuadruple, ...]:
    shape = F.shape
    out: list[RelationQuadruple] = []
    type_i_seen = 0
    for rownum, row in enumerate(shape.rows):
        if row.kind == "I":
            type_i_seen += 1
            acc = Mat2.zero(F.ring, F.table)
            for i in range(1, shape.r + 1):
                acc = acc + F.eps(type_i_seen, i) * F.rho(i)
            out.append(RelationQuadruple(("row", rownum), acc))
        elif row.kind == "II":
            i, j = row.i, row.j
            acc = F.rho(i).add_scalar(F.nu(i)) * F.rho(j)
            for k in range(1, shape.r + 1):
                acc = acc - F.delta(i, j, k) * F.rho(k)
            out.append(RelationQuadruple(("row", rownum), acc))
    for v in shape.outer_places:
        bs = shape.b_set(v)
        for idx, sigma in enumerate(bs):
            for tau in bs[idx + 1 :]:
                A = F.b(sigma) * F.c(tau) - F.c_prime(tau) * F.b_prime(sigma)
                B = F.b(sigma) * F.b_prime(tau) - F.b(tau) * F.b_prime(sigma)
                C = F.c(sigma) * F.c_prime(tau) - F.c(tau) * F.c_prime(sigma)
                Dm = F.b(tau) * F.c(sigma) - F.c_prime(sigma) * F.b_prime(tau)
                out.append(RelationQuadruple(("pair", v, sigma, tau), Mat2(A, B, C, Dm)))
    return tuple(out)


def build_ideals(shape: RibetShape, ring: CoefficientRing = QQ) -> FormalIdeals:
    """The relation ideal J (all four coefficients of every relation),
    its b-coefficient subideal J', and I_R = (a_i + nu_i, b_i, c_i, d_i)
    of (shape, ring), built once per process (see ``formal_ring``)."""
    return formal_ring(shape, ring).ideals


def _build_ideals(F: FormalRing) -> FormalIdeals:
    shape = F.shape
    quads = relation_quadruples(F)
    j_gens: list[Polynomial] = []
    jp_gens: list[Polynomial] = []
    for q in quads:
        j_gens.extend(q.matrix.entries())
        jp_gens.append(q.matrix.b)
    ir_gens: list[Polynomial] = []
    for i in range(1, shape.r + 1):
        ir_gens.append(F.a(i) + F.nu(i))
        bi = F.b(i)
        if not bi.is_zero():
            ir_gens.append(bi)
        ir_gens.append(F.c(i))
        ir_gens.append(F.d(i))
    return FormalIdeals(
        F,
        J=IdealSpec(j_gens),
        Jprime=IdealSpec(jp_gens),
        I_R=IdealSpec(ir_gens),
        quadruples=quads,
    )


# ---------------------------------------------------------------------------
# Identity checks.

def element_e(shape: RibetShape, matrices: FormalMatrices | None = None) -> Polynomial:
    """e = det(E') - det(E), from the determinants ``matrices`` keeps;
    asserts e lies in I_R, the kernel of ``_quotient_map``, that is, that
    the map sends e to 0."""
    mats = matrices or build_matrices(shape)
    e = mats.det_Eprime - mats.det_E
    if not e.substitute(_quotient_map(mats.ring)).is_zero():
        raise StructuralError("det(E') - det(E) escaped I_R")
    return e


def example_r2_target(F: FormalRing) -> Polynomial:
    """The closed-form combination the r=2 difference must reduce to:
    (t1 + nu1) delta211 + (t2 + nu2) delta122
    - (t12 + t1 nu2 + t2 nu1 + nu1 nu2)."""
    t1 = F.rho(1).trace()
    t2 = F.rho(2).trace()
    t12 = (F.rho(1) * F.rho(2)).trace()
    return (
        (t1 + F.nu(1)) * F.delta(2, 1, 1)
        + (t2 + F.nu(2)) * F.delta(1, 2, 2)
        - (t12 + t1 * F.nu(2) + t2 * F.nu(1) + F.nu(1) * F.nu(2))
    )


def check_example_r2(
    ring: CoefficientRing = QQ,
    omit_relation: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """The r=2 worked identity: det(E') - det(E) minus its closed form
    reduces to 0 modulo the eight TypeII coefficient relations.

    ``omit_relation`` drops one of the eight generators (0..7) to turn
    the check into its negative control.
    """
    shape = shape_r2_two_type2()
    mats = build_matrices(shape, ring)
    F = mats.ring
    ideals = build_ideals(shape, ring)
    gens = list(ideals.J.generators)
    assert len(gens) == 8
    if omit_relation is not None:
        gens = [g for k, g in enumerate(gens) if k != omit_relation]
    target = mats.det_Eprime - mats.det_E - example_r2_target(F)
    return in_ideal(target, IdealSpec(gens), budget)


def check_e_tau_invariance(
    shape: RibetShape,
    ring: CoefficientRing = QQ,
    budget: Budget = DEFAULT_BUDGET,
    drop_pair_generator: bool = False,
) -> bool:
    """tau_x(det E') - det E' lies in J'.R[x].

    ``drop_pair_generator`` removes the first local B(sigma, tau)
    generator from J' (negative control for shapes with places).
    """
    mats = build_matrices(shape, ring)
    ideals = build_ideals(shape, ring)
    jp = list(ideals.Jprime.generators)
    if drop_pair_generator:
        pair_bs = [q.matrix.b for q in ideals.quadruples if q.origin[0] == "pair"]
        if not pair_bs:
            raise StructuralError("shape has no local pair generator to drop")
        jp = [g for g in jp if g != pair_bs[0]]
    det_ep = mats.det_Eprime
    act = TauAction(mats.ring.table)
    diff = act.apply(det_ep) - det_ep.lift(act.table)
    if diff.is_zero():
        return True
    return in_ideal(diff, IdealSpec([g.lift(act.table) for g in jp]), budget)


def _quotient_map(F: FormalRing) -> dict[int, Polynomial]:
    """a_i -> -nu_i and b_i, c_i, d_i -> 0: R onto its other variables, with kernel I_R."""
    return {
        col: -F.nu(*indices) if kind == "a" else F.zero()
        for (kind, *indices), col in F.keys.items()
        if kind in ("a", "b", "c", "d")
    }


def quotient_presentation_images(ideals: FormalIdeals) -> list[Polynomial]:
    """Images of the J generators under ``_quotient_map``."""
    mapping = _quotient_map(ideals.ring)
    return [g.substitute(mapping) for g in ideals.J.generators]


def check_quotient_presentation(shape: RibetShape) -> bool:
    """The substituted J generators must equal, up to sign and
    redundancy, the expected quotient-ideal generators:

        sum_i eps_i nu_i            per TypeI row
        sum_k delta_ijk nu_k        per TypeII row
        (x_sigma + nu_sigma) x_tau  per ordered pair sigma != tau in B_v
    """
    ideals = build_ideals(shape)
    F = ideals.ring
    images = {_sign_canonical(p) for p in quotient_presentation_images(ideals) if not p.is_zero()}

    expected: set[Polynomial] = set()
    type_i_seen = 0
    for row in shape.rows:
        if row.kind == "I":
            type_i_seen += 1
            acc = F.zero()
            for i in range(1, shape.r + 1):
                acc = acc + F.eps(type_i_seen, i) * F.nu(i)
            expected.add(_sign_canonical(acc))
        elif row.kind == "II":
            acc = F.zero()
            for k in range(1, shape.r + 1):
                acc = acc + F.delta(row.i, row.j, k) * F.nu(k)
            expected.add(_sign_canonical(acc))
    for v in shape.outer_places:
        bs = shape.b_set(v)
        for sigma, tau in iproduct(bs, bs):
            if sigma == tau:
                continue
            expected.add(_sign_canonical((F.x(sigma) + F.nu(sigma)) * F.x(tau)))
    return images == expected


def _sign_canonical(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    _, c = p.leading_term()
    if p.ring.kind != "GF" and c < 0:
        return -p
    return p


# ---------------------------------------------------------------------------
# Trace/determinant generator set for the invariant subring.

def build_A_generators(
    shape: RibetShape,
    maxlen: int,
    ring: CoefficientRing = QQ,
    formal: FormalRing | None = None,
) -> list[tuple[str, Polynomial]]:
    """Labelled generators of the invariant subring: traces and
    determinants of words of length <= maxlen in the generic matrices
    (with deleted b-variables read as 0), the d_sigma for sigma in
    B_{v0}, and the shifted forms tr(word) - V(word) that land in I_R."""
    if maxlen < 1:
        raise StructuralError("maxlen must be at least 1")
    F = formal or formal_ring(shape, ring)
    out: list[tuple[str, Polynomial]] = []
    for length in range(1, maxlen + 1):
        for letters in iproduct(range(1, shape.r + 1), repeat=length):
            word = ".".join(f"X{i}" for i in letters)
            mat = None
            for i in letters:
                mat = F.rho(i) if mat is None else mat * F.rho(i)
            v = F.one()
            for i in letters:
                v = v * (-F.nu(i))
            out.append((f"tr({word})", mat.trace()))
            out.append((f"det({word})", mat.det()))
            out.append((f"tr({word})-V", mat.trace() - v))
    for sigma in shape.b_v0():
        out.append((f"d{sigma}", F.d(sigma)))
    return out
