"""Buchberger Groebner engine: normal forms, ideal membership, ideal
quotients, and module syzygies.

This is the proof oracle for every "lies in the ideal" claim in the
package.  Ideal bases come from a signature loop (below).  A Buchberger
loop, with the normal pair-selection strategy (minimal lcm) and the
product and chain criteria (Gebauer & Moeller, JSC 1988), serves
submodules of free modules and syzygies, and re-checks a basis in
``check`` mode, which trusts none of the signature criteria.  Both loops
reduce each S-polynomial by the basis records ordered by tail length,
shortest first, ties in the order they were added: a short reducer adds
few terms per step.  One reduction loop, ``_Engine.reduce``, serves both
coefficient cores and every division in the package; the cores differ
only in the step taken once per reducer hit.  Over the rationals the
loop runs on integer coefficients with gcd-scaled pseudo-reduction,
which avoids per-operation Fraction overhead, and returns the
accumulated scale factor with the remainder.  Over GF(p) a hit multiplies by the inverse
of the reducer's leading coefficient, and coefficients are reduced mod p
lazily, when their term reaches the head of the loop.

Packed monomials (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  Inside the
engine a monomial is one int made of equal-width fields, from most
significant to least:

    [C - c][c][order rows][exponents, one guard bit each][total degree]

The monomial order is degrevlex, and its rows are the total degree, then
the partial sums x1 + .. + xk for k = n - 1 down to 1: with the degree
tied, a larger sum up to xk means a smaller x(k+1), the reverse
lexicographic tie-break.  Every field is linear in the exponents, so
the product of two monomials is ``a + b``, the monomial order is ``<``
on ints, ``a | b`` iff ``((b | G) - a) & G == G`` (G the guard bits),
and the degree-cap check reads the bottom field.  Linearity also gives
the lcm of two leads sparsely.  Each lead keeps its nonzero exponents as
(variable, exponent) pairs, at most k of them for degree k, and the lcm
of lead i with a new lead is the new packed lead plus (e - e_new[v])
times the packed unit of v, over the pairs (v, e) of lead i with
e > e_new[v]: bit for bit the packed exponent-wise max, from a few terms
instead of one per variable.  The field width comes
from ``Budget.max_degree`` and the largest input degree: the value bits
hold every field of a monomial the engine keeps, so the sum of two never
carries into a neighbouring field.  Two degrees that no cap bounds are
checked, and the computation restarts with wider fields if one would
not fit: a signature of the signature loop, and an S-polynomial term
from the tail of a module element, which under position over term can
outweigh its lead.

Polynomials enter the engine only through ``_lift``, which moves ZZ to
QQ and requires one field of them all: each entry point lifts its
generators and targets together, once.  ``_Engine.pack`` then packs a
module element or a scalar passed as ``[f]`` and over QQ scales it to
integers by the lcm of its denominators.  Results leave only through
``_Engine.to_vector``, which divides by that denominator times the
scale ``reduce`` returned, for the exact value, or by default by the
leading coefficient, for a monic one.  Targets are reduced through
``_Engine.divide``, which does both.  ``_Packer.from_key`` and
``to_key`` convert a monomial from and to exactpoly's packed layout.

Reducer sets.  ``reduce`` tries records in list order: a term is
reduced by the first record whose lead divides it and, in the signature
loop, whose signature times the multiplier is below the S-polynomial's.
Both pair loops keep plain lists in tail-length order, kept by
``bisect.insort``, which puts a record after those of its tail length,
and scan them.  Every other set (``_reduced_basis``, ``divide`` and the
membership batches) is a ``reducers.Reducers``, unsigned records in the
order they were added, only ever appended to; the closing certificate
scans a plain list.  The scan tests the leads one by one, and an
irreducible term costs a test per record, so a large ``Reducers`` finds
the same record through a support index (``reducers``; Roune & Stillman
below call divisor queries the dominant cost of a signature engine).
The signature loop asks the same index its own divisor queries, over the
leads of its earlier phases (``reducers.EarlierLeads``).  The selection,
for both: a set of at least 32 records in a ring of at least 8
variables, and for ``Reducers`` a full reduction; everything else scans.
Measurements are in the ``reducers`` docstring.

Modules.  The two guarded fields on top hold a module element's
component c of a rank-C module, as C - c and c; scalars have neither.
With C - c on top the order is position over term, component 0 largest.
Divisibility needs both fields of the divisor to fit under the
multiple's, so it forces equal components, and S-pairs are only formed
within one component.  Neither field adds to the degree.  The chain
criterion holds for modules as it does for ideals.  The product
criterion does not, but it never fires: the sum of two leads of
component c has component fields (2(C - c), 2c), which no lcm has.

Syzygies use the elimination variant of the extended-Buchberger
construction: augment each column with a unit bookkeeping component,
run the loop under the position-over-term order, in which the column
components dominate, and read off the basis elements whose leading
component is a bookkeeping one.  Module bases are neither minimalized
nor interreduced, since the syzygies returned are exactly these
elements (interreducing would change their number, for R(f) 2x4 from 12
to 4); instead each new element is reduced in full as it is added, and
every one of its terms is checked against the degree cap, since a
module order is not degree-compatible.

The ideal quotient I : f is read off the syzygies of (f, g_1, .., g_k),
the generators g_i of I: their first coordinates generate it (Cox,
Little & O'Shea, "Ideals, Varieties, and Algorithms", 4.4).  The lift
carries a cofactor of every g_i, so on some inhomogeneous inputs it
needs degrees far above those of the quotient's generators.

The signature loop (Faugere, "A new efficient algorithm for computing
Groebner bases without reduction to zero (F5)", ISSAC 2002; Gao, Volny
& Wang, "A new framework for computing Groebner bases", Math. Comp.
2016; Roune & Stillman, "Practical Groebner basis computation", ISSAC
2012; Eder & Faugere, "A survey on signature-based algorithms for
computing Groebner bases", JSC 2017).  An element g of the ideal of
f_1 .. f_m has the signature t e_i when g = sum h_j f_j with h_j = 0
for j > i and lm(h_i) = t, the least such; signatures compare position
over term, index first.  The inputs are taken one phase at a time, in
increasing lead degree, then fewest terms first, ties in input order.
The order changes the work, never the reduced basis (Eder & Faugere):
on J(sigma-v0-type3) this one forms 8,923 pairs where the order as
given forms 24,298.
Phase i starts from a basis of the ideal of the earlier inputs, whose
records reduce without restriction, and f_i with signature e_i; the
signature t e_i of each element of the phase is kept in its record as
the packed monomial t.  Pairs are processed in increasing signature, the
signature of a pair being the larger of the signatures of its two
multiples (a pair whose two are equal is dropped).  An S-polynomial
is reduced regularly: a record reduces a term only when its signature
times the multiplier is below the S-polynomial's, so the result keeps
its signature.  A pair is skipped when
  - F5: the lead of an element g = sum h_j f_j of the earlier phases
    divides its monomial t (then t e_i is the signature of a multiple
    of the syzygy g e_i - f_i sum h_j e_j).  The lead of the pair's
    earlier-phase element is tried first: it divides t exactly when its
    gcd with the new lead divides the signature.  A pair of coprime
    leads, one of the earlier phases, is pruned by that lead, so on an
    indexed phase such pairs are counted in bulk, never visited;
  - syzygy: the signature of a zero reduction divides its signature;
  - rewrite (Roune & Stillman): an element c of the phase whose
    signature divides it rewrites the pair's element a, that is
    lm(c) sig(a) < lm(a) sig(c), ties going to the later element, so
    that the multiple of c has the smaller lead;
  - one per signature: a pair of the same signature was reduced.
A result that is singular top-reducible, whose lead is a multiple of an
element's of the phase by the same monomial as its signature, adds
nothing and is dropped; with the rewrite order above this is sound.
With "latest element first" it is not: J(sigma-v0-type3) then ends with
85 elements that are no Groebner basis, against the 102 of its
reduced basis.  When a phase ends, every element whose lead another's
divides is dropped, and the rest, untouched, start the next phase:
tail-reducing them (F5C) cost more than it saved on the larger d-bases.
The reductions to zero, almost all the work of a Buchberger loop on the
near-complete intersections J, are what these criteria skip.  A
signature whose degree the packed fields cannot hold restarts the
computation with wider fields, as an S-polynomial tail does.

Homogeneous membership (Becker & Weispfenning, "Groebner Bases", 1993,
on d-bases; Kreuzer & Robbiano, "Computational Commutative Algebra 2",
2005, ch. 4).  When every generator is homogeneous, every S-polynomial
and every remainder is homogeneous, of the degree of its pair's lcm.
Pairs whose lcm has degree above d cannot change the basis in degrees
up to d, so the loop run over the pairs of degree at most d leaves a
d-basis: its leading terms generate those of the ideal in every degree
up to d.  The bound is applied when a pair is formed, so a pair above it
is never queued or recorded as pending.  The chain criterion decides as
it would with every pair formed: for a pair (i, j) it only asks whether
pairs (i, k) and (j, k) with lead k dividing lcm(i, j) are pending, and
their lcms divide lcm(i, j), so they are at most d in degree and were
formed.  The signature loop obeys the same bound: for homogeneous
inputs every signature, S-polynomial and reducer multiple met in degree
k is of degree k, so its criteria only consult what was computed in
degrees up to k.  A homogeneous f of degree d then lies in the ideal
exactly when it reduces to zero against that d-basis, in both
directions, and so does one of lower degree.  ``_ideal_contains_all``
decides every membership question this way, a batch on one basis
truncated at its largest degree, unless a target or generator is
inhomogeneous; then on the reduced basis.  ``_ideal_basis`` builds
both, and every ``buchberger`` basis, and certifies a reduced basis by
reducing the generators to zero against it.

Budgets: every reduction step, and every pair the signature loop
forms, counts against ``Budget.max_steps`` (on a large ideal that
loop's pair criteria cost more than its reductions), one counter per
call, which its widening restarts share, and monomials are checked
against ``Budget.max_degree``.  Exceeding either raises
:class:`BudgetExceeded` -- a resource report, never a wrong answer.

The input types ``IdealSpec``, ``FreeModuleMatrix`` and ``Budget`` live
in ``algebra``, which does not load the engine; they are re-exported here.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .algebra import DEFAULT_BUDGET, Budget, FreeModuleMatrix, IdealSpec, _Counter
from .errors import BudgetExceeded, StructuralError
from .exactpoly import (
    DEGREE_MASK,
    NEG_INF,
    QQ,
    CoefficientRing,
    Mono,
    Polynomial,
    mono_from_fields,
    mono_pairs,
)
from .reducers import EarlierLeads, Reducers


# ---------------------------------------------------------------------------
# Packed monomials.

class _FieldOverflow(Exception):
    """An S-polynomial term has a degree beyond the packer's room."""

    def __init__(self, room: int):
        super().__init__(f"monomial degree exceeds the packed field room {room}")
        self.room = room


class _Packer:
    """One int per monomial for a fixed variable count and degree.

    Fields are ``bits`` value bits plus one guard bit wide.  ``room`` is
    the largest total degree whose every field fits in the value bits;
    it is at least ``degree``.  For a module of rank ``components`` > 0,
    ``components[c]`` is added to a packed monomial to put it in
    component c; everything from bit ``top`` up is the component.
    """

    def __init__(self, nvars: int, degree: int, components: int = 0):
        # A row is a sum of exponents, so it is at most the degree.
        self.bits = max(1, degree.bit_length(), components.bit_length())
        self.room = (1 << self.bits) - 1
        stride = self.bits + 1
        self.deg_mask = (1 << stride) - 1
        self.shifts = [stride * (1 + i) for i in range(nvars)]
        # The degrevlex rows, from the top: the total degree, then the
        # partial sums x1..x(k), k = n-1..1, so the variable of index i
        # counts in the top n - i rows.
        top = self.top = stride * (1 + 2 * nvars)
        self.units = [
            1 + (1 << self.shifts[i]) + sum(1 << (top - stride * r) for r in range(1, nvars - i + 1))
            for i in range(nvars)
        ]
        # Component c of a rank-C module: the fields (C - c) and c.  A
        # scalar is component 0 of a module with neither field.
        self.components = [((components - c) << (top + stride)) + (c << top) for c in range(components or 1)]
        guarded = self.shifts + ([top, top + stride] if components else [])
        self.guard = sum(1 << (s + self.bits) for s in guarded)
        self.monomial_mask = (1 << (stride * (nvars + 1))) - 1  # the degree and exponent fields

    def unpack(self, x: int) -> Mono:
        mask = self.deg_mask
        return tuple((x >> s) & mask for s in self.shifts)

    def lcm(self, x: int, exps: Mono, support: Iterable[tuple[int, int]]) -> int:
        """The packed lcm of the packed monomial ``x``, whose exponent
        tuple is ``exps``, and the monomial of ``x``'s component whose
        nonzero exponents are the (variable, exponent) pairs ``support``.
        Packing is linear, so this is the packed exponent-wise max plus
        the component, from the few variables where the other monomial
        is larger."""
        units = self.units
        for v, e in support:
            if e > exps[v]:
                x += (e - exps[v]) * units[v]
        return x

    def component(self, x: int) -> int:
        return (x >> self.top) & self.deg_mask

    def from_key(self, m: int) -> int:
        """The packed monomial of a ``Polynomial`` key."""
        units = self.units
        x = 0
        for i, e in mono_pairs(m):
            x += e * units[i]
        return x

    def to_key(self, x: int) -> int:
        """The ``Polynomial`` key of the packed monomial ``x``."""
        return mono_from_fields(x & self.monomial_mask, self.bits + 1)


def _max_degree(polys: Sequence[Polynomial]) -> int:
    return max((m & DEGREE_MASK for f in polys for m in f._terms), default=0)


def _strip_content(terms: dict) -> dict:
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return terms
    if g in (0, 1):
        return terms
    return {m: c // g for m, c in terms.items()}


# ---------------------------------------------------------------------------
# The engine: packed monomials with one of the two coefficient cores.
#
# A record is (lead, lc, terms, tail, tail_degree, signature): the packed
# leading monomial, its coefficient (over GF(p) the inverse mod p), the
# packed term dict, the other terms as a list, their highest total degree
# (-inf when there are none: a monomial reducer forms no product), and the
# packed signature monomial of an element of the running phase of the
# signature loop, None for every other record.

class _Engine:
    """Coefficient core (ZZ pseudo-arithmetic, or GF(p) when p != 0) over
    packed monomials."""

    def __init__(self, ring: CoefficientRing, nvars: int, degree: int, components: int = 0):
        self.ring = ring
        self.p = ring.p if ring.kind == "GF" else 0
        self.packer = _Packer(nvars, degree, components)

    def pack(self, v: Sequence[Polynomial]) -> tuple[dict, int]:
        """The packed term dict of the module element with v[c] in
        component c (a scalar f is passed as ``[f]``), and the denominator
        it was scaled by: over QQ the lcm of the denominators of all its
        coefficients, so that the packed coefficients are integers; over
        GF(p), 1."""
        from_key, units = self.packer.from_key, self.packer.components
        terms = {from_key(m) + units[c]: x for c, f in enumerate(v) for m, x in f._terms.items()}
        if self.p:
            return terms, 1
        denom = lcm(*(x.denominator for x in terms.values()))
        return {m: int(x * denom) for m, x in terms.items()}, denom

    def to_vector(self, terms: dict, table, first: int = 0, count: int = 1, divisor=None) -> list[Polynomial]:
        """Components first .. first+count-1 of a packed element, divided
        by ``divisor`` over the engine's field: by default the leading
        coefficient, which makes the element monic; the ``k`` of
        ``divide`` gives its exact value.  A scalar is component 0 of 1."""
        to_key, component, p = self.packer.to_key, self.packer.component, self.p
        if divisor is None:
            divisor = terms[max(terms)]
        inv = pow(divisor, -1, p) if p else None
        parts: list[dict] = [{} for _ in range(count)]
        for m, c in terms.items():
            if p:
                c = c * inv % p
            else:  # QQ's canonical form: an int when integral
                q, r = divmod(c, divisor)
                c = Fraction(c, divisor) if r else q
            if c:
                parts[component(m) - first][to_key(m)] = c
        return [Polynomial._trusted(self.ring, table, t) for t in parts]

    def records(self, vectors: Iterable[Sequence[Polynomial]]) -> Reducers:
        """Reducer records of the nonzero elements among ``vectors``."""
        packed = (self.pack(v)[0] for v in vectors)
        return Reducers(self.packer, [self.record(t) for t in packed if t])

    def divide(self, v: Sequence[Polynomial], records: Reducers, counter: _Counter) -> tuple:
        """Pack ``v`` and fully reduce it by the records: (remainder, k)
        with k * v = (combination of the records) + remainder, k > 0."""
        terms, denom = self.pack(v)
        rem, scale = self.reduce(terms, records, counter)
        return rem, scale * denom

    def record(self, terms: dict, signature: int | None = None) -> tuple:
        if not self.p:
            terms = _strip_content(terms)
        lm = max(terms)
        lc = pow(terms[lm], -1, self.p) if self.p else terms[lm]
        tail = [(m, c) for m, c in terms.items() if m != lm]
        mask = self.packer.deg_mask
        return (lm, lc, terms, tail, max((m & mask for m, _ in tail), default=NEG_INF), signature)

    def reduce(
        self, terms: dict, reducers: list, counter: _Counter, signature: int | None = None
    ) -> tuple[dict, int]:
        """Pseudo-reduce a packed term dict by records: a ``Reducers``, or
        a list of records tried in order.

        Returns (remainder, scale) with scale > 0 and
        scale * input = (combination of reducers) + remainder.  Over GF(p)
        the scale is 1 and input coefficients may be any representatives:
        each is reduced mod p when its term is popped, and a term that
        vanishes mod p is dropped.  Without a ``signature`` the reduction
        is full.  With one it is the signature loop's regular head-only
        reduction: a record with a signature reduces a term only when its
        signature times the multiplier is below ``signature``, and the
        reduction stops once the leading term is irreducible, returning
        it with the untouched tail (module docstring).
        """
        if not terms or not reducers:
            return dict(terms), 1
        # A full reduction by a large set may find its reducers through the
        # set's support index; everything else scans (module docstring).
        find = reducers.finder() if signature is None and isinstance(reducers, Reducers) else None
        p = self.p
        guard = self.packer.guard
        mask = self.packer.deg_mask
        max_deg = counter.budget.max_degree
        heappush, heappop = heapq.heappush, heapq.heappop
        work = dict(terms)
        heap = [-m for m in work]  # heapq is a min-heap; negate for the largest first
        heapq.heapify(heap)
        remainder: dict[int, int] = {}
        scale = 1
        while heap:
            m = -heappop(heap)
            c = work.get(m)
            if c is None:
                continue
            if p:
                c %= p
                if not c:
                    del work[m]
                    continue
            if find is None:
                mg = m | guard
                for rec in reducers:
                    if (mg - rec[0]) & guard == guard and (rec[5] is None or rec[5] + m - rec[0] < signature):
                        break
                else:
                    rec = None
            else:
                rec = find(m)
            if rec is None:
                if signature is not None:  # head-only: nothing is in the remainder yet
                    return ({k: v % p for k, v in work.items() if v % p} if p else work), scale
                del work[m]
                remainder[m] = c
                continue
            counter.tick()
            del work[m]
            lm, lc, _, tail, tail_deg, _ = rec
            shift = m - lm
            if tail_deg + (shift & mask) > max_deg:
                raise BudgetExceeded("degree cap exceeded during reduction")
            # The coefficient step, once per hit: b * reducer cancels the head.
            if p:
                b = c * lc % p
            else:
                g0 = gcd(c, lc)
                a, b = lc // g0, c // g0
                if a < 0:
                    a, b = -a, -b
                if a != 1:
                    scale *= a
                    for part in (work, remainder):
                        for k in part:
                            part[k] *= a
            for mt, ct in tail:
                mm = mt + shift
                prev = work.get(mm)
                if prev is None:
                    work[mm] = -b * ct
                    heappush(heap, -mm)
                else:
                    v = prev - b * ct
                    if v:
                        work[mm] = v
                    else:
                        del work[mm]
        return remainder, scale

    def spoly(self, f: tuple, g: tuple, lcm: int, counter: _Counter) -> dict:
        """S-polynomial of two records whose leading monomials have the
        packed lcm ``lcm``; the leading terms cancel and are skipped."""
        mask = self.packer.deg_mask
        counter.check_degree(lcm & mask)
        mf, cf, _, ft, f_deg, _ = f
        mg, cg, _, gt, g_deg, _ = g
        uf, ug = lcm - mf, lcm - mg
        room = self.packer.room
        if f_deg + (uf & mask) > room or g_deg + (ug & mask) > room:
            raise _FieldOverflow(room)
        if self.p:
            a, b = cf, cg
        else:
            g0 = gcd(cf, cg)
            a, b = cg // g0, cf // g0
        out = {mt + uf: a * ct for mt, ct in ft}
        for mt, ct in gt:
            mm = mt + ug
            v = out.get(mm, 0) - b * ct
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
        return out


def _lift(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """The polynomials over one field, ZZ lifted to QQ: the engine's only
    way in (module docstring)."""
    lifted = []
    for g in gens:
        if g.ring.kind == "ZZ":
            g = g.change_ring(QQ)
        if not g.ring.is_field:
            raise StructuralError("Groebner engine needs field coefficients")
        lifted.append(g)
    ring = lifted[0].ring
    for g in lifted:
        if g.ring != ring:
            raise StructuralError("mixed coefficient rings")
    return lifted


def _lift_vectors(vectors: Sequence[Sequence[Polynomial]], rank: int) -> list[list[Polynomial]]:
    """``_lift`` of the entries of vectors of length ``rank``."""
    flat = _lift([e for v in vectors for e in v])
    return [flat[i : i + rank] for i in range(0, len(flat), rank)]


def _engine_for(lifted: Sequence[Polynomial], degree: int, components: int = 0) -> _Engine:
    """Engine for polynomials of one field (``_lift``) whose packed fields
    hold degree ``degree`` and every term of ``lifted``."""
    return _Engine(lifted[0].ring, len(lifted[0].table), max(degree, _max_degree(lifted)), components)


def _widening(degree: int, run):
    """``run(degree)``, retried with twice the room while it overflows."""
    while True:
        try:
            return run(degree)
        except _FieldOverflow as exc:
            degree = 2 * exc.room


@dataclass
class GroebnerBasis:
    """Reduced Groebner basis (monic over field coefficients)."""

    basis: tuple[Polynomial, ...]
    source: IdealSpec

    def normal_form(self, f: Polynomial, budget: Budget = DEFAULT_BUDGET) -> Polynomial:
        """Fully reduced remainder, exact over the basis field; zero iff f
        lies in the ideal."""
        return reduce_by(f, self.basis, budget)

    def verify(self, budget: Budget = DEFAULT_BUDGET) -> bool:
        """Re-check the defining invariants: every S-pair that the product
        and chain criteria keep reduces to 0 (``_buchberger``'s pair loop)
        and every source generator reduces to 0, in one engine with room
        for the sources' degree and under one step counter."""
        if not self.basis:
            return not self.source.generators
        lifted = _lift([*self.basis, *self.source.generators])
        basis, gens = lifted[: len(self.basis)], lifted[len(self.basis) :]
        counter = budget.fresh_counter()

        def run(degree: int) -> bool:
            eng = _engine_for(basis, degree)
            records = eng.records([g] for g in basis)
            if _buchberger(eng, [rec[2] for rec in records], counter, check=True) is None:
                return False
            return not any(eng.divide([g], records, counter)[0] for g in gens)

        return _widening(max(budget.max_degree, _max_degree(gens)), run)


def buchberger(spec: IdealSpec, budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal presented by ``spec`` (ZZ
    lifted to QQ), certified by ``_ideal_basis``."""
    if not spec.generators:
        return GroebnerBasis((), spec)
    eng, records, _ = _ideal_basis(_lift(spec.generators), budget)
    basis = tuple(eng.to_vector(rec[2], spec.table)[0] for rec in records)
    return GroebnerBasis(basis, spec)


def _ideal_basis(gens, budget: Budget, degree_bound=None, degree: int = 0) -> tuple:
    """(engine, records, counter) of a basis of the ideal of ``gens``,
    of one field (``_lift``), with room for degree ``degree``: the
    signature loop's d-basis under ``degree_bound`` d, else the reduced
    basis, largest lead first, certified by reducing every generator to
    zero against it (its elements are built from the generators)."""
    counter = budget.fresh_counter()

    def run(room: int):
        eng = _engine_for(gens, max(room, degree))
        inputs = [eng.pack([g])[0] for g in gens]
        records = _signature_basis(eng, inputs, counter, degree_bound)
        if degree_bound is not None:
            return eng, Reducers(eng.packer, records), counter
        records = _reduced_basis(eng, records, counter)  # a list: a few generators scan it
        if any(eng.reduce(t, records, counter)[0] for t in inputs):
            raise StructuralError("internal error: source generator escaped its ideal")
        return eng, Reducers(eng.packer, records), counter

    return _widening(budget.max_degree, run)


def _buchberger(
    eng: _Engine,
    inputs: list[dict],
    counter: _Counter,
    check: bool = False,
    degree_bound: int | None = None,
) -> list[tuple] | None:
    """Records of a Groebner basis of the packed inputs, in the order they
    were added: neither minimal nor interreduced.  S-polynomials are
    fully reduced by the records, shortest tail first (module docstring),
    and every term of a new element is checked against the degree cap.
    With ``check`` the inputs are taken for a basis: the first
    S-polynomial that does not reduce to zero returns None instead of
    being added.  With ``degree_bound`` d,
    a pair whose lcm has degree above d is never formed, which leaves a
    d-basis of homogeneous inputs, and with ``check`` re-checks one
    (module docstring)."""
    packer = eng.packer
    guard, mask, top = packer.guard, packer.deg_mask, packer.top
    # No lcm's degree field exceeds the mask, so without a bound every
    # pair is formed.
    bound = mask if degree_bound is None else degree_bound

    G: list[tuple] = []
    reducers: list[tuple] = []  # the records of G, shortest tail first
    leads: list[int] = []
    supports: list[list[tuple[int, int]]] = []  # the leads' (variable, exponent) pairs
    pair_heap: list = []
    pending: set[tuple[int, int]] = set()

    def add(terms: dict):
        rec = eng.record(terms)
        lm = rec[0]
        counter.check_degree(max(lm & mask, rec[4]))
        idx = len(G)
        e_new = packer.unpack(lm)
        position = lm >> top  # the module component; 0 for scalars
        for i, (lead, support) in enumerate(zip(leads, supports)):
            if lead >> top == position:  # pairs only within one component
                lcm = packer.lcm(lm, e_new, support)
                if lcm & mask <= bound:
                    heapq.heappush(pair_heap, (lcm, i, idx))
                    pending.add((i, idx))
        G.append(rec)
        insort(reducers, rec, key=_tail_length)
        leads.append(lm)
        supports.append(_support(e_new))

    for t in _distinct(inputs):
        add(t)

    while pair_heap:
        lcm, i, j = heapq.heappop(pair_heap)
        pending.discard((i, j))
        # Product criterion.  It is false for module elements, but cannot
        # fire on them: the sum has component fields (2(C-c), 2c), the lcm
        # (C-c, c).
        if lcm == leads[i] + leads[j]:
            continue
        lg = lcm | guard
        skip = False
        for k, lk in enumerate(leads):  # chain criterion, pending-pair form
            if (lg - lk) & guard == guard and k != i and k != j:
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = eng.spoly(G[i], G[j], lcm, counter)
        if not s:
            continue
        r, _ = eng.reduce(s, reducers, counter)
        if r:
            if check:
                return None
            add(r)
    return G


_SIGNATURE_COUNTS = ("pairs", "queued", "f5", "syzygy", "rewrite", "one-per-signature", "zero")


def _signature_basis(
    eng: _Engine, inputs: list[dict], counter: _Counter, degree_bound: int | None = None
) -> list[tuple]:
    """Records of a Groebner basis of the ideal of the packed scalar
    inputs, minimal but not interreduced: the signature loop of the
    module docstring, one phase per distinct nonzero input, in increasing
    lead degree, then fewest terms first, whatever order they are passed
    in.  With ``degree_bound`` d a pair whose lcm has degree above d is
    never formed, which leaves a d-basis of homogeneous inputs.  Each
    pair formed is charged one step.  ``counter.stats`` counts the pairs
    formed and queued, the pairs each criterion pruned (F5, syzygy,
    rewrite, one per signature) and the zero reductions."""
    packer = eng.packer
    guard, mask, room, units = packer.guard, packer.deg_mask, packer.room, packer.units
    bound = mask if degree_bound is None else degree_bound
    stats = counter.stats = counter.stats or dict.fromkeys(_SIGNATURE_COUNTS, 0)
    heappush, heappop = heapq.heappush, heapq.heappop

    prev: list[tuple] = []  # a basis of the ideal of the earlier phases
    support_of: dict[int, list] = {}  # each lead's (variable, exponent) pairs
    for f in sorted(_distinct(inputs), key=lambda t: (max(t) & mask, len(t))):
        # The running phase: signatures are the packed monomials t of
        # t e_i, for the phase's input f_i.  Every record of ``prev`` has
        # a smaller signature, so it reduces without restriction.
        basis = list(prev)
        first = len(prev)
        supports = [support_of[rec[0]] for rec in prev]
        earlier = EarlierLeads(packer, prev)  # the divisor queries on prev (reducers.py)
        reducers = sorted(prev, key=_tail_length)
        syzygies: list[int] = []  # signatures of the zero reductions
        pairs: list[tuple] = []

        def add(terms: dict, sig: int):
            rec = eng.record(terms, sig)
            lm = rec[0]
            counter.check_degree(lm & mask)
            exps = packer.unpack(lm)
            idx = len(basis)
            formed = f5 = queued = 0
            # The ids of the records to visit, and the bitset of the
            # earlier-phase leads coprime to lm within the bound, whose
            # pairs F5 prunes: formed, counted, never visited.  A lead of
            # degree d pairs within the bound d only with the leads that
            # divide it, and a lead above the bound with none.
            slack, lg = bound - (lm & mask), lm | guard
            ids, coprime = earlier.partners(lm, slack, idx)
            try:
                for i in ids:
                    other = basis[i]
                    if not slack:
                        if (lg - other[0]) & guard != guard:
                            continue
                        lcm = lm
                    else:
                        lcm = lm  # _Packer.lcm, inlined
                        for v, e in supports[i]:
                            if e > exps[v]:
                                lcm += (e - exps[v]) * units[v]
                        if lcm & mask > bound:
                            continue
                    formed += 1
                    t, a, b = sig + lcm - lm, idx, i
                    if other[5] is None:
                        if lcm == lm + other[0]:  # coprime leads: F5 by the lead of b
                            f5 += 1
                            continue
                    else:  # both in the running phase
                        t_other = other[5] + lcm - other[0]
                        if t_other == t:  # a singular pair: no S-pair has this signature
                            continue
                        if t_other > t:
                            t, a, b = t_other, i, idx
                    if t & mask > room:
                        coprime &= (1 << i) - 1  # the scan formed only those before i
                        raise _FieldOverflow(room)
                    # F5 only asks whether some lead of ``prev`` divides t:
                    # that of b, past the room check, then any (reducers.py).
                    if other[5] is None and ((t | guard) - other[0]) & guard == guard or earlier.divides(t):
                        f5 += 1
                    else:
                        heappush(pairs, (t, a, b, lcm))
                        queued += 1
            finally:
                stats["f5"] += f5 + coprime.bit_count()
                stats["queued"] += queued
            # Each pair formed costs a step: on a large ideal the criteria,
            # not the reductions, are most of this loop's work.
            formed += coprime.bit_count()
            stats["pairs"] += formed
            counter.tick(formed)
            basis.append(rec)
            supports.append(support_of.setdefault(lm, _support(exps)))
            insort(reducers, rec, key=_tail_length)

        r, _ = eng.reduce(f, reducers, counter, signature=0)
        if r:
            add(r, 0)  # signature e_i: the packed monomial 1 is 0
        else:
            stats["zero"] += 1
        last = None
        while pairs:
            t, a, b, lcm = heappop(pairs)
            if t == last:
                stats["one-per-signature"] += 1
                continue
            tg = t | guard
            if any((tg - z) & guard == guard for z in syzygies):
                stats["syzygy"] += 1
                continue
            # Rewrite by ratio: skip the pair unless its signature side has
            # the largest sig / lead among the elements whose signature
            # divides t, the later element winning a tie.
            la, sa = basis[a][0], basis[a][5]
            for c in range(first, len(basis)):
                lc_, sc = basis[c][0], basis[c][5]
                if c != a and (tg - sc) & guard == guard:
                    x, y = lc_ + sa, la + sc
                    if x < y or (x == y and c > a):
                        break
            else:
                c = None
            if c is not None:
                stats["rewrite"] += 1
                continue
            last = t
            s = eng.spoly(basis[a], basis[b], lcm, counter)
            r = eng.reduce(s, reducers, counter, signature=t)[0] if s else s
            if not r:
                syzygies.append(t)
                stats["zero"] += 1
                continue
            # A singular top-reducible result adds nothing: an element of
            # the phase already has its lead and signature, up to a multiple.
            lm = max(r)
            lg = lm | guard
            if not any(
                (lg - basis[c][0]) & guard == guard and lm - basis[c][0] + basis[c][5] == t
                for c in range(first, len(basis))
            ):
                add(r, t)
        # A lead of ``prev`` divides no lead of the phase, whose elements
        # it reduced without restriction: only the phase's leads can make
        # an element redundant.
        new = _minimal(basis[first:], guard)
        prev = earlier.without_multiples([h[0] for h in new]) + [rec[:5] + (None,) for rec in new]
    return prev


def _distinct(inputs: Iterable[dict]) -> Iterable[dict]:
    """The nonzero packed inputs, each once, in order."""
    seen = set()
    for t in inputs:
        key = frozenset(t.items())
        if t and key not in seen:
            seen.add(key)
            yield t


def _support(exps: Mono) -> list[tuple[int, int]]:
    """The (variable, exponent) pairs of the nonzero exponents."""
    return [(v, e) for v, e in enumerate(exps) if e]


def _tail_length(rec: tuple) -> int:
    return len(rec[3])


def _minimal(G: Iterable[tuple], guard: int) -> list[tuple]:
    """The records whose lead no other record's lead divides, one for
    each lead, in ascending lead order."""
    kept: list[tuple] = []
    for rec in sorted(G, key=itemgetter(0)):
        lg = rec[0] | guard
        if any((lg - h[0]) & guard == guard for h in kept):
            continue
        kept.append(rec)
    return kept


def _reduced_basis(eng: _Engine, G: list[tuple], counter: _Counter) -> list[tuple]:
    """The records of the reduced basis of an ideal, largest lead first,
    from the records of a Groebner basis."""
    # Tail-reduce each element of the minimal basis, in ascending lead
    # order, against the elements already reduced: a tail term lies below
    # its lead, so only a smaller lead can divide it.
    reduced = Reducers(eng.packer)
    for rec in _minimal(G, eng.packer.guard):
        rem, _ = eng.reduce(rec[2], reduced, counter)
        reduced.add(eng.record(rem))
    return reduced[::-1]


def reduce_by(f: Polynomial, gens: Sequence[Polynomial], budget: Budget = DEFAULT_BUDGET) -> Polynomial:
    """Exact division remainder by a raw generator list (not necessarily a
    Groebner basis).  A zero remainder certifies ideal membership; a
    nonzero remainder proves nothing."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens or f.is_zero():
        return f
    lifted = _lift([f, *gens])
    eng, f = _engine_for(lifted, budget.max_degree), lifted[0]
    rem, k = eng.divide([f], eng.records([g] for g in lifted[1:]), budget.fresh_counter())
    return eng.to_vector(rem, f.table, divisor=k)[0]


def in_ideal(f: Polynomial, spec: IdealSpec, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Ideal membership: ``_ideal_contains_all``, on one basis and step
    counter."""
    return _ideal_contains_all(spec, [f], budget)


def _is_homogeneous(f: Polynomial) -> bool:
    return len({m & DEGREE_MASK for m in f._terms}) <= 1


def _ideal_contains_all(spec: IdealSpec, targets: Sequence[Polynomial], budget: Budget) -> bool:
    """Whether every target lies in the ideal of ``spec``, reduced in the
    engine and under the counter of one ``_ideal_basis``, truncated at the
    largest target degree when all are homogeneous.  Stops at the first
    non-member."""
    targets = [f for f in targets if not f.is_zero()]
    if not targets:
        return True
    if not spec.generators:
        return False
    lifted = _lift([*targets, *spec.generators])
    targets, gens = lifted[: len(targets)], lifted[len(targets) :]
    d = _max_degree(targets)
    homogeneous = all(_is_homogeneous(g) for g in lifted)
    eng, records, counter = _ideal_basis(gens, budget, d if homogeneous else None, d)
    return all(not eng.divide([f], records, counter)[0] for f in targets)


# ---------------------------------------------------------------------------
# Free modules and syzygies.

def _module_basis(vectors, budget: Budget, rank: int, degree: int = 0) -> tuple:
    """(engine, records, counter) of a Groebner basis of the submodule of
    a rank-``rank`` free module that ``vectors``, of one field
    (``_lift_vectors``), generate, with room for
    degree ``degree``: ``_buchberger``'s records, each new one fully
    reduced, on one counter across widening restarts."""
    counter = budget.fresh_counter()

    def run(room: int):
        eng = _engine_for([e for v in vectors for e in v], max(room, degree), rank)
        inputs = [eng.pack(v)[0] for v in vectors]
        return eng, _buchberger(eng, inputs, counter), counter

    return _widening(budget.max_degree, run)


def module_gb(columns: list[list[Polynomial]], budget: Budget = DEFAULT_BUDGET) -> list[list[Polynomial]]:
    """Groebner basis of the submodule of R^m generated by the columns, as
    vectors over the coefficient field (not interreduced)."""
    rank = len(columns[0])
    eng, records, _ = _module_basis(_lift_vectors(columns, rank), budget, rank)
    return [eng.to_vector(rec[2], columns[0][0].table, 0, rank) for rec in records]


def module_contains(
    v: list[Polynomial], gb_vectors: list[list[Polynomial]], budget: Budget = DEFAULT_BUDGET
) -> bool:
    """Membership of ``v`` in the submodule that the vectors
    ``gb_vectors`` generate; they need not be a Groebner basis."""
    return _module_contains_all([v], gb_vectors, budget)


def _module_contains_all(vs, generators, budget: Budget) -> bool:
    """Whether every vector of ``vs`` lies in the submodule generated by
    ``generators``, each reduced in the engine and under the counter of
    one ``_module_basis`` with room for the largest entry degree of
    ``vs``.  Stops at the first non-member."""
    vs = [v for v in vs if any(not e.is_zero() for e in v)]
    if not vs or not generators:
        return not vs
    lifted = _lift_vectors([*vs, *generators], len(vs[0]))
    vs, generators = lifted[: len(vs)], lifted[len(vs) :]
    d = _max_degree([e for v in vs for e in v])
    eng, records, counter = _module_basis(generators, budget, len(vs[0]), d)
    records = Reducers(eng.packer, records)
    return all(not eng.divide(v, records, counter)[0] for v in vs)


def syzygies(M: FreeModuleMatrix, budget: Budget = DEFAULT_BUDGET) -> list[list[Polynomial]]:
    """Generating set of {v : M v = 0}; every returned v satisfies
    M v = 0 exactly (asserted before returning)."""
    if M.cols == 0:
        return []
    return _syzygies(FreeModuleMatrix(_lift_vectors(M.entries, M.cols)), budget)


def _syzygies(lifted: FreeModuleMatrix, budget: Budget) -> list[list[Polynomial]]:
    """``syzygies`` of a matrix with at least one column whose entries
    are already of one field (``_lift``)."""
    m, k = lifted.rows, lifted.cols
    ring, table = lifted.entries[0][0].ring, lifted.entries[0][0].table
    one, zero = Polynomial.one(ring, table), Polynomial.zero(ring, table)
    # Column j with the bookkeeping unit in component m + j.
    columns = [[*lifted.column(j), *(one if i == j else zero for i in range(k))] for j in range(k)]
    eng, records, _ = _module_basis(columns, budget, m + k)
    out = [eng.to_vector(rec[2], table, m, k) for rec in records if eng.packer.component(rec[0]) >= m]
    for v in out:
        for e in lifted.apply(v):
            if not e.is_zero():
                raise StructuralError("internal error: syzygy check failed")
    return out


def ideal_quotient(spec: IdealSpec, f: Polynomial, budget: Budget = DEFAULT_BUDGET) -> IdealSpec:
    """Generators of (I : f) = {x : x f in I}: the first coordinates of
    the syzygies of (f, g_1, ..., g_k), each checked by ``syzygies``."""
    if f.is_zero():
        table = spec.table if spec.generators else f.table
        ring = spec.ring if spec.generators else f.ring
        if not ring.is_field:
            ring = QQ
        return IdealSpec([Polynomial.one(ring, table)])
    if not spec.generators:
        return IdealSpec([])
    row = _lift([f, *spec.generators])
    return IdealSpec([v[0] for v in _syzygies(FreeModuleMatrix([row]), budget)])
