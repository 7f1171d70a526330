"""Sparse exact multivariate polynomial arithmetic.

A polynomial is a dictionary mapping packed monomials to nonzero
coefficients in an exact coefficient ring: arbitrary-precision integers,
rationals, or a prime field with p < 2**31 (plain Python ints reduced
mod p).  A rational coefficient is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise; ``CoefficientRing`` keeps that form
canonical, and since ``2`` and ``Fraction(2)`` print, compare and hash
alike, nothing outside the ring operations depends on it.  There is no
floating point anywhere.

Packed monomials (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  A monomial is
one int of fields ``FIELD_BITS`` value bits plus one guard bit wide: the
total degree in the bottom field, the exponent of variable i in field
i + 1.  The layout does not depend on the table, so the product of two
monomials is their sum, ``lift`` to an extending table keeps the ints,
and the degree is ``m & DEGREE_MASK``.  No exponent exceeds the total
degree, so a product that overflows a field first sets the degree
field's guard bit; it raises ``StructuralError``, as does any monomial
given with a negative or non-integer exponent or a total degree above
``DEGREE_CAP`` (32767).  ``terms`` is a read-only view for I/O and
tests: the same terms keyed by dense exponent tuples, one entry per
table variable, in the same order, built on each read and not kept.

The monomial order is degrevlex, the one order the package uses;
``sorted_terms``, ``leading_term`` and ``to_text`` sort by its key on
packed monomials, ``_degrevlex``.

The zero polynomial is the empty term map; equal polynomials have
identical term maps, so ``==`` is canonical-form comparison.  Values are
immutable after construction and safe to share between threads.

``evaluate_all``, the kernel of ``evaluate``, reads each term in a sparse
form, (coefficient, ((variable, exponent), ...)), the pairs of its nonzero
fields.  The first evaluation of a polynomial streams that form; the
second builds it once and keeps it in the private ``_sparse`` slot, so a
polynomial evaluated at many points (the relation ideal at every
specialization instance) pays for it once, and one evaluated once keeps
nothing.  The slot is an idempotent lazy field: it is derived from the
immutable term map alone, every build yields an equal value, and ``==``,
``hash`` and every other method ignore it.  Two threads that race on it
at worst both build it, and each reads a complete form, so sharing a
polynomial stays safe.

Variables are identified by their integer index into a ``VariableTable``;
names exist only for I/O.  Tables also carry a role tag per variable,
and the role fixes its torus weight (b-tagged variables weigh +1,
c-tagged -1, all others 0), which is what ``Polynomial.torus_weight``
grades by.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from .errors import StructuralError

# Degree of the zero polynomial.
NEG_INF = float("-inf")

Mono = tuple  # dense exponent tuple, one int per table variable

# The packed monomial layout (module docstring).  With 16-bit fields a
# monomial's bytes, little-endian, are its fields as unsigned shorts.
FIELD_BITS = 15
STRIDE = FIELD_BITS + 1
DEGREE_CAP = (1 << FIELD_BITS) - 1
DEGREE_MASK = (1 << STRIDE) - 1
_DEGREE_GUARD = 1 << FIELD_BITS

ROLES = ("a", "b", "c", "d", "nu", "eps", "delta", "x_sigma", "param", "other")

_ROLE_WEIGHT = {"b": 1, "c": -1}


@cache  # every GF(p) construction asks; trial division is ~23k steps at 2^31 - 1
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _demote(c):
    """An integral Fraction as its int numerator; anything else as is."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class CoefficientRing:
    """Exact coefficient ring: integers, rationals, or a prime field.

    Prime fields require p < 2**31 so products of two reduced elements
    fit in a machine word before reduction.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("ZZ", "QQ", "GF"):
            raise StructuralError(f"unknown coefficient ring kind {kind!r}")
        if kind == "GF":
            if p is None or p >= 2**31 or not _is_prime(p):
                raise StructuralError(f"GF modulus must be a prime < 2**31, got {p!r}")
        elif p is not None:
            raise StructuralError("modulus only makes sense for GF")
        self.kind = kind
        self.p = p

    # -- structure ----------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, CoefficientRing)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return self.kind if self.p is None else f"GF({self.p})"

    @property
    def is_field(self) -> bool:
        return self.kind in ("QQ", "GF")

    # -- element operations -------------------------------------------
    def normalize(self, c):
        if self.kind == "GF":
            if type(c) is int:
                return c % self.p
            if isinstance(c, Fraction):
                den = c.denominator % self.p
                if den == 0:
                    raise StructuralError("denominator not invertible mod p")
                return c.numerator * pow(den, -1, self.p) % self.p
            return int(c) % self.p
        if self.kind == "QQ":
            if type(c) is int:
                return c
            return _demote(c if isinstance(c, Fraction) else Fraction(c))
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise StructuralError(f"{c} is not an integer")
            return c.numerator
        return int(c)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "GF" else _demote(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "GF" else _demote(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "GF" else _demote(a * b)

    def neg(self, a):
        return (-a) % self.p if self.kind == "GF" else -a

    def inv(self, a):
        if self.kind == "GF":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0 in GF(p)")
            return pow(a, -1, self.p)
        if self.kind == "QQ":
            return _demote(Fraction(1) / a)
        raise StructuralError("ZZ is not a field")


ZZ = CoefficientRing("ZZ")
QQ = CoefficientRing("QQ")


def GF(p: int) -> CoefficientRing:
    return CoefficientRing("GF", p)


class VariableTable:
    """Ordered list of distinct variable names with role tags, and the
    torus weight each role gives its variables.

    Tables compare structurally: two independently built tables with the
    same names and roles are interchangeable.
    """

    __slots__ = ("names", "roles", "weights", "_index", "_hash")

    def __init__(self, names: Sequence[str], roles: Sequence[str] | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise StructuralError("variable names must be distinct")
        roles = tuple(roles) if roles is not None else ("other",) * len(names)
        if len(roles) != len(names):
            raise StructuralError("one role per variable required")
        for r in roles:
            if r not in ROLES:
                raise StructuralError(f"unknown role tag {r!r}")
        self.names = names
        self.roles = roles
        self.weights = tuple(_ROLE_WEIGHT.get(r, 0) for r in roles)
        self._index = {n: i for i, n in enumerate(names)}
        self._hash = hash((names, roles))

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"VariableTable({list(self.names)!r})"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, VariableTable):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.names == other.names
            and self.roles == other.roles
        )

    def __hash__(self):
        return self._hash

    def extends(self, other: "VariableTable") -> bool:
        """True iff this table starts with all of ``other``'s columns."""
        return self.names[: len(other.names)] == other.names

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown variable {name!r}") from None

    def extend(self, names: Sequence[str], roles: Sequence[str] | None = None) -> "VariableTable":
        """New table with extra variables appended (old indices unchanged)."""
        roles = tuple(roles) if roles is not None else ("other",) * len(names)
        return VariableTable(self.names + tuple(names), self.roles + roles)


# ---------------------------------------------------------------------------
# Monomials: dense exponent tuples, and their packed ints.

def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def _pack(e: Mono) -> int:
    """The packed monomial of an exponent tuple."""
    try:
        d = sum(e)
        if d <= DEGREE_CAP:
            return int.from_bytes(struct.pack(f"<{len(e) + 1}H", d, *e), "little")
    except (TypeError, struct.error):
        pass
    raise StructuralError(
        f"exponents must be integers >= 0 of total degree at most {DEGREE_CAP}, got {tuple(e)!r}"
    )


def _unpack(m: int, n: int) -> Mono:
    """The exponent tuple of a packed monomial over n variables."""
    return struct.unpack_from(f"<{n}H", m.to_bytes(2 * n + 2, "little"), 2)


def mono_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """The (variable, exponent) pairs of the nonzero exponents of a
    packed monomial, by variable; read from the top field down, so the
    work is one step per nonzero exponent."""
    pairs = []
    m >>= STRIDE
    while m:
        i = (m.bit_length() - 1) // STRIDE
        e = m >> (i * STRIDE)
        pairs.append((i, e))
        m -= e << (i * STRIDE)
    return tuple(reversed(pairs))


def mono_from_fields(x: int, stride: int) -> int:
    """The packed monomial whose degree and exponents are the fields of
    ``x``, ``stride`` bits each, in the same order (the Groebner engine
    packs with narrower fields), read as ``mono_pairs`` reads."""
    m = x & ((1 << stride) - 1)
    if m > DEGREE_CAP:
        raise StructuralError(f"degree {m} exceeds the monomial degree cap {DEGREE_CAP}")
    x >>= stride
    while x:
        i = (x.bit_length() - 1) // stride
        e = x >> (i * stride)
        m += e << (STRIDE * (i + 1))
        x -= e << (i * stride)
    return m


def _degrevlex(m: int) -> tuple[int, int]:
    """The degrevlex key of a packed monomial, larger keys for larger
    monomials: the total degree, then, the degree tied, the smaller int,
    which has the smaller exponent in the last variable where the two
    differ."""
    return (m & DEGREE_MASK, -m)


def _accumulate(out: dict, terms: dict, p) -> dict:
    """Add the packed ``terms`` into ``out`` in place, over GF(p) when p,
    and return it: CoefficientRing.add, inlined (the per-term calls were
    a measurable share of the suite run)."""
    get = out.get
    for m, c in terms.items():
        s = get(m, 0) + c
        if p:
            s %= p
        elif type(s) is not int:
            s = _demote(s)
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


# ---------------------------------------------------------------------------
# Polynomials.

class Polynomial:
    """Immutable sparse polynomial over a CoefficientRing and VariableTable."""

    __slots__ = ("ring", "table", "_terms", "_hash", "_sparse")

    def __init__(self, ring: CoefficientRing, table: VariableTable, terms: Mapping[Mono, object]):
        clean = {}
        n = len(table)
        for e, c in terms.items():
            if len(e) != n:
                raise StructuralError("monomial width does not match table")
            m = _pack(e)
            c = ring.normalize(c)
            if c == 0:
                continue
            if m in clean:
                c = ring.add(clean[m], c)
                if c == 0:
                    del clean[m]
                    continue
            clean[m] = c
        self.ring = ring
        self.table = table
        self._terms = clean
        self._hash = None
        self._sparse = None

    @property
    def terms(self) -> dict[Mono, object]:
        """The terms keyed by dense exponent tuples, in the order of the
        packed term dict: a read-only view, built on each read."""
        n = len(self.table)
        return {_unpack(m, n): c for m, c in self._terms.items()}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(ring, table) -> "Polynomial":
        return Polynomial._trusted(ring, table, {})

    @staticmethod
    def const(ring, table, c) -> "Polynomial":
        c = ring.normalize(c)
        return Polynomial._trusted(ring, table, {0: c} if c else {})

    @staticmethod
    def one(ring, table) -> "Polynomial":
        return Polynomial.const(ring, table, 1)

    @staticmethod
    def var(ring, table, i) -> "Polynomial":
        if isinstance(i, str):
            i = table.index(i)
        if not 0 <= i < len(table):
            raise StructuralError(f"variable index {i} out of range")
        return Polynomial._trusted(ring, table, {(1 << (STRIDE * (i + 1))) + 1: 1})

    # -- basic structure --------------------------------------------------
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.table == other.table
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.table, frozenset(self._terms.items())))
        return self._hash

    def total_degree(self):
        if not self._terms:
            return NEG_INF
        return max(m & DEGREE_MASK for m in self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

    def variables(self) -> set[int]:
        used = 0  # a field of the OR is nonzero where some monomial's is
        for m in self._terms:
            used |= m
        return {i for i, _ in mono_pairs(used)}

    def _check_compatible(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise StructuralError("coefficient ring mismatch")
        if self.table != other.table:
            raise StructuralError("variable table mismatch")

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(self.ring, self.table, other)
        ring, table = self.ring, self.table
        if other.ring is not ring or other.table is not table:
            self._check_compatible(other)
        return Polynomial._trusted(ring, table, _accumulate(dict(self._terms), other._terms, ring.p))

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        return Polynomial._trusted(ring, self.table, {m: ring.neg(c) for m, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(self.ring, self.table, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            ring = self.ring
            c = ring.normalize(other)
            if c == 0:
                return Polynomial.zero(ring, self.table)
            return Polynomial._trusted(ring, self.table, {m: ring.mul(k, c) for m, k in self._terms.items()})
        ring, table = self.ring, self.table
        if other.ring is not ring or other.table is not table:
            self._check_compatible(other)
        # CoefficientRing.add and .mul, inlined as in _accumulate.  A
        # product's degree field holds the sum of the factors' degrees;
        # past the cap that sets its guard bit, before any field carries.
        out: dict[int, object] = {}
        get, p, guard = out.get, ring.p, _DEGREE_GUARD
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                if m & guard:
                    raise StructuralError(f"a product exceeds the monomial degree cap {DEGREE_CAP}")
                s = get(m, 0) + c1 * c2
                if p:
                    s %= p
                elif type(s) is not int:
                    s = _demote(s)
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial._trusted(ring, table, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise StructuralError("negative powers are not polynomial")
        result = Polynomial.one(self.ring, self.table)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    @staticmethod
    def _trusted(ring, table, terms: dict) -> "Polynomial":
        """A polynomial of packed terms that are already canonical: keys
        within the cap, coefficients normalized and nonzero."""
        p = object.__new__(Polynomial)
        p.ring = ring
        p.table = table
        p._terms = terms
        p._hash = None
        p._sparse = None
        return p

    # -- term access -------------------------------------------------------
    def sorted_terms(self) -> list[tuple[Mono, object]]:
        """Terms sorted descending by degrevlex."""
        n, terms = len(self.table), self._terms
        return [(_unpack(m, n), terms[m]) for m in sorted(terms, key=_degrevlex, reverse=True)]

    def leading_term(self) -> tuple[Mono, object]:
        """The degrevlex-largest term."""
        if not self._terms:
            raise StructuralError("zero polynomial has no leading term")
        m = max(self._terms, key=_degrevlex)
        return _unpack(m, len(self.table)), self._terms[m]

    # -- substitution / evaluation ------------------------------------------
    def substitute(self, mapping: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution; unmapped variables stay fixed.

        Images must share a ring, and a table extending this polynomial's
        table (same leading names).  The result lives in the image table.
        """
        if not mapping:
            return self
        images = list(mapping.values())
        target = images[0].table
        ring = self.ring
        for g in images:
            if g.ring != ring:
                raise StructuralError("substitution image ring mismatch")
            if g.table != target:
                raise StructuralError("substitution images must share one table")
        if target != self.table and not target.extends(self.table):
            raise StructuralError("image table must extend the source table")
        one = Polynomial.one(ring, target)
        out: dict[int, object] = {}
        # Cache powers of each mapped image.
        powers: dict[int, list[Polynomial]] = {i: [one, g] for i, g in mapping.items()}

        def power(i: int, e: int) -> Polynomial:
            ps = powers[i]
            while len(ps) <= e:
                ps.append(ps[-1] * ps[1])
            return ps[e]

        for m, c in self._terms.items():
            fixed = 0  # the unmapped variables' part of m: the same ints in the target table
            term = None
            for i, e in mono_pairs(m):
                if i in mapping:
                    term = power(i, e) if term is None else term * power(i, e)
                else:
                    fixed += (e << (STRIDE * (i + 1))) + e
            if term is None:
                _accumulate(out, {fixed: c}, ring.p)
            else:
                _accumulate(out, (Polynomial._trusted(ring, target, {fixed: c}) * term)._terms, ring.p)
        return Polynomial._trusted(ring, target, out)

    def evaluate(self, point: Mapping[int, object]):
        """Exact value at a full assignment of its variables (``evaluate_all``)."""
        return evaluate_all((self,), point)[0]

    def _sparse_terms(self):
        """Each term as (coefficient, ((variable, exponent), ...)), the
        variables being those with a nonzero exponent.

        The first call streams the pairs; the second builds them once and
        keeps them in ``_sparse``, which later calls return."""
        kept = self._sparse
        if kept:
            return kept
        if kept is None:
            self._sparse = False  # evaluated once: keep the form on the next call
            return ((c, mono_pairs(m)) for m, c in self._terms.items())
        kept = self._sparse = tuple((c, mono_pairs(m)) for m, c in self._terms.items())
        return kept

    # -- grading -------------------------------------------------------------
    def torus_weight(self):
        """Common torus weight of all terms, or None if not isobaric.

        The zero polynomial has weight 0 by convention.  Each term's
        weight is read from its nonzero exponents (``mono_pairs``).
        """
        if not self._terms:
            return 0
        w = self.table.weights
        found = {sum(e * w[i] for i, e in mono_pairs(m)) for m in self._terms}
        return found.pop() if len(found) == 1 else None

    # -- ring/table moves ------------------------------------------------------
    def lift(self, table: VariableTable) -> "Polynomial":
        """Re-host in an extended table (appended variables get exponent 0,
        so the packed monomials are unchanged)."""
        if table is self.table:
            return self
        if not table.extends(self.table):
            raise StructuralError("target table must extend the source table")
        return Polynomial._trusted(self.ring, table, self._terms)

    def change_ring(self, ring: CoefficientRing) -> "Polynomial":
        """Map coefficients into another ring (ZZ -> QQ, ZZ/QQ -> GF(p))."""
        if ring == self.ring:
            return self
        out = {}
        for m, c in self._terms.items():
            v = ring.normalize(c)
            if v != 0:
                out[m] = v
        return Polynomial._trusted(ring, self.table, out)

    # -- text form --------------------------------------------------------------
    def __repr__(self):
        return to_text(self)


def evaluate_all(polys: Sequence[Polynomial], point: Mapping[int, object]) -> list:
    """The exact values at a full assignment of the variables of ``polys``,
    which share one ring, in one pass over their sparse terms: the one
    evaluation kernel.  Other entries of ``point`` are ignored; each value
    read is normalized into the ring once.  An exponent-1 factor is a
    plain product; over GF(p) the arithmetic is inline ints mod p."""
    ring, vals, out = polys[0].ring if polys else QQ, {}, []
    p = ring.p
    for f in polys:
        if f.ring is not ring and f.ring != ring:
            raise StructuralError("evaluate_all needs polynomials of one ring")
        total = ring.zero()
        for c, pairs in f._sparse_terms():
            for i, e in pairs:
                v = vals.get(i)
                if v is None:
                    try:
                        x = point[i]
                    except KeyError:
                        missing = [f.table.names[j] for j in sorted(f.variables()) if j not in point]
                        raise StructuralError(f"missing assignment for {missing}") from None
                    v = vals[i] = x % p if p and type(x) is int else ring.normalize(x)
                c = c * (v if e == 1 else pow(v, e, p)) % p if p else ring.mul(c, v if e == 1 else v ** e)
            total = total + c if p else ring.add(total, c)
        out.append(total % p if p else total)
    return out


# ---------------------------------------------------------------------------
# Text serialization.  Deterministic: terms in descending degrevlex
# order, each term "coef*name^e*...", joined by " + ".
# Negative coefficients keep their sign on the coefficient, which makes
# round-tripping trivial and bit-exact.

def to_text(f: Polynomial) -> str:
    if not f:
        return "0"
    parts = []
    names = f.table.names
    for m, c in f.sorted_terms():
        factors = [str(c)]
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def from_text(text: str, ring: CoefficientRing, table: VariableTable) -> Polynomial:
    """Parse the output of :func:`to_text` back, bit-exactly."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero(ring, table)
    terms: dict[int, object] = {}
    n = len(table)
    for part in text.split(" + "):
        factors = part.strip().split("*")
        coef_text = factors[0].strip()
        try:
            c = ring.normalize(Fraction(coef_text) if ring.kind == "QQ" else int(coef_text))
        except (ValueError, ZeroDivisionError):
            raise StructuralError(
                f"coefficient {coef_text!r} of term {part.strip()!r} is not a number of {ring!r}"
            ) from None
        e = [0] * n
        for fac in factors[1:]:
            name, sep, exp = fac.strip().partition("^")
            try:
                k = int(exp) if sep else 1
            except ValueError:
                k = -1
            if k < 0:
                raise StructuralError(f"exponent must be an integer >= 0, got {fac.strip()!r}")
            e[table.index(name)] += k
        m = _pack(e)
        if m in terms:
            c = ring.add(terms[m], c)
        if c == 0:
            terms.pop(m, None)
        else:
            terms[m] = c
    return Polynomial._trusted(ring, table, terms)
