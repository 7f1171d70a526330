"""Finite complexes of free modules with polynomial differentials, and
the one scaffold that builds every complex and chain map of the package.

A FreeComplex stores ranks by homological degree 0..n, the differential
matrices d_k : C_k -> C_{k-1} for k >= 1, a basis label per summand
(used to build subcomplexes and morphisms), and twist bookkeeping:
``twists[k] = k + shift``, with shifts adding under tensor products.
Twists never alter differentials; they are metadata for the grading
arguments that live outside this package's scope.

A complex is written as its bases plus its boundary formula: the basis
keys of each degree and a generator of the (row key, coefficient) pairs
of d_k on one key.  ``_complex`` turns those into the differentials, and
its twin ``_chain_map`` turns a formula for the image of each source
label, as (target label, coefficient) pairs, into a chain map.  Both
fill their matrices through ``_matrix``; nothing else writes one:

* the Koszul and Buchsbaum-Rim builders (``build``) give their own keys;
* ``subcomplex`` keys the kept positions and reads the columns of d;
* ``tensor`` keys (p, q, j1, j2) and takes d1 (x) id + (-1)^p id (x) d2,
  which is also how the Koszul complex arises from one-element ones;
* ``tensor_morphism`` sends a label to its image under phi (x) psi, and
  the C -> D inclusion (``morphism``) each label to itself.

A map into or out of a zero module is stored as None.

d^2 = 0 is checked, not assumed: construction functions return whatever
their formulas produce and ``check_d2`` verifies the complex axiom
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from ..errors import StructuralError
from ..exactpoly import GF, CoefficientRing, Polynomial, VariableTable
from ..algebra import DEFAULT_BUDGET, Budget, FreeModuleMatrix
from ..groebner import _module_contains_all, syzygies
from ..linalg import rank as field_rank


@dataclass
class FreeComplex:
    """Complex 0 -> C_n -> ... -> C_1 -> C_0 of free modules."""

    ring: CoefficientRing
    table: VariableTable
    ranks: list[int]
    diffs: list[FreeModuleMatrix | None]  # diffs[k]: C_k -> C_{k-1}; diffs[0] is None
    labels: list[list]  # labels[k][i]: basis label of the i-th summand of C_k
    shift: int = 0

    def __post_init__(self):
        if len(self.diffs) != len(self.ranks) or len(self.labels) != len(self.ranks):
            raise StructuralError("ranks, diffs, labels must align")
        for k, d in enumerate(self.diffs):
            if len(self.labels[k]) != self.ranks[k]:
                raise StructuralError(
                    f"degree {k} has {len(self.labels[k])} labels for rank {self.ranks[k]}"
                )
            if k == 0:
                continue
            if d is None:
                if self.ranks[k] and self.ranks[k - 1]:
                    raise StructuralError(f"missing differential at degree {k}")
                continue
            if d.rows != self.ranks[k - 1] or d.cols != self.ranks[k]:
                raise StructuralError(
                    f"d_{k} has shape {d.rows}x{d.cols}, expected "
                    f"{self.ranks[k - 1]}x{self.ranks[k]}"
                )

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def twists(self) -> list[int]:
        return [k + self.shift for k in range(len(self.ranks))]

    def twist(self, delta: int) -> "FreeComplex":
        """Same complex with the twist bookkeeping shifted by delta."""
        return FreeComplex(
            self.ring, self.table, list(self.ranks), list(self.diffs),
            [list(l) for l in self.labels], self.shift + delta,
        )

    def zero_entry(self) -> Polynomial:
        return Polynomial.zero(self.ring, self.table)


# ---------------------------------------------------------------------------
# The scaffold: a complex is its bases plus its boundary formula, a chain
# map its image formula.

def _matrix(
    zero: Polynomial,
    rows: Sequence,
    cols: Sequence,
    column: Callable[[object], Iterable[tuple[object, Polynomial]]],
) -> FreeModuleMatrix | None:
    """The matrix with row keys ``rows`` and column keys ``cols`` whose
    column b holds the (row key, coefficient) pairs that ``column(b)``
    yields, a repeated row key adding up; None when either side is
    empty.  Every column is read, so a row key outside ``rows`` raises
    even then."""
    pos_of = {key: i for i, key in enumerate(rows)}
    if len(pos_of) != len(rows):
        raise StructuralError("a basis repeats a key")
    M = [[zero] * len(cols) for _ in rows]
    for j, b in enumerate(cols):
        for key, coeff in column(b):
            try:
                row = M[pos_of[key]]
            except KeyError:
                raise StructuralError(f"the image of {b!r} leaves the basis at {key!r}") from None
            # A cell that still holds the shared zero takes the coefficient as it is.
            row[j] = coeff if row[j] is zero else row[j] + coeff
    return FreeModuleMatrix(M) if rows and cols else None


def _complex(
    ring: CoefficientRing,
    table: VariableTable,
    bases: Sequence[list],
    label: Callable[[int, object], object],
    boundary: Callable[[int, object], Iterable[tuple[object, Polynomial]]],
) -> FreeComplex:
    """The complex whose degree-k basis is ``bases[k]``.  ``label(k, b)``
    names the basis key b, and ``boundary(k, b)`` yields the (row key,
    coefficient) pairs of d_k(b); every row key must lie in
    ``bases[k - 1]``."""
    zero = Polynomial.zero(ring, table)
    diffs = [None] + [
        _matrix(zero, bases[k - 1], bases[k], partial(boundary, k)) for k in range(1, len(bases))
    ]
    labels = [[label(k, b) for b in base] for k, base in enumerate(bases)]
    return FreeComplex(ring, table, [len(b) for b in bases], diffs, labels)


def _columns(M: FreeModuleMatrix | None, n: int) -> list[list[tuple[int, Polynomial]]]:
    """The (row, entry) pairs of the nonzero entries of each of the n
    columns of M, found by the entries' term dicts; a missing (None)
    matrix has none."""
    entries = M.entries if M is not None else ()
    return [[(i, row[j]) for i, row in enumerate(entries) if row[j]._terms] for j in range(n)]


def unit_complex(ring, table) -> FreeComplex:
    """The complex 0 -> R concentrated in degree 0, its basis labelled
    "unit"."""
    return _complex(ring, table, [["unit"]], lambda k, b: b, None)


def check_d2(C: FreeComplex) -> bool:
    """True iff every consecutive product of differentials vanishes
    symbolically."""
    for k in range(2, C.top_degree + 1):
        a, b = C.diffs[k - 1], C.diffs[k]
        if a is None or b is None:
            continue
        if not a.matmul(b).is_zero():
            return False
    return True


def evaluate_matrix_mod_p(M: FreeModuleMatrix, point: dict[int, int], p: int) -> list[list[int]]:
    gf = GF(p)
    out = []
    for row in M.entries:
        out.append([e.change_ring(gf).evaluate(point) for e in row])
    return out


def homology_at_point(C: FreeComplex, point: dict[int, int], p: int) -> list[int]:
    """dim H_k of the complex specialized at an F_p point, via exact
    Gaussian elimination: rank_k - rank(d_k) - rank(d_{k+1})."""
    gf = GF(p)
    ranks_d = [0] * (C.top_degree + 2)
    for k in range(1, C.top_degree + 1):
        d = C.diffs[k]
        if d is None or C.ranks[k] == 0 or C.ranks[k - 1] == 0:
            ranks_d[k] = 0
            continue
        ranks_d[k] = field_rank(evaluate_matrix_mod_p(d, point, p), gf)
    return [C.ranks[k] - ranks_d[k] - ranks_d[k + 1] for k in range(C.top_degree + 1)]


@dataclass
class H1Report:
    h1_generators: list[list[Polynomial]]
    is_exact_at_1: bool


def symbolic_h1(C: FreeComplex, budget: Budget = DEFAULT_BUDGET) -> H1Report:
    """Syzygies of d_1 tested against the submodule that the columns of
    d_2 generate.  It spends two budgets, one for ``syzygies`` and one
    for the membership batch, which packs those columns once.  With no syzygies
    the complex is exact at 1; with no d_2 (or no columns) it is exact
    exactly when every syzygy is zero."""
    if C.top_degree < 1 or C.diffs[1] is None:
        return H1Report([], True)
    syz = syzygies(C.diffs[1], budget)
    d2 = C.diffs[2] if C.top_degree >= 2 else None
    columns = [d2.column(j) for j in range(d2.cols)] if d2 is not None else []
    return H1Report(syz, _module_contains_all(syz, columns, budget))


def subcomplex(C: FreeComplex, keep: Callable[[object], bool]) -> FreeComplex:
    """Restrict to the basis elements whose label satisfies ``keep``,
    dropping the empty degrees at the top.

    Raises if the restriction is not closed under the differential
    (a kept column with a nonzero entry in a dropped row).
    """
    bases = [[i for i, lab in enumerate(labels) if keep(lab)] for labels in C.labels]
    while len(bases) > 1 and not bases[-1]:
        bases.pop()
    columns = [_columns(d, r) for d, r in zip(C.diffs, C.ranks)]
    sub = _complex(C.ring, C.table, bases, lambda k, i: C.labels[k][i], lambda k, j: columns[k][j])
    return sub.twist(C.shift)


def _tensor_bases(r1: list[int], r2: list[int], top: int) -> list[list[tuple]]:
    """Basis keys (p, q, j1, j2) of degrees 0..top of the tensor product
    of complexes with ranks r1 and r2: by ascending p, then row-major in
    (j1, j2) inside the (p, q) block."""
    return [
        [
            (p, n - p, j1, j2)
            for p in range(len(r1))
            if 0 <= n - p < len(r2)
            for j1 in range(r1[p])
            for j2 in range(r2[n - p])
        ]
        for n in range(top + 1)
    ]


def tensor(C1: FreeComplex, C2: FreeComplex, cap: int | None = None) -> FreeComplex:
    """Total complex of the double complex C1 (x) C2 with the Koszul sign
    convention d(a (x) b) = da (x) b + (-1)^{deg a} a (x) db.

    Degree-n summands are ordered by ascending first-factor degree p, then
    row-major within the (p, q = n-p) block (``_tensor_bases``); twists
    add through the shift bookkeeping.  With ``cap``, only degrees
    0..cap are built, which gives ``truncate(tensor(C1, C2), cap)``.
    """
    if C1.ring != C2.ring or C1.table != C2.table:
        raise StructuralError("tensor factors must share ring and table")
    top = C1.top_degree + C2.top_degree
    bases = _tensor_bases(C1.ranks, C2.ranks, top if cap is None else min(top, cap))
    columns1 = [_columns(d, r) for d, r in zip(C1.diffs, C1.ranks)]
    columns2 = [_columns(d, r) for d, r in zip(C2.diffs, C2.ranks)]

    def label(n, key):
        p, q, j1, j2 = key
        return ("tensor", p, q, C1.labels[p][j1], C2.labels[q][j2])

    def boundary(n, key):
        p, q, j1, j2 = key
        for i1, e in columns1[p][j1]:  # d1 (x) id
            yield (p - 1, q, i1, j2), e
        for i2, e in columns2[q][j2]:  # (-1)^p id (x) d2
            yield (p, q - 1, j1, i2), -e if p % 2 else e

    return _complex(C1.ring, C1.table, bases, label, boundary).twist(C1.shift + C2.shift)


def truncate(C: FreeComplex, cap: int) -> FreeComplex:
    """Forget degrees above ``cap`` (differentials into cap are kept)."""
    if cap >= C.top_degree:
        return C
    return FreeComplex(
        C.ring,
        C.table,
        C.ranks[: cap + 1],
        C.diffs[: cap + 1],
        C.labels[: cap + 1],
        C.shift,
    )


@dataclass
class ComplexMorphism:
    """Degree-0 chain map between complexes; squares are checked, not
    assumed."""

    source: FreeComplex
    target: FreeComplex
    maps: list[FreeModuleMatrix | None]  # maps[k]: source_k -> target_k

    def check_commutes(self) -> bool:
        """True iff maps[k-1] . d_k = d_k . maps[k] for every k >= 1 that
        both complexes and the maps reach.  A missing (None) differential
        or map is the zero map, and so is a matrix with no rows or no
        columns, whatever shape its product reports."""
        n = min(self.source.top_degree, self.target.top_degree, len(self.maps) - 1)
        for k in range(1, n + 1):
            lhs = _compose(self.maps[k - 1], self.source.diffs[k])
            rhs = _compose(self.target.diffs[k], self.maps[k])
            if all(m is None or m.is_zero() for m in (lhs, rhs)):
                continue
            if lhs is None or rhs is None or lhs.entries != rhs.entries:
                return False
        return True


def _compose(a: FreeModuleMatrix | None, b: FreeModuleMatrix | None) -> FreeModuleMatrix | None:
    """a . b, or None (the zero map) when either factor is missing."""
    return None if a is None or b is None else a.matmul(b)


def _chain_map(
    source: FreeComplex,
    target: FreeComplex,
    image: Callable[[int, object], Iterable[tuple[object, Polynomial]]],
) -> ComplexMorphism:
    """The chain map sending the degree-k source basis element labelled
    lab to the sum of the (target label, coefficient) pairs that
    ``image(k, lab)`` yields; a label the target lacks in degree k
    raises.  A degree above the target's top maps to zero (None)."""
    zero = source.zero_entry()
    maps = [
        _matrix(zero, target.labels[k], labels, partial(image, k)) if k <= target.top_degree else None
        for k, labels in enumerate(source.labels)
    ]
    return ComplexMorphism(source, target, maps)


def tensor_morphism(
    phi: ComplexMorphism, psi: ComplexMorphism, sourceT: FreeComplex, targetT: FreeComplex
) -> ComplexMorphism:
    """Tensor of chain maps between tensor(phi.source, psi.source) and
    tensor(phi.target, psi.target), or truncations of them, given as
    sourceT and targetT.  Raises if their ranks do not fit the factors."""
    for T, C1, C2 in ((sourceT, phi.source, psi.source), (targetT, phi.target, psi.target)):
        if T.ranks != [len(b) for b in _tensor_bases(C1.ranks, C2.ranks, T.top_degree)]:
            raise StructuralError("tensor morphism: complexes do not match the factors")

    def images(f: ComplexMorphism) -> list[dict]:
        # Per degree, each source label's image as (target label, entry) pairs.
        return [
            {
                lab: [(f.target.labels[k][i], e) for i, e in col]
                for lab, col in zip(labels, _columns(f.maps[k], len(labels)))
            }
            for k, labels in enumerate(f.source.labels)
        ]

    images1, images2 = images(phi), images(psi)

    def image(n, lab):
        _, p, q, l1, l2 = lab
        for m1, a in images1[p][l1]:
            for m2, b in images2[q][l2]:
                yield ("tensor", p, q, m1, m2), a * b

    return _chain_map(sourceT, targetT, image)
