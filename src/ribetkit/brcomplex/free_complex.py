"""Finite complexes of free modules with polynomial differentials.

A FreeComplex stores ranks by homological degree 0..n, the differential
matrices d_k : C_k -> C_{k-1} for k >= 1, a basis label per summand
(used to build subcomplexes and morphisms), and twist bookkeeping:
``twists[k] = k + shift``, with shifts adding under tensor products.
Twists never alter differentials; they are metadata for the grading
arguments that live outside this package's scope.

A tensor product stores no layout of its own: ``_tensor_layout`` derives
the block offsets from the factor ranks, for ``tensor`` and for
``tensor_morphism`` alike, and ``_put_kron`` writes every Kronecker block
(d (x) id, id (x) d and phi (x) psi).

d^2 = 0 is checked, not assumed: construction functions return whatever
their formulas produce and ``check_d2`` verifies the complex axiom
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import StructuralError
from ..exactpoly import GF, CoefficientRing, Polynomial, VariableTable
from ..groebner import (
    Budget,
    DEFAULT_BUDGET,
    FreeModuleMatrix,
    _module_contains_all,
    syzygies,
)
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


def unit_complex(ring, table) -> FreeComplex:
    """The complex 0 -> R concentrated in degree 0, its basis labelled
    "unit"."""
    return FreeComplex(ring, table, [1], [None], [["unit"]])


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
    """Restrict to the basis elements whose label satisfies ``keep``.

    Raises if the restriction is not closed under the differential
    (a kept column with a nonzero entry in a dropped row).
    """
    kept_idx = [[i for i, lab in enumerate(C.labels[k]) if keep(lab)] for k in range(len(C.ranks))]
    new_ranks = [len(idx) for idx in kept_idx]
    new_labels = [[C.labels[k][i] for i in kept_idx[k]] for k in range(len(C.ranks))]
    new_diffs: list[FreeModuleMatrix | None] = [None]
    for k in range(1, C.top_degree + 1):
        d = C.diffs[k]
        if d is not None:
            kept_rows = set(kept_idx[k - 1])
            dropped = [i for i in range(C.ranks[k - 1]) if i not in kept_rows]
            if any(not d.entries[i][j].is_zero() for j in kept_idx[k] for i in dropped):
                raise StructuralError("subcomplex not closed under d")
        if d is None or new_ranks[k] == 0 or new_ranks[k - 1] == 0:
            new_diffs.append(None)
        else:
            new_diffs.append(
                FreeModuleMatrix([[d.entries[i][j] for j in kept_idx[k]] for i in kept_idx[k - 1]])
            )
    while len(new_ranks) > 1 and new_ranks[-1] == 0:
        new_ranks.pop()
        new_diffs.pop()
        new_labels.pop()
    return FreeComplex(C.ring, C.table, new_ranks, new_diffs, new_labels, C.shift)


def _tensor_layout(r1: list[int], r2: list[int], top: int) -> tuple[list[dict], list[int]]:
    """Block layout of the total complex of factors with ranks r1 and r2,
    in degrees 0..top.

    ``layout[n]`` maps each (p, q = n - p) with r1[p] and r2[q] nonzero to
    the offset of its block in degree n, by ascending p; ``ranks[n]`` is
    the total rank.  Inside a block, basis (j1, j2) sits at j1 * r2[q] + j2.
    """
    layout, ranks = [], []
    for n in range(top + 1):
        blocks, size = {}, 0
        for p in range(max(0, n - len(r2) + 1), min(n, len(r1) - 1) + 1):
            q = n - p
            if r1[p] and r2[q]:
                blocks[(p, q)] = size
                size += r1[p] * r2[q]
        layout.append(blocks)
        ranks.append(size)
    return layout, ranks


def _nonzero(M: FreeModuleMatrix | None) -> list[tuple]:
    """The nonzero (i, j, entry) triples of M (none for a missing map),
    found by the entries' term dicts, as in ``FreeModuleMatrix.matmul``."""
    if M is None:
        return []
    return [(i, j, e) for i, row in enumerate(M.entries) for j, e in enumerate(row) if e._terms]


def _identity(n: int) -> list[tuple]:
    """Triples of the n x n identity; the entry None stands for 1."""
    return [(i, i, None) for i in range(n)]


def _put_kron(grid, row: int, col: int, A, B, b_shape: tuple[int, int], negate: bool = False):
    """Write A (x) B, or its negative, into ``grid`` with its top-left
    corner at (row, col).

    A and B are triple lists (``_nonzero``, ``_identity``) and B is
    b_shape = (rows, cols), so A[i1][j1] B[i2][j2] lands at
    (row + i1 * rows + i2, col + j1 * cols + j2).  An identity entry is
    never multiplied: the other factor's entry is used as it is.  Each
    cell is written once and must still hold zero: the blocks that
    ``tensor`` and ``tensor_morphism`` write do not overlap.
    """
    b_rows, b_cols = b_shape
    for i1, j1, a in A:
        r0, c0 = row + i1 * b_rows, col + j1 * b_cols
        for i2, j2, b in B:
            e = b if a is None else a if b is None else a * b
            grid[r0 + i2][c0 + j2] = -e if negate else e


def tensor(C1: FreeComplex, C2: FreeComplex, cap: int | None = None) -> FreeComplex:
    """Total complex of the double complex C1 (x) C2 with the Koszul sign
    convention d(a (x) b) = da (x) b + (-1)^{deg a} a (x) db.

    Degree-n summands are ordered by ascending first-factor degree p, then
    row-major within the (p, q = n-p) block (``_tensor_layout``); twists
    add through the shift bookkeeping.  With ``cap``, only degrees
    0..cap are built, which gives ``truncate(tensor(C1, C2), cap)``.
    """
    if C1.ring != C2.ring or C1.table != C2.table:
        raise StructuralError("tensor factors must share ring and table")
    r1, r2 = C1.ranks, C2.ranks
    top = C1.top_degree + C2.top_degree
    layout, ranks = _tensor_layout(r1, r2, top if cap is None else min(top, cap))
    nonzero1 = [_nonzero(d) for d in C1.diffs[: len(ranks)]]
    nonzero2 = [_nonzero(d) for d in C2.diffs[: len(ranks)]]
    labels = [
        [("tensor", p, q, l1, l2) for p, q in blocks for l1 in C1.labels[p] for l2 in C2.labels[q]]
        for blocks in layout
    ]
    zero = C1.zero_entry()
    diffs: list[FreeModuleMatrix | None] = [None]
    for n in range(1, len(ranks)):
        if ranks[n] == 0 or ranks[n - 1] == 0:
            diffs.append(None)
            continue
        M = [[zero] * ranks[n] for _ in range(ranks[n - 1])]
        below = layout[n - 1]
        for (p, q), off in layout[n].items():
            # d1 (x) id: (p, q) -> (p - 1, q)
            if (p - 1, q) in below:
                A, B = nonzero1[p], _identity(r2[q])
                _put_kron(M, below[(p - 1, q)], off, A, B, (r2[q], r2[q]))
            # (-1)^p id (x) d2: (p, q) -> (p, q - 1)
            if (p, q - 1) in below:
                A, B = _identity(r1[p]), nonzero2[q]
                _put_kron(M, below[(p, q - 1)], off, A, B, (r2[q - 1], r2[q]), negate=p % 2 == 1)
        diffs.append(FreeModuleMatrix(M))
    return FreeComplex(C1.ring, C1.table, ranks, diffs, labels, C1.shift + C2.shift)


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


def tensor_morphism(
    phi: ComplexMorphism, psi: ComplexMorphism, sourceT: FreeComplex, targetT: FreeComplex
) -> ComplexMorphism:
    """Tensor of chain maps between tensor(phi.source, psi.source) and
    tensor(phi.target, psi.target), or truncations of them, given as
    sourceT and targetT.  Raises if their ranks do not fit the factors."""
    src_layout, src_ranks = _tensor_layout(phi.source.ranks, psi.source.ranks, sourceT.top_degree)
    tgt_layout, tgt_ranks = _tensor_layout(phi.target.ranks, psi.target.ranks, targetT.top_degree)
    if src_ranks != sourceT.ranks or tgt_ranks != targetT.ranks:
        raise StructuralError("tensor morphism: complexes do not match the factor layouts")
    s2, t2 = psi.source.ranks, psi.target.ranks
    zero = sourceT.zero_entry()
    maps: list[FreeModuleMatrix | None] = []
    for n, blocks in enumerate(src_layout):
        if src_ranks[n] == 0:
            maps.append(None)
            continue
        targets = tgt_layout[n] if n < len(tgt_layout) else {}
        rows = tgt_ranks[n] if n < len(tgt_ranks) else 0
        M = [[zero] * src_ranks[n] for _ in range(rows)]
        for (p, q), off in blocks.items():
            if (p, q) in targets:
                A, B = _nonzero(phi.maps[p]), _nonzero(psi.maps[q])
                _put_kron(M, targets[(p, q)], off, A, B, (t2[q], s2[q]))
        maps.append(FreeModuleMatrix(M))
    return ComplexMorphism(sourceT, targetT, maps)
