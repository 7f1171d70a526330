"""Finite complexes of free modules with polynomial differentials.

A FreeComplex stores ranks by homological degree 0..n, the differential
matrices d_k : C_k -> C_{k-1} for k >= 1, a basis label per summand
(used to build subcomplexes and morphisms), and twist bookkeeping:
``twists[k] = k + shift``, with shifts adding under tensor products.
Twists never alter differentials; they are metadata for the grading
arguments that live outside this package's scope.

d^2 = 0 is checked, not assumed: construction functions return whatever
their formulas produce and ``check_d2`` verifies the complex axiom
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import StructuralError
from ..exactpoly import DEGREVLEX, GF, CoefficientRing, Polynomial, VariableTable
from ..groebner import (
    Budget,
    DEFAULT_BUDGET,
    FreeModuleMatrix,
    module_contains,
    module_gb,
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
    components: list[list[tuple]] | None = None  # tensor layout, see tensor()

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
            [list(l) for l in self.labels], self.shift + delta, self.components,
        )

    def zero_entry(self) -> Polynomial:
        return Polynomial.zero(self.ring, self.table)


def unit_complex(ring, table, label="unit") -> FreeComplex:
    """The complex 0 -> R concentrated in degree 0."""
    return FreeComplex(ring, table, [1], [None], [[label]])


def complex_to_record(C: FreeComplex) -> dict:
    """Report-friendly form: rank list, twists, and differential
    matrices with entries in the polynomial text syntax."""
    from ..exactpoly import to_text

    diffs = []
    for k in range(1, C.top_degree + 1):
        d = C.diffs[k]
        if d is None:
            diffs.append([])
        else:
            diffs.append([[to_text(e) for e in row] for row in d.entries])
    return {"ranks": list(C.ranks), "twists": C.twists(), "differentials": diffs}


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
    """Syzygies of d_1 tested against the column space of d_2."""
    if C.top_degree < 1 or C.diffs[1] is None:
        return H1Report([], True)
    syz = syzygies(C.diffs[1], DEGREVLEX, budget)
    if not syz:
        return H1Report([], True)
    if C.top_degree < 2 or C.diffs[2] is None or C.ranks[2] == 0:
        nonzero = [v for v in syz if any(not e.is_zero() for e in v)]
        return H1Report(syz, not nonzero)
    d2 = C.diffs[2]
    columns = [d2.column(j) for j in range(d2.cols)]
    gb = module_gb(columns, DEGREVLEX, budget)
    exact = all(module_contains(v, gb, DEGREVLEX, budget) for v in syz)
    return H1Report(syz, exact)


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
        if d is None or new_ranks[k] == 0 or new_ranks[k - 1] == 0:
            if d is not None and new_ranks[k]:
                for j in kept_idx[k]:
                    for i in range(C.ranks[k - 1]):
                        if not d.entries[i][j].is_zero():
                            raise StructuralError("subcomplex not closed under d")
            new_diffs.append(None)
            continue
        dropped = [i for i in range(C.ranks[k - 1]) if i not in set(kept_idx[k - 1])]
        for j in kept_idx[k]:
            for i in dropped:
                if not d.entries[i][j].is_zero():
                    raise StructuralError("subcomplex not closed under d")
        new_diffs.append(
            FreeModuleMatrix(
                [[d.entries[i][j] for j in kept_idx[k]] for i in kept_idx[k - 1]]
            )
        )
    while len(new_ranks) > 1 and new_ranks[-1] == 0:
        new_ranks.pop()
        new_diffs.pop()
        new_labels.pop()
    return FreeComplex(C.ring, C.table, new_ranks, new_diffs, new_labels, C.shift)


def tensor(C1: FreeComplex, C2: FreeComplex) -> FreeComplex:
    """Total complex of the double complex C1 (x) C2 with the Koszul sign
    convention d(a (x) b) = da (x) b + (-1)^{deg a} a (x) db.

    Degree-n summands are ordered by ascending first-factor degree p
    (then row-major within the (p, q = n-p) block); twists add through
    the shift bookkeeping.  The component layout is recorded on the
    result for morphism assembly.
    """
    if C1.ring != C2.ring or C1.table != C2.table:
        raise StructuralError("tensor factors must share ring and table")
    n1, n2 = C1.top_degree, C2.top_degree
    n = n1 + n2
    zero = C1.zero_entry()
    ranks, labels, layout = [], [], []
    offsets: dict[tuple[int, int], int] = {}
    for total in range(n + 1):
        rank = 0
        labs = []
        comps = []
        for p in range(total + 1):
            q = total - p
            if p > n1 or q > n2 or C1.ranks[p] == 0 or C2.ranks[q] == 0:
                continue
            offsets[(p, q)] = rank
            comps.append((p, q, rank, C1.ranks[p], C2.ranks[q]))
            rank += C1.ranks[p] * C2.ranks[q]
            for l1 in C1.labels[p]:
                for l2 in C2.labels[q]:
                    labs.append(("tensor", p, q, l1, l2))
        ranks.append(rank)
        labels.append(labs)
        layout.append(comps)

    diffs: list[FreeModuleMatrix | None] = [None]
    for total in range(1, n + 1):
        if ranks[total] == 0 or ranks[total - 1] == 0:
            diffs.append(None)
            continue
        M = [[zero] * ranks[total] for _ in range(ranks[total - 1])]
        for (p, q, off, r1, r2) in layout[total]:
            # d1 (x) id: (p, q) -> (p - 1, q)
            if p >= 1 and (p - 1, q) in _layout_index(layout[total - 1]):
                d1 = C1.diffs[p]
                if d1 is not None:
                    toff = _layout_index(layout[total - 1])[(p - 1, q)]
                    for i1 in range(C1.ranks[p - 1]):
                        for j1 in range(r1):
                            e = d1.entries[i1][j1]
                            if e.is_zero():
                                continue
                            for j2 in range(r2):
                                M[toff + i1 * r2 + j2][off + j1 * r2 + j2] = (
                                    M[toff + i1 * r2 + j2][off + j1 * r2 + j2] + e
                                )
            # (-1)^p id (x) d2: (p, q) -> (p, q - 1)
            if q >= 1 and (p, q - 1) in _layout_index(layout[total - 1]):
                d2 = C2.diffs[q]
                if d2 is not None:
                    toff = _layout_index(layout[total - 1])[(p, q - 1)]
                    r2t = C2.ranks[q - 1]
                    sign = 1 if p % 2 == 0 else -1
                    for i2 in range(r2t):
                        for j2 in range(r2):
                            e = d2.entries[i2][j2]
                            if e.is_zero():
                                continue
                            if sign < 0:
                                e = -e
                            for j1 in range(r1):
                                M[toff + j1 * r2t + i2][off + j1 * r2 + j2] = (
                                    M[toff + j1 * r2t + i2][off + j1 * r2 + j2] + e
                                )
        diffs.append(FreeModuleMatrix(M))
    out = FreeComplex(
        C1.ring, C1.table, ranks, diffs, labels, C1.shift + C2.shift, layout
    )
    return out


def _layout_index(comps: list[tuple]) -> dict[tuple[int, int], int]:
    return {(p, q): off for (p, q, off, _r1, _r2) in comps}


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
        C.components[: cap + 1] if C.components else None,
    )


@dataclass
class ComplexMorphism:
    """Degree-0 chain map between complexes; squares are checked, not
    assumed."""

    source: FreeComplex
    target: FreeComplex
    maps: list[FreeModuleMatrix | None]  # maps[k]: source_k -> target_k

    def check_commutes(self) -> bool:
        n = min(self.source.top_degree, self.target.top_degree, len(self.maps) - 1)
        for k in range(1, n + 1):
            ds, dt = self.source.diffs[k], self.target.diffs[k]
            mk, mk1 = self.maps[k], self.maps[k - 1]
            if ds is None or self.source.ranks[k] == 0:
                continue
            if self.source.ranks[k - 1] == 0:
                lhs = None
            else:
                lhs = mk1.matmul(ds) if mk1 is not None else None
            rhs = dt.matmul(mk) if (dt is not None and mk is not None) else None
            if lhs is None and rhs is None:
                continue
            if lhs is None or rhs is None:
                if (lhs or rhs) is not None and not (lhs or rhs).is_zero():
                    return False
                continue
            diff_rows = [
                [lhs.entries[i][j] - rhs.entries[i][j] for j in range(lhs.cols)]
                for i in range(lhs.rows)
            ]
            if not FreeModuleMatrix(diff_rows).is_zero():
                return False
        return True


def tensor_morphism(
    phi: ComplexMorphism, psi: ComplexMorphism, sourceT: FreeComplex, targetT: FreeComplex
) -> ComplexMorphism:
    """Tensor of chain maps, matched to the layouts produced by tensor()."""
    zero = sourceT.zero_entry()
    maps: list[FreeModuleMatrix | None] = []
    for total in range(sourceT.top_degree + 1):
        if sourceT.ranks[total] == 0:
            maps.append(None)
            continue
        rows = targetT.ranks[total] if total <= targetT.top_degree else 0
        M = [[zero] * sourceT.ranks[total] for _ in range(rows)]
        src_layout = sourceT.components[total]
        tgt_index = _layout_index(targetT.components[total]) if total <= targetT.top_degree else {}
        tgt_blocks = {
            (p, q): (r1, r2)
            for (p, q, _off, r1, r2) in (targetT.components[total] if total <= targetT.top_degree else [])
        }
        for (p, q, off, r1, r2) in src_layout:
            if (p, q) not in tgt_index:
                continue
            toff = tgt_index[(p, q)]
            t1, t2 = tgt_blocks[(p, q)]
            mp, mq = phi.maps[p], psi.maps[q]
            for i1 in range(t1):
                for j1 in range(r1):
                    e1 = mp.entries[i1][j1] if mp is not None else zero
                    if e1.is_zero():
                        continue
                    for i2 in range(t2):
                        for j2 in range(r2):
                            e2 = mq.entries[i2][j2] if mq is not None else zero
                            if e2.is_zero():
                                continue
                            M[toff + i1 * t2 + i2][off + j1 * r2 + j2] = (
                                M[toff + i1 * t2 + i2][off + j1 * r2 + j2] + e1 * e2
                            )
        maps.append(FreeModuleMatrix(M))
    return ComplexMorphism(sourceT, targetT, maps)
