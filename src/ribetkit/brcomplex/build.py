"""Constructors for Koszul and Buchsbaum-Rim complexes over a 2-row map,
plus the regularity criteria used to certify exactness.

For f with matrix columns f(e_i) = (b_i, b_i') and r_ij = b_i b_j' -
b_j b_i', two complexes are built:

* R(f): degree 0 is the rank-2 target, degree 1 the source, and degree
  k >= 2 is (wedge^{k+1} V) (x) D_{k-2}(W*) (x) wedge^2 W*, with
  contraction differentials.  The kernel-image generators in degree 2
  are the classical d_ijk = r_ij e_k + r_jk e_i + r_ki e_j.

* R(det f): the bar-type complex whose degree-k term is the sum over
  words (s_1, ..., s_{k-1}), s_i in {1, 2}, of
  (wedge^{s_1} W*) (x) ... (x) (wedge^{s_{k-1}} W*) (x)
  (wedge^{2 + sum s_i} V).  The differential merges adjacent rank-1
  letters (w_s* (x) w_t* -> w_s* ^ w_t*) and contracts the letter
  adjacent to the V-slot, with alternating bar signs.  Basis, ordering
  and signs are fixed here once and for all:

      iota_{w_t*} e_S   = sum_pos (-1)^pos  f_t(S_pos)  e_{S - pos}
      iota_{w1*^w2*} e_S = sum_{p<q} (-1)^{p+q} r_{S_p S_q} e_{S - {p,q}}
      d = sum_i (-1)^{i-1} merge_i  +  (-1)^{k-2} iota_last

  so that iota_{w1*^w2*} = iota_{w1*} o iota_{w2*} exactly; d^2 = 0 is
  re-verified symbolically by the test suite rather than assumed.

The generalized Koszul builder also powers the adjoint-layered
complexes: columns may share a slot key, and wedge words are restricted
to pairwise-distinct keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from ..errors import StructuralError
from ..exactpoly import QQ, Polynomial, VariableTable
from ..groebner import (
    Budget,
    DEFAULT_BUDGET,
    FreeModuleMatrix,
    IdealSpec,
    _ideal_contains_all,
    ideal_quotient,
)
from .free_complex import FreeComplex


# ---------------------------------------------------------------------------
# Generalized Koszul complex of a map to R.

def koszul_general(
    columns: Sequence[tuple[object, Polynomial]],
    distinct_key: Callable[[object], object] | None = None,
    cap: int | None = None,
) -> FreeComplex:
    """Koszul complex on labelled elements of R.

    ``columns`` is a list of (label, image) pairs.  When ``distinct_key``
    is given, wedge words are restricted to labels with pairwise
    distinct keys (used for the adjoint-layer complexes, where four
    labelled copies share each slot).
    """
    if not columns:
        raise StructuralError("koszul needs at least one element")
    ring = columns[0][1].ring
    table = columns[0][1].table
    zero = Polynomial.zero(ring, table)
    n = len(columns)
    top = n if cap is None else min(cap, n)

    def admissible(idxs: tuple[int, ...]) -> bool:
        if distinct_key is None:
            return True
        keys = [distinct_key(columns[i][0]) for i in idxs]
        return len(set(keys)) == len(keys)

    labels: list[list] = [[()]]
    index_sets: list[list[tuple[int, ...]]] = [[()]]
    for k in range(1, top + 1):
        sets = [c for c in combinations(range(n), k) if admissible(c)]
        if not sets:
            break
        index_sets.append(sets)
        labels.append([tuple(columns[i][0] for i in c) for c in sets])
    top = len(index_sets) - 1

    ranks = [len(s) for s in index_sets]
    diffs: list[FreeModuleMatrix | None] = [None]
    for k in range(1, top + 1):
        pos_of = {c: i for i, c in enumerate(index_sets[k - 1])}
        M = [[zero] * ranks[k] for _ in range(ranks[k - 1])]
        for col, idxs in enumerate(index_sets[k]):
            for pos, i in enumerate(idxs):
                rest = idxs[:pos] + idxs[pos + 1 :]
                row = pos_of[rest]
                img = columns[i][1]
                M[row][col] = M[row][col] + (img if pos % 2 == 0 else -img)
        diffs.append(FreeModuleMatrix(M))
    return FreeComplex(ring, table, ranks, diffs, labels)


def koszul(elems: Sequence[Polynomial], cap: int | None = None) -> FreeComplex:
    """Standard Koszul complex on elements of R, labels 1..n."""
    return koszul_general([(i + 1, e) for i, e in enumerate(elems)], cap=cap)


# ---------------------------------------------------------------------------
# Buchsbaum-Rim complexes of a 2-row matrix.

@dataclass
class Col:
    label: object
    b: Polynomial  # first coordinate of f(e)
    bp: Polynomial  # second coordinate


def _cols_of(f: FreeModuleMatrix) -> list[Col]:
    if f.rows != 2:
        raise StructuralError("expected a 2-row matrix")
    return [Col(j + 1, f.entries[0][j], f.entries[1][j]) for j in range(f.cols)]


def _r_of(cols: list[Col], i: int, j: int) -> Polynomial:
    return cols[i].b * cols[j].bp - cols[j].b * cols[i].bp


def br_f(f: FreeModuleMatrix, cap: int | None = None) -> FreeComplex:
    """The complex R(f) for a 2-row f, materialized to ``cap``.

    Degree k >= 2 basis: ("rf", S, (alpha, beta)) with S a (k+1)-subset
    of columns and (alpha, beta) divided-power exponents summing to
    k - 2.
    """
    cols = _cols_of(f)
    n = len(cols)
    ring, table = cols[0].b.ring, cols[0].b.table
    zero = Polynomial.zero(ring, table)
    full = max(1, n - 1) if n >= 2 else 1
    top = full if cap is None else min(cap, full)

    ranks = [2, n]
    labels: list[list] = [[("w", 1), ("w", 2)], [("e", c.label) for c in cols]]
    bases: list[list] = [[("w", 1), ("w", 2)], [("e", i) for i in range(n)]]
    for k in range(2, top + 1):
        base = []
        for S in combinations(range(n), k + 1):
            for alpha in range(k - 1):
                base.append((S, (alpha, k - 2 - alpha)))
        if not base:
            break
        bases.append(base)
        labels.append([("rf", tuple(cols[i].label for i in S), u) for (S, u) in base])
        ranks.append(len(base))
    top = len(ranks) - 1

    diffs: list[FreeModuleMatrix | None] = [None]
    # d_1 = f.
    d1 = [[cols[j].b for j in range(n)], [cols[j].bp for j in range(n)]]
    diffs.append(FreeModuleMatrix(d1))
    for k in range(2, top + 1):
        pos_of = {b: i for i, b in enumerate(bases[k - 1])}
        M = [[zero] * ranks[k] for _ in range(ranks[k - 1])]
        for col, (S, u) in enumerate(bases[k]):
            if k == 2:
                # e_S (x) wedge^2 W* -> V by the r-contraction.
                for (p, q) in combinations(range(len(S)), 2):
                    rest = tuple(x for t, x in enumerate(S) if t not in (p, q))
                    row = pos_of[("e", rest[0])]
                    coeff = _r_of(cols, S[p], S[q])
                    term = coeff if (p + q + 1) % 2 == 0 else -coeff
                    M[row][col] = M[row][col] + term
            else:
                alpha, beta = u
                for pos in range(len(S)):
                    rest = tuple(x for t, x in enumerate(S) if t != pos)
                    i = S[pos]
                    for coord, (da, db) in ((cols[i].b, (1, 0)), (cols[i].bp, (0, 1))):
                        ua, ub = alpha - da, beta - db
                        if ua < 0 or ub < 0:
                            continue
                        row = pos_of[(rest, (ua, ub))]
                        term = coord if pos % 2 == 0 else -coord
                        M[row][col] = M[row][col] + term
        diffs.append(FreeModuleMatrix(M))
    return FreeComplex(ring, table, ranks, diffs, labels)


def _letter_words(k: int):
    """Words (s_1..s_{k-1}) over the letters (1,), (2,), (1, 2)."""
    if k == 1:
        yield ()
        return
    alphabet = ((1,), (2,), (1, 2))
    def rec(prefix, depth):
        if depth == 0:
            yield tuple(prefix)
            return
        for a in alphabet:
            prefix.append(a)
            yield from rec(prefix, depth - 1)
            prefix.pop()
    yield from rec([], k - 1)


def br_detf(
    f: FreeModuleMatrix,
    cap: int | None = None,
    distinct_key: Callable[[object], object] | None = None,
) -> FreeComplex:
    """The complex R(det f) for a 2-row f (see module docstring for the
    basis and sign conventions).  ``distinct_key`` restricts every
    wedge slot set S to columns with pairwise distinct keys."""
    cols = _cols_of(f)
    n = len(cols)
    ring, table = cols[0].b.ring, cols[0].b.table
    zero = Polynomial.zero(ring, table)
    full = max(1, 2 * (n - 1))
    top = full if cap is None else min(cap, full)

    def admissible(S: tuple[int, ...]) -> bool:
        if distinct_key is None:
            return True
        keys = [distinct_key(cols[i].label) for i in S]
        return len(set(keys)) == len(keys)

    bases: list[list] = [[("det",)]]
    labels: list[list] = [[("det",)]]
    ranks = [1]
    for k in range(1, top + 1):
        base = []
        for word in _letter_words(k):
            size = 2 + sum(len(s) for s in word)
            if size > n:
                continue
            for S in combinations(range(n), size):
                if admissible(S):
                    base.append((word, S))
        if not base:
            break
        bases.append(base)
        labels.append(
            [(word, tuple(cols[i].label for i in S)) for (word, S) in base]
        )
        ranks.append(len(base))
    top = len(ranks) - 1

    def iota_single(t: int, S: tuple[int, ...]):
        """Contract w_t*: yields (coeff, S') pairs."""
        for pos in range(len(S)):
            i = S[pos]
            coord = cols[i].b if t == 1 else cols[i].bp
            if coord.is_zero():
                continue
            rest = tuple(x for tt, x in enumerate(S) if tt != pos)
            yield (coord if pos % 2 == 0 else -coord), rest

    def iota_double(S: tuple[int, ...]):
        for (p, q) in combinations(range(len(S)), 2):
            coeff = _r_of(cols, S[p], S[q])
            if coeff.is_zero():
                continue
            rest = tuple(x for tt, x in enumerate(S) if tt not in (p, q))
            yield (coeff if (p + q) % 2 == 0 else -coeff), rest

    diffs: list[FreeModuleMatrix | None] = [None]
    for k in range(1, top + 1):
        pos_of = {b: i for i, b in enumerate(bases[k - 1])}
        M = [[zero] * ranks[k] for _ in range(ranks[k - 1])]
        for col, (word, S) in enumerate(bases[k]):
            if k == 1:
                coeff = _r_of(cols, S[0], S[1])
                M[0][col] = M[0][col] + coeff
                continue
            # Merge adjacent rank-1 letters.
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if len(a) == 1 and len(b) == 1 and a != b:
                    eps = 1 if (a, b) == ((1,), (2,)) else -1
                    sign = eps if i % 2 == 0 else -eps
                    new_word = word[:i] + ((1, 2),) + word[i + 2 :]
                    row = pos_of.get((new_word, S))
                    if row is None:
                        continue
                    one = Polynomial.one(ring, table)
                    M[row][col] = M[row][col] + (one if sign > 0 else -one)
            # Contract the letter adjacent to the V slot.
            last = word[-1]
            outer = 1 if (len(word) - 1) % 2 == 0 else -1
            gen = iota_single(last[0], S) if len(last) == 1 else iota_double(S)
            for coeff, rest in gen:
                row = pos_of.get((word[:-1], rest))
                if row is None:
                    continue
                M[row][col] = M[row][col] + (coeff if outer > 0 else -coeff)
        diffs.append(FreeModuleMatrix(M))
    return FreeComplex(ring, table, ranks, diffs, labels)


@dataclass
class BRComplexes:
    Rf: FreeComplex
    Rdetf: FreeComplex


def br_complexes(f: FreeModuleMatrix, cap: int | None = None) -> BRComplexes:
    """Both Buchsbaum-Rim complexes of a 1- or 2-row matrix.  For one
    row both coincide with the Koszul complex on the entries."""
    if f.rows == 1:
        K = koszul(list(f.entries[0]), cap=cap)
        return BRComplexes(K, K)
    return BRComplexes(br_f(f, cap=cap), br_detf(f, cap=cap))


# ---------------------------------------------------------------------------
# Regularity criteria.

def regularity_check(f: FreeModuleMatrix, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Ideal-quotient regularity criterion for a 2-row matrix: for each
    k = 2..n, ((r_12, ..., r_1(k-1)) : r_1k) must be contained in
    (r_ij : i, j < k)."""
    cols = _cols_of(f)
    n = len(cols)
    for k in range(2, n + 1):
        prior = [_r_of(cols, 0, j) for j in range(1, k - 1)]
        quotient = ideal_quotient(IdealSpec(prior), _r_of(cols, 0, k - 1), budget)
        target_gens = [
            _r_of(cols, i, j) for i in range(k - 1) for j in range(i + 1, k - 1)
        ]
        if not _ideal_contains_all(IdealSpec(target_gens), quotient.generators, budget):
            return False
    return True


def generic_2xn(n: int, ring=QQ) -> FreeModuleMatrix:
    """Generic 2 x n matrix over fresh variables b_i, bp_i."""
    names = [f"b{i}" for i in range(1, n + 1)] + [f"bp{i}" for i in range(1, n + 1)]
    roles = ["b"] * n + ["other"] * n
    table = VariableTable(names, roles)
    b = [Polynomial.var(ring, table, i) for i in range(n)]
    bp = [Polynomial.var(ring, table, n + i) for i in range(n)]
    return FreeModuleMatrix([b, bp])


def inhomogeneous_regular_check(m: int, n: int, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Quotient criterion for generic inhomogeneous linear forms
    L_i = sum_j A_ij X_j - c_i: for i = 2..m the quotient
    ((L_1..L_{i-1}) : L_i) must equal (L_1..L_{i-1})."""
    if m > n:
        raise StructuralError("need m <= n")
    names = [f"A{i}_{j}" for i in range(1, m + 1) for j in range(1, n + 1)]
    names += [f"c{i}" for i in range(1, m + 1)]
    names += [f"X{j}" for j in range(1, n + 1)]
    table = VariableTable(names)
    ring = QQ

    def v(name):
        return Polynomial.var(ring, table, table.index(name))

    L = []
    for i in range(1, m + 1):
        acc = -v(f"c{i}")
        for j in range(1, n + 1):
            acc = acc + v(f"A{i}_{j}") * v(f"X{j}")
        L.append(acc)
    for i in range(2, m + 1):
        prior = IdealSpec(L[: i - 1])
        quotient = ideal_quotient(prior, L[i - 1], budget)
        if not _ideal_contains_all(prior, quotient.generators, budget):
            return False
    return True
