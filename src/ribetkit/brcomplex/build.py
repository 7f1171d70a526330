"""Constructors for Koszul and Buchsbaum-Rim complexes over a 2-row map,
plus the regularity criteria used to certify exactness.

Each complex is written as its bases plus its boundary formula: the
basis keys of every degree and a generator of the (row key,
coefficient) pairs of d_k on one key.  The package's one scaffold,
``free_complex._complex``, turns those into the differential matrices,
as it does for tensor products and subcomplexes, so the three
constructors below hold no matrix assembly of their own.  Each passes
only its nonempty degrees: its top degree is the most that its wedge
words can reach, a count of the column labels with distinct keys.

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
from itertools import combinations, product
from typing import Callable, Iterable, Sequence

from ..algebra import DEFAULT_BUDGET, Budget, FreeModuleMatrix, IdealSpec
from ..errors import StructuralError
from ..exactpoly import QQ, Polynomial, VariableTable
from ..groebner import _ideal_contains_all, ideal_quotient
from .free_complex import FreeComplex, _complex


# ---------------------------------------------------------------------------
# Helpers of the boundary formulas.

def _sign(e: Polynomial, n: int) -> Polynomial:
    """(-1)^n e."""
    return e if n % 2 == 0 else -e


def _drop(S: tuple, *positions: int) -> tuple:
    """S without the entries at ``positions``."""
    return tuple(x for t, x in enumerate(S) if t not in positions)


def _slots(labels: Sequence, distinct_key: Callable[[object], object] | None) -> int:
    """How many distinct keys ``distinct_key`` gives ``labels``, each
    label its own key without one: the most labels a wedge word holds."""
    if distinct_key is None:
        return len(labels)
    return len({distinct_key(lab) for lab in labels})


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
    names = [lab for lab, _ in columns]
    n = len(columns)
    slots = _slots(names, distinct_key)
    top = slots if cap is None else min(cap, slots)

    def boundary(k, idxs):
        for pos, i in enumerate(idxs):
            yield _drop(idxs, pos), _sign(columns[i][1], pos)

    bases = [
        [c for c in combinations(range(n), k) if _slots([names[i] for i in c], distinct_key) == k]
        for k in range(top + 1)
    ]
    image = columns[0][1]
    return _complex(
        image.ring, image.table, bases, lambda k, c: tuple(names[i] for i in c), boundary
    )


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
    full = max(1, n - 1)
    top = max(1, full if cap is None else min(cap, full))  # d_1 = f at any cap

    def basis(k):
        if k == 0:
            return [("w", 1), ("w", 2)]
        if k == 1:
            return [("e", i) for i in range(n)]
        return [(S, (a, k - 2 - a)) for S in combinations(range(n), k + 1) for a in range(k - 1)]

    def label(k, b):
        if k == 0:
            return b
        if k == 1:
            return ("e", cols[b[1]].label)
        S, u = b
        return ("rf", tuple(cols[i].label for i in S), u)

    def boundary(k, b):
        if k == 1:
            # d_1 = f.
            yield ("w", 1), cols[b[1]].b
            yield ("w", 2), cols[b[1]].bp
        elif k == 2:
            # e_S (x) wedge^2 W* -> V by the r-contraction.
            S = b[0]
            for p, q in combinations(range(len(S)), 2):
                yield ("e",) + _drop(S, p, q), _sign(_r_of(cols, S[p], S[q]), p + q + 1)
        else:
            S, (alpha, beta) = b
            for pos, i in enumerate(S):
                for coord, ua, ub in ((cols[i].b, alpha - 1, beta), (cols[i].bp, alpha, beta - 1)):
                    if ua >= 0 and ub >= 0:
                        yield (_drop(S, pos), (ua, ub)), _sign(coord, pos)

    ring, table = cols[0].b.ring, cols[0].b.table
    return _complex(ring, table, [basis(k) for k in range(top + 1)], label, boundary)


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
    one = Polynomial.one(ring, table)
    # Degree k >= 1 needs k + 1 columns with distinct keys.
    full = _slots([c.label for c in cols], distinct_key) - 1
    top = full if cap is None else min(cap, full)

    def basis(k):
        if k == 0:
            return [("det",)]
        return [
            (word, S)
            for word in product(((1,), (2,), (1, 2)), repeat=k - 1)
            for S in combinations(range(n), 2 + sum(len(s) for s in word))
            if _slots([cols[i].label for i in S], distinct_key) == len(S)
        ]

    def label(k, b):
        if k == 0:
            return b
        word, S = b
        return (word, tuple(cols[i].label for i in S))

    def boundary(k, b):
        word, S = b
        if k == 1:
            yield ("det",), _r_of(cols, S[0], S[1])
            return
        # Merge adjacent rank-1 letters at bar position i, sign (-1)^i,
        # with w2* (x) w1* -> -w1*^w2*.
        for i in range(len(word) - 1):
            a, c = word[i], word[i + 1]
            if len(a) == len(c) == 1 and a != c:
                merged = word[:i] + ((1, 2),) + word[i + 2 :]
                yield (merged, S), _sign(one, i if a == (1,) else i + 1)
        # Contract the letter adjacent to the V slot.
        last = word[-1]
        if len(last) == 1:
            for pos, i in enumerate(S):
                coord = cols[i].b if last == (1,) else cols[i].bp
                yield (word[:-1], _drop(S, pos)), _sign(coord, pos + k - 2)
        else:
            for p, q in combinations(range(len(S)), 2):
                coeff = _r_of(cols, S[p], S[q])
                yield (word[:-1], _drop(S, p, q)), _sign(coeff, p + q + k - 2)

    return _complex(ring, table, [basis(k) for k in range(top + 1)], label, boundary)


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

def _colon_criterion(
    steps: Iterable[tuple[Sequence[Polynomial], Polynomial, Sequence[Polynomial]]],
    budget: Budget,
) -> bool:
    """Whether (prior) : f lies in (target) at every step (prior, f,
    target) of ``steps``, prior and target given by their generators:
    regularity by ideal quotients (Cox-Little-O'Shea, Ideals, Varieties,
    and Algorithms, section 4.4).  Stops at the first step that fails."""
    for prior, f, target in steps:
        quotient = ideal_quotient(IdealSpec(prior), f, budget)
        if not _ideal_contains_all(IdealSpec(target), quotient.generators, budget):
            return False
    return True


def regularity_check(f: FreeModuleMatrix, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Ideal-quotient regularity criterion for a 2-row matrix: for each
    k = 2..n, ((r_12, ..., r_1(k-1)) : r_1k) must be contained in
    (r_ij : i, j < k)."""
    cols = _cols_of(f)
    steps = (
        (
            [_r_of(cols, 0, j) for j in range(1, k - 1)],
            _r_of(cols, 0, k - 1),
            [_r_of(cols, i, j) for i in range(k - 1) for j in range(i + 1, k - 1)],
        )
        for k in range(2, len(cols) + 1)
    )
    return _colon_criterion(steps, budget)


def generic_2xn(n: int) -> FreeModuleMatrix:
    """Generic 2 x n matrix over fresh variables b_i, bp_i."""
    names = [f"b{i}" for i in range(1, n + 1)] + [f"bp{i}" for i in range(1, n + 1)]
    roles = ["b"] * n + ["other"] * n
    table = VariableTable(names, roles)
    b = [Polynomial.var(QQ, table, i) for i in range(n)]
    bp = [Polynomial.var(QQ, table, n + i) for i in range(n)]
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
    L = []
    for i in range(1, m + 1):
        acc = -Polynomial.var(QQ, table, f"c{i}")
        for j in range(1, n + 1):
            acc = acc + Polynomial.var(QQ, table, f"A{i}_{j}") * Polynomial.var(QQ, table, f"X{j}")
        L.append(acc)
    return _colon_criterion(((L[: i - 1], L[i - 1], L[: i - 1]) for i in range(2, m + 1)), budget)
