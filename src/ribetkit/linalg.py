"""Exact dense linear algebra over the field coefficient rings.

One kernel, ``_eliminate``, does every row reduction: Gauss-Jordan for
``rref``, ``rank``, ``kernel_basis``, ``solve`` and ``reduce_system``,
forward elimination for ``det``.  Over GF(p) it keeps ints in [0, p)
and does its arithmetic inline (``% p`` after each product,
``pow(x, -1, p)`` for a pivot), with no per-entry ring call; over QQ
each entry goes through the ring's ``mul``, ``sub`` and ``inv``.  The
matrices are small, so they stay lists of lists.
"""

from __future__ import annotations

from .errors import StructuralError
from .exactpoly import CoefficientRing


def _eliminate(rows: list[list], ring: CoefficientRing, ncols: int, jordan: bool = True):
    """Row-reduce a normalized copy of ``rows``, pivoting only in its
    first ``ncols`` columns.  Returns (R, pivot columns, scale).

    With ``jordan`` each pivot row is scaled to a leading 1 and its
    column cleared in every other row, so R is in reduced row echelon
    form.  Without it only the rows below are cleared, the first column
    with no pivot ends the pass, and ``scale`` is the determinant."""
    if not ring.is_field:
        raise StructuralError("row reduction needs field coefficients")
    p = ring.p
    if p:
        R = [[x % p if type(x) is int else ring.normalize(x) for x in row] for row in rows]
        mul = lambda a, b: a * b % p
        inv = lambda a: pow(a, -1, p)
        scaled = lambda c, row: [c * x % p for x in row]
    else:
        R = [[ring.normalize(x) for x in row] for row in rows]
        mul, sub, inv = ring.mul, ring.sub, ring.inv
        scaled = lambda c, row: [mul(c, x) for x in row]
        combine = lambda row, f, piv: [sub(x, mul(f, y)) for x, y in zip(row, piv)]
    m = len(R)
    pivots: list[int] = []
    scale = 1
    for col in range(ncols):
        r = len(pivots)
        for pivot in range(r, m):
            if R[pivot][col] != 0:
                break
        else:
            if jordan:
                continue
            return R, pivots, 0
        if pivot != r:
            R[r], R[pivot] = R[pivot], R[r]
            scale = -scale
        piv = R[r]
        c = inv(piv[col])
        if jordan:
            R[r] = piv = scaled(c, piv)
        else:
            scale = mul(scale, piv[col])
        for i in range(0 if jordan else r + 1, m):
            f = R[i][col]
            if f != 0 and i != r:
                f = f if jordan else mul(f, c)
                R[i] = [(x - f * y) % p for x, y in zip(R[i], piv)] if p else combine(R[i], f, piv)
        pivots.append(col)
        if r + 1 == m:
            break
    return R, pivots, scale % p if p else scale


def rref(rows: list[list], ring: CoefficientRing) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    R, pivots, _ = _eliminate(rows, ring, len(rows[0]) if rows else 0)
    return R, pivots


def rank(rows: list[list], ring: CoefficientRing) -> int:
    return len(_eliminate(rows, ring, len(rows[0]))[1]) if rows and rows[0] else 0


def reduce_system(rows: list[list], rhs: list[list],
                  ring: CoefficientRing) -> tuple[int, list[list], list[list | None]]:
    """Row-reduce [A | b_1 ... b_k] once (A nonempty), pivoting only in
    A's columns.

    Returns (rank of A, ``kernel_basis`` of A, the ``solve`` solution of
    A x = b_k for each k).  The left block of the reduced matrix is the
    unique reduced row echelon form of A, so every answer is the one
    the single-matrix routine gives."""
    n = len(rows[0])
    R, pivots, _ = _eliminate([list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)],
                              ring, n)
    at = {c: R[r] for r, c in enumerate(pivots)}  # pivot column -> its row
    kernel = [[ring.neg(at[c][j]) if c in at else int(c == j) for c in range(n)]
              for j in range(n) if j not in at]
    consistent = lambda k: all(row[k] == 0 for row in R[len(pivots):])
    solutions = [[at[c][k] if c in at else 0 for c in range(n)] if consistent(k) else None
                 for k in range(n, n + len(rhs))]
    return len(pivots), kernel, solutions


def kernel_basis(rows: list[list], ring: CoefficientRing) -> list[list]:
    """Basis of the right kernel {v : A v = 0}."""
    return reduce_system(rows, [], ring)[1] if rows else []


def solve(rows: list[list], rhs: list, ring: CoefficientRing) -> list | None:
    """One solution of A x = b with free variables set to 0, or None.

    Deterministic: with the RREF pivot structure fixed, this is the
    lexicographically-first solution of the row-reduced system.
    """
    return reduce_system(rows, [rhs], ring)[2][0] if rows else []


def det(rows: list[list], ring: CoefficientRing):
    """Determinant by forward elimination (field)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise StructuralError("determinant needs a square matrix")
    return _eliminate(rows, ring, n, jordan=False)[2]
