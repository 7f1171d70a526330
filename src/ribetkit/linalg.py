"""Exact dense linear algebra over the field coefficient rings.

Plain Gaussian elimination on lists of lists.  Entries are rationals
(QQ: ints when integral, Fractions otherwise) or ints reduced mod p
(GF).  Matrices here are small (a handful of rows/columns), so clarity
beats asymptotics.
"""

from __future__ import annotations

from .errors import StructuralError
from .exactpoly import CoefficientRing


def rref(rows: list[list], ring: CoefficientRing) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    if not ring.is_field:
        raise StructuralError("rref needs field coefficients")
    R = [[ring.normalize(x) for x in row] for row in rows]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if R[i][col] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = ring.inv(R[r][col])
        R[r] = [ring.mul(inv, x) for x in R[r]]
        for i in range(m):
            if i != r and R[i][col] != 0:
                f = R[i][col]
                R[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return R, pivots


def rank(rows: list[list], ring: CoefficientRing) -> int:
    if not rows or not rows[0]:
        return 0
    return len(rref(rows, ring)[1])


def kernel_basis(rows: list[list], ring: CoefficientRing) -> list[list]:
    """Basis of the right kernel {v : A v = 0}."""
    if not rows:
        return []
    n = len(rows[0])
    R, pivots = rref(rows, ring)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        v = [ring.zero()] * n
        v[j] = ring.one()
        for r, pc in enumerate(pivots):
            v[pc] = ring.neg(R[r][j])
        basis.append(v)
    return basis


def solve(rows: list[list], rhs: list, ring: CoefficientRing) -> list | None:
    """One solution of A x = b with free variables set to 0, or None.

    Deterministic: with the RREF pivot structure fixed, this is the
    lexicographically-first solution of the row-reduced system.
    """
    if not rows:
        return []
    n = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    R, pivots = rref(aug, ring)
    if n in pivots:
        return None  # inconsistent
    x = [ring.zero()] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return x


def det(rows: list[list], ring: CoefficientRing):
    """Determinant by fraction-free-enough Gaussian elimination (field)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise StructuralError("determinant needs a square matrix")
    M = [[ring.normalize(x) for x in row] for row in rows]
    sign = ring.one()
    acc = ring.one()
    for col in range(n):
        pivot = next((i for i in range(col, n) if M[i][col] != 0), None)
        if pivot is None:
            return ring.zero()
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            sign = ring.neg(sign)
        p = M[col][col]
        acc = ring.mul(acc, p)
        inv = ring.inv(p)
        for i in range(col + 1, n):
            if M[i][col] != 0:
                f = ring.mul(M[i][col], inv)
                M[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(M[i], M[col])]
    return ring.mul(sign, acc)

