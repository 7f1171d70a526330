"""Row reduction over GF(p) against the same matrices over QQ: seeded
random integer matrices, full rank and rank-deficient."""

import random
from fractions import Fraction

import pytest

from ribetkit.errors import StructuralError
from ribetkit.exactpoly import GF, QQ, ZZ
from ribetkit.linalg import det, kernel_basis, rank, reduce_system, rref, solve

PRIMES = [3, 10007, 2**31 - 1]


def _random_matrix(rng, m, n, r):
    """An m x n integer matrix of rank at most r: a product of random
    m x r and r x n factors, with a few large and negative entries."""
    left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
    right = [[rng.choice((rng.randint(-9, 9), rng.randint(-2**40, 2**40))) for _ in range(n)]
             for _ in range(r)]
    return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(m)]


def _matrices(p):
    rng = random.Random(f"linalg:{p}")
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        yield _random_matrix(rng, m, n, rng.randint(0, min(m, n)))


def _apply(A, x, p=None):
    """A x, exactly or mod p."""
    Ax = [sum(a * v for a, v in zip(row, x)) for row in A]
    return Ax if p is None else [v % p for v in Ax]


@pytest.mark.parametrize("p", PRIMES)
def test_det_over_gf_is_the_rational_det_mod_p(p):
    rng = random.Random(f"det:{p}")
    for _ in range(60):
        n = rng.randint(0, 6)
        A = _random_matrix(rng, n, n, rng.randint(max(n - 1, 0), n))
        assert det(A, GF(p)) == det(A, QQ) % p, A


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_vectors_are_killed_and_count_the_nullity(p):
    for A in _matrices(p):
        kern = kernel_basis(A, GF(p))
        n = len(A[0])
        assert len(kern) == n - rank(A, GF(p))
        assert rank(kern, GF(p)) == len(kern)
        assert all(_apply(A, k, p) == [0] * len(A) for k in kern)
        assert all(_apply(A, k) == [0] * len(A) for k in kernel_basis(A, QQ))


@pytest.mark.parametrize("p", PRIMES)
def test_solve_solves_or_reports_inconsistency(p):
    rng = random.Random(f"solve:{p}")
    for A in _matrices(p):
        m = len(A)
        image = _apply(A, [rng.randint(0, 5) for _ in A[0]], p)
        for b in ([rng.randint(-50, 50) for _ in range(m)], image):
            x = solve(A, b, GF(p))
            consistent = rank([row + [v] for row, v in zip(A, b)], GF(p)) == rank(A, GF(p))
            assert (x is not None) == consistent, (A, b)
            if x is not None:
                assert _apply(A, x, p) == [v % p for v in b]


def _rref_answers(A, b, ring):
    """The kernel of A and the solution of A x = b read off rref([A | b])
    directly: its left block is rref(A); the solution is None when the
    last column has a pivot, else that column's pivot-row entries with
    every free variable 0."""
    n = len(A[0])
    R, pivots = rref([row + [v] for row, v in zip(A, b)], ring)
    kernel = []
    for j in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[j] = 1
        for r, pc in enumerate(pivots[:rank(A, ring)]):
            v[pc] = -R[r][j] % ring.p if ring.p else -R[r][j]
        kernel.append(v)
    if n in pivots:
        return kernel, None
    x = [0] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return kernel, x


@pytest.mark.parametrize("ring", [GF(10007), QQ])
def test_one_reduction_matches_rref_of_each_system(ring):
    rng = random.Random("reduce_system")
    for A in _matrices(10007):
        rhs = [[rng.randint(-9, 9) for _ in A] for _ in range(3)] + [[0] * len(A)]
        r, kern, sols = reduce_system(A, rhs, ring)
        assert r == len(rref(A, ring)[1])
        assert kern == _rref_answers(A, rhs[-1], ring)[0]
        assert sols == [_rref_answers(A, b, ring)[1] for b in rhs]


def test_qq_reduction_is_exact():
    A = [[2, 4, 1], [1, 3, 0]]
    R, pivots = rref(A, QQ)
    assert pivots == [0, 1]
    assert R == [[1, 0, Fraction(3, 2)], [0, 1, Fraction(-1, 2)]]
    assert solve(A, [1, 1], QQ) == [Fraction(-1, 2), Fraction(1, 2), 0]
    assert kernel_basis(A, QQ) == [[Fraction(-3, 2), Fraction(1, 2), 1]]
    assert det([[2, 1], [1, 3]], QQ) == 5
    assert det([[Fraction(1, 2), 1], [1, 3]], GF(7)) == (3 * pow(2, -1, 7) - 1) % 7


def test_elimination_needs_a_field_and_det_a_square_matrix():
    with pytest.raises(StructuralError):
        rref([[1, 2]], ZZ)
    with pytest.raises(StructuralError):
        det([[1, 2]], QQ)
