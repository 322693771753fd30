import random

import pytest
from hypothesis import given, strategies as st

from pcurvature import fields, linalg, polys
from pcurvature.errors import NotSquare
from oracles import (matmul_schoolbook, matrix_factorial_sequential,
                     rank_profile)

F5 = fields.PrimeField(5)
F101 = fields.PrimeField(101)

mat3 = st.lists(
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
    min_size=3, max_size=3,
).map(lambda M: [[F5.from_int(c) for c in row] for row in M])


class _PolyRing:
    """polys functions bound to one field, for the cofactor oracle."""

    def __init__(self, K):
        self.K = K

    def add(self, f, g):
        return polys.add(self.K, f, g)

    def sub(self, f, g):
        return polys.sub(self.K, f, g)

    def mul(self, f, g):
        return polys.mul(self.K, f, g)

    def neg(self, f):
        return polys.neg(self.K, f)


def _charpoly_cofactor(K, M):
    n = len(M)
    TM = [[polys.sub(K, [K.zero, K.one] if i == j else [], [M[i][j]])
           for j in range(n)] for i in range(n)]
    return _det(_PolyRing(K), TM)


def _det(R, M):
    if len(M) == 1:
        return M[0][0]
    acc = []
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = R.mul(M[0][j], _det(R, minor))
        acc = R.add(acc, R.neg(term) if j % 2 else term)
    return acc


def _companion(K, f):
    n = len(f) - 1
    C = [[K.zero] * n for _ in range(n)]
    for i in range(n - 1):
        C[i][i + 1] = K.one
    for j in range(n):
        C[n - 1][j] = K.neg(f[j])
    return C


@given(mat3, mat3)
def test_matmul_matches_schoolbook(A, B):
    assert linalg.matmul(F5, A, B) == matmul_schoolbook(F5, A, B)


def test_matmul_dimension_check():
    with pytest.raises(Exception):
        linalg.matmul(F5, [[F5.one]], [[F5.one], [F5.one]])


@pytest.mark.parametrize("p", [5, 13, 101, 997])
def test_wilson_factorial(p):
    # (p-1)! = -1 mod p, as the product of the 1x1 matrices [u+1]
    K = fields.PrimeField(p)
    B = [[[K.one, K.one]]]
    got = linalg.matrix_factorial(K, B, p - 1)
    assert got == [[K.from_int(p - 1)]]


@pytest.mark.parametrize("count", [0, 1, 2, 15, 16, 50, 97, 100])
def test_matrix_factorial_matches_sequential(count, rng):
    B = [[polys.trim(F101, [F101.from_int(rng.randrange(101))
                            for _ in range(3)])
          for _ in range(2)] for _ in range(2)]
    got = linalg.matrix_factorial(F101, B, count)
    want = matrix_factorial_sequential(F101, B, count, polys.eval_at)
    assert got == want


def test_matrix_factorial_requires_square():
    with pytest.raises(NotSquare):
        linalg.matrix_factorial(F5, [[[F5.one]], [[F5.one]]], 3)


def test_invariant_factors_zero_matrix():
    Z = [[F5.zero, F5.zero], [F5.zero, F5.zero]]
    T = [F5.zero, F5.one]
    assert linalg.invariant_factors_of(F5, Z) == [T, T]


def test_invariant_factors_single_jordan_block():
    N = [[F5.zero, F5.one], [F5.zero, F5.zero]]
    assert linalg.invariant_factors_of(F5, N) == [
        [F5.one], [F5.zero, F5.zero, F5.one]]


def test_invariant_factors_of_companion_matrix(rng):
    for _ in range(10):
        f = [F5.from_int(rng.randrange(5)) for _ in range(4)] + [F5.one]
        C = _companion(F5, f)
        facs = linalg.invariant_factors_of(F5, C)
        assert facs == [[F5.one]] * 3 + [f]


@given(mat3)
def test_invariant_factor_product_is_charpoly(M):
    facs = linalg.invariant_factors_of(F5, M)
    prod = [F5.one]
    for f in facs:
        prod = polys.mul(F5, prod, f)
    assert prod == _charpoly_cofactor(F5, M)
    # ascending divisibility chain
    for a, b in zip(facs, facs[1:]):
        assert polys.divides(F5, a, b)


@given(mat3, st.integers(0, 10 ** 6))
def test_invariant_factors_similarity_invariant(M, seed):
    rng = random.Random(seed)
    while True:
        U = [[F5.from_int(rng.randrange(5)) for _ in range(3)]
             for _ in range(3)]
        if linalg.LinearSolver(F5, U).rank == 3:
            break
    Uinv = _inverse(F5, U)
    conj = linalg.matmul(F5, U, linalg.matmul(F5, M, Uinv))
    assert (linalg.invariant_factors_of(F5, conj)
            == linalg.invariant_factors_of(F5, M))


def _inverse(K, U):
    n = len(U)
    solver = linalg.LinearSolver(K, U)
    cols = []
    for j in range(n):
        e = [K.one if i == j else K.zero for i in range(n)]
        cols.append(solver.solve(e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def test_linear_solver_solves_consistent_systems(rng):
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[F5.from_int(rng.randrange(5)) for _ in range(n)]
             for _ in range(m)]
        x = [F5.from_int(rng.randrange(5)) for _ in range(n)]
        v = linalg.matvec(F5, M, x)
        got = linalg.LinearSolver(F5, M).solve(v)
        assert got is not None
        assert linalg.matvec(F5, M, got) == v


def test_linear_solver_detects_inconsistency():
    M = [[F5.one, F5.zero], [F5.one, F5.zero]]
    v = [F5.one, F5.from_int(2)]
    assert linalg.LinearSolver(F5, M).solve(v) is None


def test_kernel_dims_match_valuations_of_invariant_factors(rng):
    # dim ker N^e = 4 - rank(N^e) = sum_j min(e, v_j), with v_j the T-adic
    # valuations; the ranks come from the independent oracle
    for _ in range(30):
        N = [[F5.from_int(rng.randrange(5)) if j > i else F5.zero
              for j in range(4)] for i in range(4)]
        facs = linalg.invariant_factors_of(F5, N)
        vals = []
        for f in facs:
            v = 0
            while v < len(f) and f[v] == F5.zero:
                v += 1
            vals.append(v)
        ranks = rank_profile(F5, N)
        for e in range(5):
            got = 4 - ranks[min(e, len(ranks) - 1)]
            assert got == sum(min(e, v) for v in vals)


def test_rank_profile_pins():
    M = [[F5.zero] * 3 for _ in range(3)]
    M[1][2] = F5.one
    assert rank_profile(F5, M) == (3, 1, 0)
    I2 = linalg.identity(F5, 2)
    assert rank_profile(F5, I2) == (2,)


@given(mat3)
def test_rank_profile_differences_nonincreasing(M):
    ranks = rank_profile(F5, M)
    diffs = [a - b for a, b in zip(ranks, ranks[1:])]
    assert all(d >= 0 for d in diffs)
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))
