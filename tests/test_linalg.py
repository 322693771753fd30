import functools
import random

import pytest
from hypothesis import given, strategies as st

from pcurvature import fields, linalg, polys
from pcurvature.errors import NotSquare
from oracles import (CountingPrimeField, matmul_schoolbook,
                     matpoly_mul_schoolbook, matrix_factorial_sequential,
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


def _polymat(L, rng, rows, cols, longest):
    """A rows x cols matrix of polynomials over L of random lengths up to
    `longest`, about one entry in five zero."""
    def entry():
        if rng.random() < 0.2:
            return []
        return polys.trim(L, [L.random_elem(rng)
                              for _ in range(rng.randint(1, longest))])
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _extension_of(K, degree):
    return fields.ExtensionField(K, fields.find_irreducible(K, degree))


def _extension(p, degree):
    return _extension_of(fields.PrimeField(p), degree)


def _product_ring():
    # F_13[u]/((u - 1)(u - 2)(u^2 + 2)), squarefree, as the Monte Carlo
    # driver builds from the minimal polynomials of its sample points
    K = fields.PrimeField(13)
    m = [K.one]
    for f in ([12, 1], [11, 1], [2, 0, 1]):
        m = polys.mul(K, m, f)
    return fields.ExtensionField(K, m)


_RINGS = {
    "F_101^1": lambda: _extension(101, 1),
    "F_101^3": lambda: _extension(101, 3),
    "F_263^25": lambda: _extension(263, 25),
    "product ring over F_13": _product_ring,
    # neither of these is packed: they keep the per-entry loop
    "F_101": lambda: F101,
    "F_81 over F_9": lambda: _extension_of(_extension(3, 2), 2),
}


@pytest.mark.parametrize("ring", sorted(_RINGS))
@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (3, 1, 2), (6, 6, 6)])
def test_matpoly_mul_matches_schoolbook(ring, shape, rng):
    L = _RINGS[ring]()
    rows, inner, cols = shape
    for longest in (1, 3, 9):
        A = _polymat(L, rng, rows, inner, longest)
        B = _polymat(L, rng, inner, cols, rng.randint(1, 9))
        assert linalg.matpoly_mul(L, A, B) == matpoly_mul_schoolbook(L, A, B)


def test_matpoly_mul_worst_case_fills_every_slot():
    # every coefficient p - 1: each slot holds the full sum of its products,
    # and at this size dropping the inner dimension from the slot width
    # makes the slot one byte short
    p = 1000000007
    L = _extension(p, 3)
    top = L.base.from_int(-1)
    full = [tuple([top] * 3)] * 4
    A = [[full] * 4 for _ in range(2)]
    B = [[full] * 3 for _ in range(4)]
    assert linalg.matpoly_mul(L, A, B) == matpoly_mul_schoolbook(L, A, B)


def test_matpoly_mul_kernel_needs_a_prime_base():
    L = _RINGS["F_81 over F_9"]()
    with pytest.raises(TypeError):
        L.matpoly_mul([[[L.one]]], [[[L.one]]])


def test_matpoly_mul_reduces_once_per_output_coefficient(monkeypatch, rng):
    L = _extension(263, 25)
    A = [[[L.random_elem(rng) for _ in range(5)] for _ in range(6)]
         for _ in range(4)]
    B = [[[L.random_elem(rng) for _ in range(5)] for _ in range(3)]
         for _ in range(6)]
    calls = []
    reduce_product = fields.ExtensionField.reduce_product

    def counting(self, c):
        calls.append(len(c))
        return reduce_product(self, c)
    monkeypatch.setattr(fields.ExtensionField, "reduce_product", counting)
    out = linalg.matpoly_mul(L, A, B)
    length = max(len(e) for row in out for e in row)
    assert length == 9
    # one product at a time would reduce 4 * 3 * 6 * 9 times
    assert 0 < len(calls) <= 4 * 3 * length


_PACKED = ["F_101^1", "F_101^3", "F_263^25", "product ring over F_13"]

_MULTIPOINT_RINGS = {f"F_{p}^{n}": functools.partial(_extension, p, n)
                     for p in (101, 263) for n in (1, 12, 25)}
_MULTIPOINT_RINGS["product ring over F_13"] = _product_ring


@pytest.mark.parametrize("ring", sorted(_MULTIPOINT_RINGS))
def test_packed_multipoint_matches_pointwise(ring, rng):
    L = _MULTIPOINT_RINGS[ring]()
    p = L.base.p
    # odd counts carry nodes up the tree; over F_13, 31 points repeat
    for count in (1, 2, 7, 8, 9, 31):
        pts = [L.from_int(rng.randrange(p)) for _ in range(count)]
        tree = polys.SubproductTree(L, pts)
        assert tree.packed
        # long (first, so that later entries reuse node inverses of more
        # precision than they need), zero, constant, zero coefficients
        # inside, and short (fewer coefficients than points) entries
        zero_inside = [L.random_elem(rng), L.zero, L.zero, L.one]
        for f in ([L.random_elem(rng) for _ in range(2 * count + 3)],
                  [], [L.random_elem(rng)], zero_inside,
                  [L.random_elem(rng) for _ in range(max(count - 1, 1))]):
            f = polys.trim(L, f)
            assert tree.evaluate(f) == [polys.eval_at(L, f, a) for a in pts]


def test_packed_multipoint_worst_case_is_wider_than_a_machine_word(
        monkeypatch, rng):
    # every coefficient p - 1: the slots hold more than 8 bytes, and at
    # this size leaving the quotient length out of the slot width (the
    # factor k * min(k, d)) makes them too narrow
    p = 1000000007
    L = _extension(p, 3)
    f = [tuple([p - 1] * 3)] * 64
    pts = [L.from_int(rng.randrange(p)) for _ in range(31)]
    slots = []
    unpack = fields._unpack

    def recording(x, slot, count):
        slots.append(slot)
        return unpack(x, slot, count)
    monkeypatch.setattr(fields, "_unpack", recording)
    got = polys.SubproductTree(L, pts).evaluate(f)
    assert max(slots) > 8
    assert got == [polys.eval_at(L, f, a) for a in pts]


def _packed_multipoint_cost(count, monkeypatch):
    """Base-field operations plus slots unpacked by one packed evaluation
    of a polynomial of length 2*count at count points."""
    K = CountingPrimeField(10007)
    L = fields.ExtensionField(K, fields.find_irreducible(K, 4))
    rng = random.Random(count)
    f = [L.random_elem(rng) for _ in range(2 * count)]
    slots = [0]
    unpack = fields._unpack

    def counting(x, slot, n):
        slots[0] += n
        return unpack(x, slot, n)
    monkeypatch.setattr(fields, "_unpack", counting)
    K.ops = 0
    polys.SubproductTree(L, [L.from_int(37 * j) for j in range(count)]
                         ).evaluate(f)
    return K.ops + slots[0]


def test_packed_multipoint_cost_grows_quasi_linearly(monkeypatch):
    # 4x the points and degree: a quadratic method gives 16x; the tree
    # measured 785 -> 4205, 5.36x (a log factor over linear)
    small = _packed_multipoint_cost(32, monkeypatch)
    large = _packed_multipoint_cost(128, monkeypatch)
    assert large <= 6 * small, (small, large)


@pytest.mark.parametrize("ring", _PACKED)
@pytest.mark.parametrize("count", [15, 16, 64, 100])
def test_matrix_factorial_over_packed_rings_matches_sequential(
        ring, count, rng):
    L = _RINGS[ring]()
    B = [[polys.trim(L, [L.random_elem(rng) for _ in range(3)])
          for _ in range(2)] for _ in range(2)]
    got = linalg.matrix_factorial(L, B, count)
    assert got == matrix_factorial_sequential(L, B, count, polys.eval_at)


@pytest.mark.parametrize("ring", _PACKED)
@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (6, 6, 6)])
def test_matmul_over_packed_rings_matches_schoolbook(ring, shape, rng):
    L = _RINGS[ring]()
    rows, inner, cols = shape

    def mat(r, c):
        return [[L.zero if rng.random() < 0.2 else L.random_elem(rng)
                 for _ in range(c)] for _ in range(r)]
    A, B = mat(rows, inner), mat(inner, cols)
    assert linalg.matmul(L, A, B) == matmul_schoolbook(L, A, B)


def test_packed_matmul_of_zero_divisors(monkeypatch):
    L = _product_ring()
    u = L.gen
    a = L.sub(u, L.one)
    # (u - 1) * b is the modulus, so zero
    b = L.mul(L.sub(u, L.from_int(2)), L.add(L.mul(u, u), L.from_int(2)))
    A = [[a, a], [b, L.one]]
    B = [[b, a], [b, L.zero]]
    # the giant steps must not count as polynomial products
    monkeypatch.setattr(linalg, "matpoly_mul", None)
    got = linalg.matmul(L, A, B)
    assert got == matmul_schoolbook(L, A, B)
    assert got[0][0] == L.zero and a != L.zero and b != L.zero


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
