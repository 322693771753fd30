"""Reference implementations the test suite measures the library against.

Everything here favors obviousness over speed: schoolbook products,
cofactor expansion, one-factor-at-a-time matrix products.  None of it
shares code with the library paths under test, except the operation
counter, which wraps the library's prime field, the input record that
the Gauss systems are built as, and the divisibility check, which holds
the library's local factors against its O(p) oracle, with
rational_value (the O(p) oracle's A_p at a point), evaluate_at_X and
divides, thin helpers over the library's evaluation and remainder.
"""

from pcurvature import fields, polys, reconstruct
from pcurvature.diffop import (DiffSystem, companion_of_operator,
                               naive_invariant_factors)
from pcurvature.errors import PoleAtPoint
from pcurvature.fields import PrimeField


def int_polymul(f, g, p):
    """Schoolbook product of integer coefficient lists, reduced mod p."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def int_polyadd(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a % p
    for i, b in enumerate(g):
        out[i] = (out[i] + b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def matmul_schoolbook(K, A, B):
    n, m, l = len(A), len(B), len(B[0])
    out = [[K.zero] * l for _ in range(n)]
    for i in range(n):
        for j in range(l):
            acc = K.zero
            for k in range(m):
                acc = K.add(acc, K.mul(A[i][k], B[k][j]))
            out[i][j] = acc
    return out


def matpoly_mul_schoolbook(K, A, B):
    """Product of polynomial matrices, one coefficient product at a time.

    Every product of two entries is the schoolbook convolution with K.mul
    and K.add, so over an extension each coefficient product is reduced on
    its own and the packed kernel of linalg.matpoly_mul never runs.
    """
    out = []
    for row in A:
        orow = []
        for col in zip(*B):
            acc = []
            for a, b in zip(row, col):
                need = len(a) + len(b) - 1 - len(acc)
                if a and b and need > 0:
                    acc += [K.zero] * need
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        acc[i + j] = K.add(acc[i + j], K.mul(x, y))
            while acc and acc[-1] == K.zero:
                acc.pop()
            orow.append(acc)
        out.append(orow)
    return out


def matrix_factorial_sequential(K, B, count, eval_at):
    """B(count-1) ... B(1) B(0), one evaluation and product at a time."""
    n = len(B)
    acc = [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]
    for i in range(count):
        a = K.from_int(i)
        Bi = [[eval_at(K, e, a) for e in row] for row in B]
        acc = matmul_schoolbook(K, Bi, acc)
    return acc


def rank(K, M):
    """Rank by row echelon form of a copy of M."""
    rows = [list(row) for row in M]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != K.zero),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = K.inv(rows[r][c])
        for i in range(r + 1, len(rows)):
            f = K.mul(rows[i][c], inv)
            rows[i] = [K.sub(a, K.mul(f, b))
                       for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def inverse(K, M):
    """M^-1 by Gauss-Jordan elimination of [M | I], or None when M is
    singular."""
    n = len(M)
    rows = [list(row) + [K.one if i == j else K.zero for j in range(n)]
            for i, row in enumerate(M)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != K.zero), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = K.inv(rows[c][c])
        rows[c] = [K.mul(inv, e) for e in rows[c]]
        for i in range(n):
            if i != c:
                f = rows[i][c]
                rows[i] = [K.sub(a, K.mul(f, b))
                           for a, b in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def rank_profile(K, M):
    """Ranks of M^0, M^1, ... up to the first repeat, as a tuple."""
    n = len(M)
    acc = [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]
    ranks = [n]
    while True:
        acc = matmul_schoolbook(K, acc, M)
        r = rank(K, acc)
        if r == ranks[-1]:
            return tuple(ranks)
        ranks.append(r)


def det_cofactor(K, M):
    """Determinant by cofactor expansion; fine up to 5x5 or so."""
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = K.zero
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = K.mul(M[0][j], det_cofactor(K, minor))
        acc = K.add(acc, K.neg(term) if j % 2 else term)
    return acc


def charpoly_cofactor(K, polyring, M):
    """det(T*I - M) computed over the polynomial ring by cofactors.

    polyring must provide zero/one/add/mul/neg matching the list-of-
    coefficients convention, e.g. a thin wrapper over pcurvature.polys.
    """
    n = len(M)
    TM = [[polyring.sub([K.zero, K.one] if i == j else [],
                        [M[i][j]] if M[i][j] != K.zero else [])
           for j in range(n)] for i in range(n)]
    return _det_polys(polyring, TM)


def _det_polys(R, M):
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = []
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = R.mul(M[0][j], _det_polys(R, minor))
        acc = R.add(acc, R.neg(term) if j % 2 else term)
    return acc


def sym2_system(K):
    """The symmetric square of the Gauss system over K (p > 2).

    The Gauss system is f_A Y' = [[0, f_A], [1/4, 2x - 1]] Y with
    f_A = x - x^2.  Row m of its symmetric square is the derivative of
    y1^(2-m) y2^m, written by hand from the product rule:
    A~ = [[0, 2 f_A, 0], [1/4, 2x - 1, f_A], [0, 1/2, 4x - 2]].
    """
    def c(*ints):
        return tuple(K.from_int(i) for i in ints)

    f_A = c(0, 1, -1)
    quarter, half = K.inv(K.from_int(4)), K.inv(K.from_int(2))
    return DiffSystem(K, f_A, (
        ((), c(0, 2, -2), ()),
        ((quarter,), c(-1, 2), f_A),
        ((), (half,), c(-2, 4)),
    ))


def symk_system(K, k):
    """The k-th symmetric power of the Gauss system over K (p > 2).

    Row m of A~ is the derivative of w_m = y1^(k-m) y2^m by the product
    rule: f_A w_m' = (k - m) f_A w_(m+1) + m/4 w_(m-1) + m (2x - 1) w_m.
    At k = 1 it is the Gauss system itself, and at k = 2 sym2_system.
    """
    f_A = tuple(K.from_int(i) for i in (0, 1, -1))
    quarter = K.inv(K.from_int(4))

    def entry(m, j):
        if j == m + 1:
            return tuple(K.mul(K.from_int(k - m), c) for c in f_A)
        if j == m - 1:
            return (K.mul(K.from_int(m), quarter),)
        if j == m:
            return (K.from_int(-m), K.from_int(2 * m))
        return ()

    return DiffSystem(K, f_A, tuple(
        tuple(entry(m, j) for j in range(k + 1)) for m in range(k + 1)))


def block_sum(*systems):
    """Block-diagonal sum of systems over one field with one f_A."""
    K, f_A = systems[0].K, systems[0].f_A
    assert all(s.K == K and s.f_A == f_A for s in systems)
    n, rows, at = sum(s.size for s in systems), [], 0
    for s in systems:
        for row in s.A_tilde:
            rows.append(((),) * at + row + ((),) * (n - at - s.size))
        at += s.size
    return DiffSystem(K, f_A, tuple(rows))


def sym2_gauss_system(K):
    """sym2_system(K) beside the Gauss system, block-diagonal, f_A = x - x^2.

    The application's shape: N = 15 at r = 5 and d = 2.  Its invariant
    factors are 1, 1, 1, T^2 and T^3, so no local class is cyclic.
    """
    return block_sum(sym2_system(K), symk_system(K, 1))


def rational_value(r, a, L, embed):
    """Value at x = a in L of r = (num, den) in K(x), embed mapping K into
    L; a zero denominator is a genuine pole, since den is coprime to num."""
    dv = polys.eval_at(L, [embed(c) for c in r[1]], a)
    if dv == L.zero:
        raise PoleAtPoint("denominator vanishes at the evaluation point")
    return L.mul(polys.eval_at(L, [embed(c) for c in r[0]], a), L.inv(dv))


def evaluate_at_X(L, bp, b, embed):
    """Specialize X to b in L, producing a T-polynomial over L."""
    return [polys.eval_at(L, [embed(c) for c in coeff], b) for coeff in bp]


def divides(K, f, g):
    """Whether f divides g (with 0 | 0 true)."""
    if not f:
        return not g
    return not polys.rem(K, g, f)


def verify_divisibility_lemma(inp, p, ell, a):
    """Check that the specialized factor products divide the local ones.

    At any non-pole point a, the product of the first j bivariate factors
    evaluated at X = a^p divides the product of the first j local factors,
    for every j; equality can fail (bad points) but divisibility cannot.
    """
    sysform = inp if isinstance(inp, DiffSystem) else companion_of_operator(inp)
    glob = naive_invariant_factors(sysform, p)
    scaled = reconstruct._scaled_local_factors(inp, ell, [a])[0]
    emb = fields.embedding(inp.K, ell)
    ap = ell.pow(a, p)
    spec = [evaluate_at_X(ell, g, ap, emb) for g in glob]
    P, Q = [ell.one], [ell.one]
    for gj, lj in zip(spec, scaled):
        P = polys.mul(ell, P, gj)
        Q = polys.mul(ell, Q, lj)
        if not divides(ell, P, Q):
            return False
    return True


class CountingPrimeField(PrimeField):
    """F_p that counts its calls of mul, dot and polymul in `ops`.

    The count is a measure of the work of a computation that, unlike a
    clock, repeats exactly from run to run.  Only the counters are added;
    the arithmetic is the library's own.
    """

    def __init__(self, p):
        super().__init__(p)
        self.ops = 0

    def mul(self, a, b):
        self.ops += 1
        return super().mul(a, b)

    def dot(self, xs, ys):
        self.ops += 1
        return super().dot(xs, ys)

    def polymul(self, f, g):
        self.ops += 1
        return super().polymul(f, g)
