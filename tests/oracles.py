"""Reference implementations the test suite measures the library against.

Everything here favors obviousness over speed: schoolbook products,
cofactor expansion, one-factor-at-a-time matrix products.  None of it
shares code with the library paths under test, except the operation
counter, which wraps the library's prime field.
"""

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
