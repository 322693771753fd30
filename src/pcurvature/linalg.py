"""Matrices over a field object: products, factorials, Smith normal form.

A matrix is a list of rows, each a list of field elements; a polynomial
matrix has coefficient lists as entries.  Nothing here assumes the field is
finite, so the Smith form also runs over K(x) for the baseline computation.

matrix_factorial is the square-root trick of Bostan, Gaudry and Schost:
to multiply count consecutive values B(count-1)...B(1)B(0) of a polynomial
matrix, form the baby-step product P_s(u) = B(u+s-1)...B(u) once with s
near sqrt(count), evaluate it at u = 0, s, 2s, ... by fast multipoint
evaluation, and chain the evaluated matrices (the giant steps) together,
then the count mod s leftover factors one at a time.  P_s comes from
doubling along the bits of s, P_2k(u) = P_k(u+k) P_k(u) and
P_(k+1)(u) = B(u+k) P_k(u): at most 2 log2(s) products, each after a Taylor
shift of its left factor by an integer (polys.taylor_shift).  s is chosen
near sqrt(count) so that the giant steps plus leftover factors are
fewest.  A right factor of r columns (local_eval passes the r corner
columns of the identity) makes each giant step and leftover factor an
N x N by N x r product.

Every inner product of field elements is one K.dot, which every field
object has: matvec always, and matmul unless K is `packed`.  Over a packed
K, matmul and matpoly_mul go through K.matpoly_mul.  A packed K is an
extension F_p[u]/S, which sums each row-by-column inner product of
polynomials as integers and reduces each output coefficient once, or a
split ring F_p^n (fields.SplitRing), which runs one Kronecker product per
coordinate and multiplies constant matrices pointwise.  So over a packed K
the baby steps and the giant steps both run in packed integers or
pointwise.  On any field, all N^2 entries of the baby-step product go
down one subproduct tree in one SubproductTree.evaluate call.  Over a
packed K the evaluation points lie in F_p, so the tree has F_p
coefficients: each node's remainder, and the direct evaluation below
BASE_CASE points, works on every coordinate of every entry at once in
packed integers, with no reduction mod S.
"""

import math

from . import polys
from .errors import DimensionMismatch, NotSquare


def identity(K, n):
    return [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]


def mat_sub(K, A, B):
    return [[K.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(K, A):
    return [[K.neg(a) for a in row] for row in A]


def matmul(K, A, B):
    if len(B) != len(A[0]):
        raise DimensionMismatch(
            f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{len(B[0])}")
    if getattr(K, "packed", False):
        # constant polynomials through the packed kernel, called on K so
        # that the matpoly_mul of this module counts only polynomial products
        C = K.matpoly_mul([[[a] for a in row] for row in A],
                          [[[b] for b in row] for row in B])
        return [[e[0] if e else K.zero for e in row] for row in C]
    cols = list(zip(*B))
    return [[K.dot(row, col) for col in cols] for row in A]


def matvec(K, A, v):
    if len(v) != len(A[0]):
        raise DimensionMismatch("matrix and vector sizes do not match")
    return [K.dot(row, v) for row in A]


def mat_map(f, A):
    return [[f(e) for e in row] for row in A]


def matpoly_mul(K, A, B):
    """Product of matrices whose entries are polynomials over K.

    A `packed` field (an extension of F_p) computes it in one pass of
    integer products; any other field takes one polynomial product per
    pair of entries.
    """
    if len(B) != len(A[0]):
        raise DimensionMismatch("polynomial matrix sizes do not match")
    if getattr(K, "packed", False):
        return K.matpoly_mul(A, B)
    cols = list(zip(*B))
    out = []
    for row in A:
        orow = []
        for col in cols:
            acc = []
            for a, b in zip(row, col):
                if a and b:
                    acc = polys.add(K, acc, polys.mul(K, a, b))
            orow.append(acc)
        out.append(orow)
    return out


def matpoly_eval(K, B, a):
    return [[polys.eval_at(K, e, a) for e in row] for row in B]


def baby_step_length(count):
    """The s of matrix_factorial for count >= 16: in [0.8, 1.25] times
    sqrt(count), the smallest s with the fewest giant steps and leftover
    factors, count // s + count % s."""
    root = math.sqrt(count)
    return min(range(max(int(0.8 * root), 1), int(1.25 * root) + 2),
               key=lambda s: count // s + count % s)


def _shifted(K, M, k):
    """M(u + k) for a polynomial matrix M and an integer k."""
    a = K.from_int(k)
    return [[polys.taylor_shift(K, e, a) for e in row] for row in M]


def _baby_steps(K, B, s):
    """P_s(u) = B(u+s-1) ... B(u+1) B(u), doubling along the bits of s:
    P_2k(u) = P_k(u+k) P_k(u) and P_(k+1)(u) = B(u+k) P_k(u)."""
    P, k = B, 1
    for bit in bin(s)[3:]:
        P = matpoly_mul(K, _shifted(K, P, k), P)
        k *= 2
        if bit == "1":
            P = matpoly_mul(K, _shifted(K, B, k), P)
            k += 1
    return P


def matrix_factorial(K, B, count, right=None):
    """B(count-1) ... B(1) B(0) right for a square polynomial matrix B(u).

    right is an N x r matrix and defaults to the identity; the giant steps
    and leftover factors then multiply N x N by N x r.  count may exceed
    the characteristic: the evaluation points then repeat, and the baby
    steps shift entries longer than p, which polys.taylor_shift handles.
    """
    n = len(B)
    if any(len(row) != n for row in B):
        raise NotSquare("matrix factorial needs a square matrix")
    acc = identity(K, n) if right is None else [list(row) for row in right]
    if len(acc) != n:
        raise DimensionMismatch(
            f"cannot multiply {n}x{n} by {len(acc)} rows")
    if count < 16:
        for i in range(count):
            acc = matmul(K, matpoly_eval(K, B, K.from_int(i)), acc)
        return acc
    s = baby_step_length(count)
    baby = _baby_steps(K, B, s)
    g = count // s
    pts = [K.from_int(j * s) for j in range(g)]
    vals = polys.SubproductTree(K, pts).evaluate(
        [e for row in baby for e in row])
    # only the values feed the giant steps; free the product
    del baby
    for j in range(g):
        step = [[vals[i * n + k][j] for k in range(n)] for i in range(n)]
        acc = matmul(K, step, acc)
    for i in range(g * s, count):
        acc = matmul(K, matpoly_eval(K, B, K.from_int(i)), acc)
    return acc


class LinearSolver:
    """Solver for M x = v with a fixed m x n matrix M over a field.

    Elimination happens once on the augmented matrix [M | I]; solving a
    right-hand side is then a matrix-vector product plus a consistency
    check on the non-pivot rows.
    """

    def __init__(self, K, M):
        self.K = K
        self.m = len(M)
        self.n = len(M[0]) if M else 0
        R = [list(row) + [K.one if i == j else K.zero
                          for j in range(self.m)]
             for i, row in enumerate(M)]
        pivots = []
        r = 0
        for c in range(self.n):
            pr = next((i for i in range(r, self.m) if R[i][c] != K.zero),
                      None)
            if pr is None:
                continue
            R[r], R[pr] = R[pr], R[r]
            inv = K.inv(R[r][c])
            R[r] = [K.mul(inv, e) for e in R[r]]
            for i in range(self.m):
                if i != r and R[i][c] != K.zero:
                    f = R[i][c]
                    R[i] = [K.sub(a, K.mul(f, b))
                            for a, b in zip(R[i], R[r])]
            pivots.append(c)
            r += 1
        self.rank = r
        self.pivots = pivots
        self.transform = [row[self.n:] for row in R]

    def solve(self, v):
        """A solution x of M x = v, or None when the system is inconsistent.

        When the matrix has full column rank the solution is unique.
        """
        K = self.K
        w = matvec(K, self.transform, v)
        for i in range(self.rank, self.m):
            if w[i] != K.zero:
                return None
        x = [K.zero] * self.n
        for i, c in enumerate(self.pivots):
            x[c] = w[i]
        return x


def char_matrix(K, A):
    """T*I - A as a matrix of polynomials in T over K."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise NotSquare("characteristic matrix needs a square input")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            e = polys.constant(K, K.neg(A[i][j]))
            if i == j:
                e = polys.add(K, e, [K.zero, K.one])
            row.append(e)
        out.append(row)
    return out


def smith_form(K, M):
    """Invariant factors of a polynomial matrix, ascending divisibility.

    Returns min(m, n) monic polynomials d_1 | d_2 | ... with unit factors
    kept as [1] and zero factors (from rank deficiency) as [] at the end.
    """
    A = [[polys.trim(K, list(e)) for e in row] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    size = min(m, n)
    out = []
    t = 0
    while t < size:
        pr = pc = -1
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = A[i][j]
                if e and (best is None or len(e) < best):
                    best, pr, pc = len(e), i, j
        if best is None:
            break
        A[t], A[pr] = A[pr], A[t]
        for row in A:
            row[t], row[pc] = row[pc], row[t]
        while True:
            # shrink the pivot until it divides its whole column ...
            dirty = False
            for i in range(t + 1, m):
                if not A[i][t]:
                    continue
                q, _ = polys.quorem(K, A[i][t], A[t][t])
                if q:
                    for j in range(t, n):
                        if A[t][j]:
                            A[i][j] = polys.sub(
                                K, A[i][j], polys.mul(K, q, A[t][j]))
                if A[i][t]:
                    A[t], A[i] = A[i], A[t]
                    dirty = True
            if dirty:
                continue
            # ... then its whole row, which may dirty the column again
            dirty = False
            for j in range(t + 1, n):
                if not A[t][j]:
                    continue
                q, _ = polys.quorem(K, A[t][j], A[t][t])
                if q:
                    for i in range(t, m):
                        if A[i][t]:
                            A[i][j] = polys.sub(
                                K, A[i][j], polys.mul(K, q, A[i][t]))
                if A[t][j]:
                    for row in A:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] and polys.rem(K, A[i][j], A[t][t]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull the offending row into the pivot row; the next pass of
            # row reduction then shrinks the pivot by a Euclid step
            for j in range(t, n):
                A[t][j] = polys.add(K, A[t][j], A[offender][j])
        out.append(polys.monic(K, A[t][t]))
        t += 1
    while len(out) < size:
        out.append([])
    return out


def invariant_factors_of(K, A):
    """Invariant factors of a square matrix: the Smith form of T*I - A."""
    return smith_form(K, char_matrix(K, A))
