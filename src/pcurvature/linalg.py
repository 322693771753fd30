"""Matrices over a field object: products, factorials, invariant factors.

A matrix is a list of rows, each a list of field elements.
invariant_factors_of reads the class of a square matrix off one Krylov
decomposition, and imports smith only for a derogatory matrix, for the
Smith form of its m x m matrix of Krylov relations.

matrix_factorial is the square-root trick of Bostan, Gaudry and Schost:
to multiply count consecutive values B(count-1)...B(1)B(0) of a polynomial
matrix, form the baby-step product P_s(u) = B(u+s-1)...B(u) once,
evaluate it at u = 0, s, 2s, ... by fast multipoint evaluation, and chain
the evaluated matrices (the giant steps) together, then the count mod s
leftover factors.  s is a power of two, and P_s comes from log2(s)
doublings P_2k(u) = P_k(u+k) P_k(u), each a product after a Taylor shift
of its left factor by an integer.  The leftover factors go in runs of k,
one per set bit k of count mod s, each one evaluation of the P_k of that
chain (_leftover_parts).  The giant steps and leftover runs are one
chain over the nonzero pattern of P_s (P_k for a run), fed each point's
values as the tree gives them, with no step matrices.  A right factor of
r columns (local_eval passes the r corner columns of the identity) makes
each step an N x N by N x r product.

The factorial runs over the batch ring K of points of a field ell, ell^n
in value form (fields.SplitRing; TypeError on any other ring).  Its
kernels are K.chain, and K.matpoly_mul for polynomial matrices, which it
takes and returns in row form (fields.MatrixRows): one row over F_p per
u-coefficient of each coordinate of each nonzero entry, kept column by
column.  The baby steps stay in row form from B to P_s.  Each shift is
one K.shift_rows of the whole matrix while its entries are no longer
than p, the product packs its factors straight from the columns, and P_s
goes down subproduct trees over F_p (polys.SubproductTree) at the
integers 0, s, ..., (g - 1)s as it is, one tree per node of the tree
over all of them that would hand it down undivided, and the leftover
runs evaluate P_k by K.rows_at.

The analysis balances s against count/s, which puts s near sqrt(count):
baby_step_length takes the largest power of two whose square is at most
count, which lies in (sqrt(count) / 2, sqrt(count)].
"""

from . import fields, polys
from .errors import DimensionMismatch, NotSquare


def identity(K, n):
    return [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]


def _require_batch_ring(K):
    if not isinstance(K, fields.SplitRing):
        raise TypeError(f"need a batch ring (fields.SplitRing), not {K}")


def matmul(K, A, B):
    """A B over a batch ring K: one step of K.chain, on the pattern of A's
    nonzero entries."""
    _require_batch_ring(K)
    if len(B) != len(A[0]):
        raise DimensionMismatch(
            f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{len(B[0])}")
    zero, m = K.zero, len(B)
    pattern = [[(k, i * m + k) for k, a in enumerate(row) if a != zero]
               for i, row in enumerate(A)]
    return K.chain(pattern, [[a for row in A for a in row]], B)


def matvec(K, A, v):
    if len(v) != len(A[0]):
        raise DimensionMismatch("matrix and vector sizes do not match")
    return [K.dot(row, v) for row in A]


def matpoly_mul(K, A, B):
    """K.matpoly_mul of MatrixRows A and B.  The baby steps call it by
    this name, which perfbench's tracer wraps, as it wraps matmul."""
    return K.matpoly_mul(A, B)


def baby_step_length(count):
    """The s that matrix_factorial uses for count >= 16 factors: the largest
    power of two whose square is at most count, in (sqrt(count) / 2,
    sqrt(count)], so s = Theta(sqrt(count)) as the O~(sqrt p) bound needs."""
    return 1 << (count.bit_length() - 1) // 2


def _leftover_parts(t):
    """The set bits of t, largest first: for t < s, the t leftover factors
    of matrix_factorial as one evaluation of P_k per part k, a prefix of
    the doubling chain of s."""
    return [1 << j for j in reversed(range(t.bit_length())) if t >> j & 1]


def _shifted(K, M, k):
    """M(u + k) for MatrixRows M and an integer k: one shift_rows of the
    whole matrix while its entries are no longer than p, else one
    polys.taylor_shift per entry."""
    if len(M.cols) <= K.char:
        return K.shift_rows(M, k % K.char)
    a = K.from_int(k)
    return K.rows_of([[polys.taylor_shift(K, e, a) for e in row]
                      for row in K.matrix_of(M)])


def _baby_steps(K, B, s, keep=()):
    """P_s(u) = B(u+s-1) ... B(u+1) B(u) for a power of two s, by log2(s)
    doublings P_2k(u) = P_k(u+k) P_k(u).  Also returns {k: P_k} for each k
    in keep, a power of two below s.  B and the products are MatrixRows."""
    P, kept = B, {}
    for j in range(s.bit_length() - 1):
        k = 1 << j
        if k in keep:
            kept[k] = P
        P = matpoly_mul(K, _shifted(K, P, k), P)
    return P, kept


def matrix_factorial(K, B, count, right=None):
    """B(count-1) ... B(1) B(0) right for a square polynomial matrix B(u)
    over a packed ring K.

    right is an N x r matrix and defaults to the identity; the giant steps
    and leftover factors then multiply N x N by N x r.  count may exceed
    the characteristic: the evaluation points then repeat, and the baby
    steps shift entries longer than p, which polys.taylor_shift handles.
    """
    _require_batch_ring(K)
    n = len(B)
    if any(len(row) != n for row in B):
        raise NotSquare("matrix factorial needs a square matrix")
    acc = identity(K, n) if right is None else [list(row) for row in right]
    if len(acc) != n:
        raise DimensionMismatch(
            f"cannot multiply {n}x{n} by {len(acc)} rows")
    P = K.rows_of(B)
    if count < 16:
        return _chain_at(K, P, range(count), acc)
    s = baby_step_length(count)
    g = count // s
    parts = _leftover_parts(count - g * s)
    baby, kept = _baby_steps(K, P, s, set(parts))
    pattern = _nonzero(baby)
    # the tree over all g points hands the rows of P_s down untouched at
    # every node of at least as many points as they have coefficients, so
    # it is one tree per such node, or per base case, whose values the
    # chain takes before the next tree is evaluated
    node = max(1 << (len(baby.cols) - 1).bit_length(),
               polys.SubproductTree.BASE_CASE)
    for i in range(0, g, node):
        points = range(i * s, min(i + node, g) * s, s)
        acc = K.chain(pattern, polys.SubproductTree(K, points).evaluate(baby),
                      acc)
    i = g * s
    for k in parts:
        # P_k(i) = B(i+k-1) ... B(i)
        acc = _chain_at(K, kept[k], [i], acc)
        i += k
    return acc


def _nonzero(P):
    """The pattern, for K.chain, of a square MatrixRows P: row i lists
    (k, q) for its q-th nonzero entry, in row i and column k."""
    n = P.shape[1]
    pattern = [[] for _ in range(n)]
    for q, e in enumerate(P.entries):
        pattern[e // n].append((e % n, q))
    return pattern


def _chain_at(K, P, points, acc):
    """K.chain of the values of MatrixRows P at each of points."""
    steps = K.rows_at(P.cols, [a % K.char for a in points])
    return K.chain(_nonzero(P), steps, acc)


def invariant_factors_of(K, A):
    """Invariant factors of a square matrix, as smith.smith_form(K,
    smith.char_matrix(K, A)) gives them, from one Krylov decomposition
    (Storjohann 1998): block i runs v_i, A v_i, ... from v_1 = e_1, then
    the first unit vector off the pivots so far, until A^(d_i) v_i gives a
    relation g_i(A) v_i = sum over j < i of h_ij(A) v_j, g_i monic of
    degree d_i.  As sum d_i = r, the m relations generate all: the factors
    are r - m ones and the Smith form of their matrix over K[T], which is
    [g_1], the characteristic polynomial, when A is cyclic (Giesbrecht's
    cyclic vector), and then smith is not imported.  Each basis vector is
    1 at its pivot, 0 at earlier ones, and carries its coordinates over
    the Krylov vectors (its own last), which the same subtractions reduce.
    """
    r = len(A)
    if any(len(row) != r for row in A):
        raise NotSquare("characteristic matrix needs a square input")
    zero, one, sub, mul = K.zero, K.one, K.sub, K.mul
    zeros, free, basis, starts, R = [zero] * r, list(range(r)), [], [], []
    while free:
        v = [one if i == free[0] else zero for i in range(r)]
        starts.append(len(basis))
        while True:
            w = v + [zero] * len(basis)
            for piv, b in basis:
                c = w[piv]
                if c != zero:
                    w[:len(b)] = [sub(x, mul(c, y)) if y != zero else x
                                  for x, y in zip(w, b)]
            if w[:r] == zeros:
                break
            piv = 0
            while w[piv] == zero:
                piv += 1
            free.remove(piv)
            c = w[piv]
            if c != one:
                c = K.inv(c)
                w = [mul(c, x) for x in w]
            basis.append((piv, w + [c]))
            v = matvec(K, A, v)
        rel = w[r:] + [one]
        R.append([rel[a:b] for a, b in zip(starts, starts[1:] + [len(rel)])])
    ones = [[one] for _ in range(r - len(R))]
    if len(R) < 2:
        return ones + [row[0] for row in R]
    from . import smith
    return ones + smith.smith_form(K, [row + [[]] * (len(R) - len(row))
                                       for row in R])
