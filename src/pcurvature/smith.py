"""Exact linear algebra that a solve over F_p with cyclic classes never
runs: the Smith form and the characteristic matrix.

The Smith form reads the class of a derogatory matrix from its m x m
Krylov relation matrix (linalg.invariant_factors_of), and the O(p)
oracle's p-curvature over F_q(x) from T - A_p itself (char_matrix, for
diffop.rational_invariant_factors only).  Each caller imports this module
where it needs it.  Nothing here assumes the field is finite, so the
Smith form also runs over K(x).
"""

from . import polys
from .errors import NotSquare


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
