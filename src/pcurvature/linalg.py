"""Matrices over a field object: products, factorials, Smith normal form.

A matrix is a list of rows, each a list of field elements; a polynomial
matrix has coefficient lists as entries.  Nothing here assumes the field is
finite, so the Smith form also runs over K(x) for the baseline computation.

matrix_factorial is the square-root trick of Bostan, Gaudry and Schost:
to multiply count consecutive values B(count-1)...B(1)B(0) of a polynomial
matrix, form the baby-step product P_s(u) = B(u+s-1)...B(u) once,
evaluate it at u = 0, s, 2s, ... by fast multipoint evaluation, and chain
the evaluated matrices (the giant steps) together, then the count mod s
leftover factors.  P_s comes from doubling along the bits of s,
P_2k(u) = P_k(u+k) P_k(u) and P_(k+1)(u) = B(u+k) P_k(u): at most
2 log2(s) products, each after a Taylor shift of its left factor by an
integer (polys.taylor_shift).  The leftover factors go in runs of k, one
evaluation of a P_k of that chain each (_leftover_parts).  A right factor
of r columns (local_eval passes the r corner columns of the identity)
makes each giant step and leftover run an N x N by N x r product.

The analysis balances s against count/s with quasi-linear products,
which puts s near sqrt(count).  Here the baby steps multiply integers of
a few dozen digits, which CPython multiplies by schoolbook, so the last
doubling costs about N^3 n (s d)^2 and the balance lies lower.
baby_step_length picks the s of least estimated cost (_FactorialCost),
which prices each layer as the code runs it, in fitted units.

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

from . import fields, polys
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


def baby_step_length(K, B, count, r):
    """The s that matrix_factorial(K, B, count, right) uses, for count >= 16
    and right of r columns: the s in [1, 2 sqrt(count) + 1] of least
    estimated cost (_FactorialCost), the smallest one on a tie.

    It depends on the factorial's shape alone: N = len(B), r, count, the
    longest entry of B and the degree growth of its products
    (_degree_growth), the ring's degree and characteristic, and whether it
    is packed.  Candidates whose baby steps or giant steps alone already
    cost more than the best estimate are never fully priced, and the
    search stops once the doublings alone do, which grow with s."""
    cost = _FactorialCost(K, B, r)
    best_s = math.isqrt(count)
    best = cost.total(best_s, count)
    for s in range(1, 2 * best_s + 2):
        giant = count // s * cost.step
        if giant >= best:
            continue
        doublings, baby = cost.baby(s)
        if doublings >= best:
            break
        if baby + giant < best:
            price = cost.total(s, count)
            if price < best or price == best and s < best_s:
                best, best_s = price, s
    return best_s


def _degree_growth(B):
    """The largest mean degree per arc of a cycle of the graph with an arc
    i -> j of weight deg B[i][j] for each nonzero entry (Karp's algorithm).

    The entries of B(u+k-1) ... B(u) have degree at most about growth * k:
    d * k for B with every entry of degree d, but k for the recurrence
    matrices of local_eval, whose cycles gain one degree per arc (the
    workload operator, its companion system and sym2 all give 1)."""
    n = len(B)
    arcs = [(i, j, len(e) - 1) for i, row in enumerate(B)
            for j, e in enumerate(row) if e]
    # walks[k][v]: the heaviest walk of k arcs that ends at v, or None
    walks = [[0] * n]
    for _ in range(n):
        prev, nxt = walks[-1], [None] * n
        for i, j, w in arcs:
            if prev[i] is not None and (nxt[j] is None
                                        or prev[i] + w > nxt[j]):
                nxt[j] = prev[i] + w
        walks.append(nxt)
    return max((min((walks[n][v] - walks[k][v]) / (n - k)
                    for k in range(n) if walks[k][v] is not None)
                for v in range(n) if walks[n][v] is not None), default=0)


def _product_bytes(a, b):
    """Work of a CPython product of an a-byte and a b-byte integer, in byte
    products: schoolbook while the shorter factor is below the Karatsuba
    cutoff of 70 30-bit digits (262.5 bytes), else Karatsuba on blocks of
    its length."""
    a, b = min(a, b), max(a, b)
    return a * b if a < 263 else b * a ** 0.585 * 10.1


def _leftover_parts(s, t):
    """t < s as a sum of prefixes s >> j of the doubling chain of s, largest
    first, at most two of each: the t leftover factors of matrix_factorial
    as one evaluation of P_k per part k."""
    parts = []
    for j in range(1, s.bit_length()):
        k = s >> j
        while t >= k:
            parts.append(k)
            t -= k
    return parts


class _FactorialCost:
    """Estimated cost of matrix_factorial(K, B, count, right) at baby-step
    length s, in microseconds of CPU time on the bench's host (2-core
    x86-64, CPython 3.11).

    The estimate follows the code layer by layer.  P_k has entries of
    length at most growth * (k - 1) + d + 1, for d the degree of B.
      - Baby steps: each doubling P_k -> P_2k along the bits of s, and
        each odd bit's B(u+k) P_k, as its own product.
      - Multipoint: SubproductTree.evaluate on N^2 entries of length
        L(s) at g = count // s points, level by level as it descends.
      - Giant steps: g products of N x N by N x r.
      - Leftover factors: one evaluation of P_k and one giant step per
        part k of _leftover_parts(s, count mod s).
    Over a packed ring every layer is priced per ring coordinate, in the
    big-integer products of the Kronecker kernels (_product_bytes, at the
    slot widths the kernels choose) and the Python work per slot they
    pack, unpack or reduce.  Over any other ring the shifts by halves
    (L log L per entry) stand for the doublings, N^3 (d + 1) L for an
    odd step, g log g per entry for the generic tree, and (L - g) log g
    more when the root divides, and N^2 r for a giant step.

    The prices were fitted by nonnegative least squares on relative error
    (the rows of one layer of one factorial weighted by one over the
    square root of their number) to medians of 3-15 interleaved timed
    runs.  Packed: the doublings and odd steps at k = 1, 2, 4, ...,
    2^(bits - 1), and the four layers at 7-18 forced values of s, of the
    split batches of det on the workload operator
    (29 points, p = 1019, 16411 and 65539; layers also at 4099), of mc on
    it (12 points, p = 2003 and 16411), of det on its companion system
    (29 points, p = 263 and 1019) and of det on sym2, the symmetric
    square of the Gauss system (79 points, p = 1009).  Not packed: the
    four layers of one point of the workload operator over F_p at
    p = 1019, 10007 and 40009, at 13-21 values of s each.
    """

    def __init__(self, K, B, r):
        N = len(B)
        self.N, self.d = N, max(max(len(e) for row in B for e in row) - 1, 0)
        self.growth = _degree_growth(B)
        self.packed = getattr(K, "packed", False)
        self.n = n = K.degree if self.packed else 1
        self.p = K.char
        self.q = (self.p - 1) ** 2
        self.base = polys.SubproductTree.BASE_CASE
        self._baby = [(0.0, 0.0), (0.0, 0.0)]
        if self.packed:
            self.step = 0.5683 * N * r * n
            self.odd_slot = fields._slot_bytes(self.q * (self.d + 1) * N)
        else:
            self.step = 0.5872 * N * N * r

    def length(self, k):
        """Bound on the length of the entries of P_k."""
        return self.growth * (k - 1) + self.d + 1

    def baby(self, s):
        """The doublings of the baby steps of length s, and all of them."""
        memo = self._baby
        while len(memo) <= s:
            k = len(memo)
            if k & 1:
                dbl, total = memo[k - 1]
                memo.append((dbl, total + self.odd(k - 1)))
            else:
                dbl = self.doubling(k >> 1)
                half = memo[k >> 1]
                memo.append((half[0] + dbl, half[1] + dbl))
        return memo[s]

    def total(self, s, count):
        g, t = divmod(count, s)
        parts = _leftover_parts(s, t)
        # one giant step and one evaluation of P_k per part k
        return (self.baby(s)[1] + self.multipoint(g, self.length(s))
                + (g + len(parts)) * self.step + self.evaluations(
                    self.growth * (t - len(parts))
                    + (self.d + 1) * len(parts)))

    def doubling(self, k):
        """P_2k(u) = P_k(u+k) P_k(u): N^2 Taylor shifts and N^3 products."""
        N, n, L = self.N, self.n, self.length(k)
        if not self.packed:
            return 0.8577 * N * N * L * math.log2(max(L, 2))
        w = fields._slot_bytes(math.ceil(self.q * L * N))
        ws = fields._slot_bytes(math.ceil(self.q * L))
        return (N ** 3 * n * (0.166 + 2.822e-05 * _product_bytes(L * w,
                                                                  L * w))
                + N * N * (0.4104 * n * L + 2.822e-05 * _product_bytes(
                    L * ws, n * (2 * L - 1) * ws)))

    def odd(self, k):
        """P_(k+1)(u) = B(u+k) P_k(u)."""
        N, n, L, d = self.N, self.n, self.length(k), self.d
        if not self.packed:
            return 0.02763 * N ** 3 * (d + 1) * L
        w = self.odd_slot
        return (N ** 3 * n * (0.166 + 2.822e-05 * _product_bytes(
            (d + 1) * w, L * w)) + 0.1131 * N * N * n * L)

    def evaluations(self, length):
        """Horner evaluations of N^2 entries, of lengths summing to length,
        at one point each."""
        return (0.08121 * self.n if self.packed else 0.1515) * (
            self.N ** 2 * length)

    def multipoint(self, g, L):
        """SubproductTree.evaluate of N^2 entries of length L at g points."""
        N2 = self.N * self.N
        if not self.packed:
            lg = math.log2(max(g, 2))
            return N2 * (g * (1.268 * lg + 1.984)
                         + 0.4504 * max(L - g, 0) * lg)
        # the g / size nodes of each level above the base case divide the
        # rows they receive when these are longer than their degree, and
        # hand down remainders as long as it; the base nodes evaluate
        rows, q = N2 * self.n, self.q
        price, size = 0.01272 * rows * L, g
        while size > self.base:
            k = math.ceil(L - size)
            if k > 0:
                top = min(k, math.ceil(size))
                w1 = fields._slot_bytes(k * q)
                w2 = fields._slot_bytes(top * q + self.p - 1)
                price += g / size * (
                    0.01272 * rows * (2 * k + top + size)
                    + 2.822e-05 * (
                        _product_bytes(rows * (2 * k - 1) * w1, k * w1)
                        + _product_bytes(rows * (top + size - 1) * w2,
                                         size * w2)))
                L = size
            size /= 2
        w = fields._slot_bytes(math.ceil(L * q))
        return price + g * rows * (0.01272 * (L / size + 1)
                                   + 0.00146 * L * w)


def _shifted(K, M, k):
    """M(u + k) for a polynomial matrix M and an integer k."""
    a = K.from_int(k)
    return [[polys.taylor_shift(K, e, a) for e in row] for row in M]


def _baby_steps(K, B, s, keep=()):
    """P_s(u) = B(u+s-1) ... B(u+1) B(u), doubling along the bits of s:
    P_2k(u) = P_k(u+k) P_k(u) and P_(k+1)(u) = B(u+k) P_k(u).  Also
    returns {k: P_k} for each k in keep, a prefix s >> j of the chain."""
    P, k = B, 1
    kept = {1: B} if 1 in keep else {}
    for bit in bin(s)[3:]:
        P = matpoly_mul(K, _shifted(K, P, k), P)
        k *= 2
        if bit == "1":
            P = matpoly_mul(K, _shifted(K, B, k), P)
            k += 1
        if k in keep:
            kept[k] = P
    return P, kept


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
    s = baby_step_length(K, B, count, len(acc[0]))
    g = count // s
    parts = _leftover_parts(s, count - g * s)
    baby, kept = _baby_steps(K, B, s, set(parts))
    pts = [K.from_int(j * s) for j in range(g)]
    vals = polys.SubproductTree(K, pts).evaluate(
        [e for row in baby for e in row])
    # only the values feed the giant steps; free the product
    del baby
    for j in range(g):
        step = [[vals[i * n + k][j] for k in range(n)] for i in range(n)]
        acc = matmul(K, step, acc)
    i = g * s
    for k in parts:
        # P_k(i) = B(i+k-1) ... B(i)
        acc = matmul(K, matpoly_eval(K, kept[k], K.from_int(i)), acc)
        i += k
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
