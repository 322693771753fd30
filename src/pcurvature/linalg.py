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
leftover factors.  P_s comes from doubling along the bits of s,
P_2k(u) = P_k(u+k) P_k(u) and P_(k+1)(u) = B(u+k) P_k(u): at most
2 log2(s) products, each after a Taylor shift of its left factor by an
integer.  The leftover factors go in runs of k, one evaluation of a P_k
of that chain each (_leftover_parts).  The giant steps and leftover runs
are one chain over the nonzero pattern of P_s (P_k for a run), fed each
point's values as the tree gives them, with no step matrices.  A right
factor of r columns (local_eval passes the r corner columns of the
identity) makes each step an N x N by N x r product.

The factorial runs over the batch ring K of points of a field ell, ell^n
in value form (fields.SplitRing; TypeError on any other ring).  Its
kernels are K.chain, and K.matpoly_mul for polynomial matrices, which it
takes and returns in row form (fields.MatrixRows): one row over F_p per
u-coefficient of each coordinate of each nonzero entry, kept column by
column.  The baby steps stay in row form from B to P_s.  Each shift is
one K.shift_rows of the whole matrix while its entries are no longer
than p, the product packs its factors straight from the columns, and P_s
goes down one subproduct tree over F_p (polys.SubproductTree, at the
integers 0, s, ..., (g - 1)s) in one evaluate call as it is, and the
leftover runs evaluate P_k by K.rows_at.

The analysis balances s against count/s with quasi-linear products, which
puts s near sqrt(count).  But the baby steps multiply integers of a few
dozen digits, which CPython multiplies by schoolbook, so the last doubling
costs about N^3 n k (s d)^2 and the balance lies lower: baby_step_length
picks the s of least estimated cost (_FactorialCost), which prices each
layer as the code runs it, in fitted units, over the s near sqrt(count)
with at most two set bits only.
"""

import functools
import math
import operator

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


def baby_step_length(K, B, count, r):
    """The s that matrix_factorial(K, B, count, right) uses, for count >= 16
    and right of r columns: the s of least estimated cost (_FactorialCost),
    the smallest one on a tie, among those in [sqrt(count) / 2,
    2 sqrt(count) + 1] with at most two set bits.

    The window keeps s = Theta(sqrt(count)), which the O~(sqrt p) bound
    needs: for a fixed s the multipoint evaluation's direct step grows like
    count / s.  Below the window the estimate can still fall a little at
    mid-size p (packed direct evaluation is cheap per value), but the work
    then grows linearly, which the value-count gates of the tests catch.

    Each candidate is a doubling chain with at most one odd step, so the
    O(log count) candidates share O(log^2 count) prefixes, each priced
    once (_FactorialCost memoises them), where the whole window has
    O(sqrt count).  On the batches of the tests the pick's estimate is
    within 1% of the whole window's best.

    It depends on the factorial's shape alone: N = len(B), r, count, the
    longest entry of B, its zero pattern and the degree growth of its
    products (_degree_growth), and the ring's degree and characteristic."""
    w = math.isqrt(count)
    cost = _FactorialCost(K, B, r, count)
    lo, hi = max(w // 2, 1), 2 * w + 1
    return min((s for s in {1 << a | 1 << b for a in range(hi.bit_length())
                            for b in range(a + 1)} if lo <= s <= hi),
               key=lambda s: (cost.total(s, count), s))


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


class _Pattern:
    """Which entries of P_k = B(u+k-1) ... B(u) can be nonzero: the boolean
    powers of the pattern of B, as rows of bit masks, which repeat with
    some period from some power on.  For every k <= limit, nonzero[k] is
    the number of nonzero entries of P_k, and squares[k] and odds[k] the
    nonzero pairs of entries that P_k(u+k) P_k(u) and B(u+k) P_k(u)
    multiply: per index m, the nonzero entries in column m of the left
    factor times those in row m of the right one."""

    def __init__(self, B, limit):
        N = len(B)
        Z = tuple(sum(1 << j for j, e in enumerate(row) if e) for row in B)
        first = [sum(x >> m & 1 for x in Z) for m in range(N)]
        # the set bits of each row mask met so far
        bits, stats, seen, X = {}, [], {}, Z
        while X not in seen:
            seen[X] = len(stats)
            rows = [x.bit_count() for x in X]
            for x in X:
                if x not in bits:
                    bits[x] = [m for m in range(N) if x >> m & 1]
            stats.append((sum(rows), sum(rows[m] for x in X for m in bits[x]),
                          sum(map(operator.mul, first, rows))))
            X = tuple(functools.reduce(operator.or_, [Z[m] for m in bits[x]],
                                       0) for x in X)
        # power k is stats[k - 1], and from the first repeat on it cycles
        cycle = stats[seen[X]:]
        stats += cycle * (limit // len(cycle))
        self.nonzero, self.squares, self.odds = zip((N, N, N), *stats[:limit])


class _FactorialCost:
    """Estimated cost of matrix_factorial(K, B, count, right) at baby-step
    length s, in microseconds of CPU time on the bench's
    host (2-core x86-64, CPython 3.11).

    The estimate follows the code layer by layer.  P_k has entries of
    length at most growth * (k - 1) + d + 1, for d the degree of B.
      - Baby steps: each doubling P_k -> P_2k along the bits of s, and
        each odd bit's B(u+k) P_k, as its own shift and product.
      - Multipoint: SubproductTree.evaluate on the entries of P_s, of
        length L(s), at g = count // s points, level by level as it
        descends.
      - Giant steps: g steps of the chain, N x N by N x r.
      - Leftover factors: one evaluation of P_k and one step per part k
        of _leftover_parts(s, count mod s).
    The kernels skip zero entries, so every layer is priced on the
    nonzero entries of P_k and the nonzero pairs a product multiplies
    (_Pattern, counted once from B), per ring coordinate: in the
    big-integer products of the Kronecker kernels (_product_bytes, at the
    slot widths the kernels choose), the Python work per row, value and
    column they pack, unpack or reduce, and the Python work per pair and
    per output entry.  baby and leftover keep the price of each prefix
    k, which the candidates of baby_step_length share: for the s with at
    most two set bits near sqrt(count), O(log^2 count) prefixes in all.

    The prices were fitted by nonnegative least squares on relative error
    (the rows of one layer of one factorial weighted by one over the
    square root of their number) to medians of 3-5 timed runs, each scaled
    by a fixed loop timed beside it, which cancels the host's drift.
    At k = 1: the doublings and odd steps along the chain, and the four
    layers, at 3-9 forced values of s each, of det's batches on the
    workload operator (29 points, p = 1019, 4099, 16411 and 65539), mc's
    on it (12 points, p = 2003 and 16411), det's on its companion system
    (29 points, p = 263 and 1019), det's on sym2, the symmetric square of
    the Gauss system (79 points, p = 1009), batches of 8 points on the
    operator at p = 10007, 40009 and 262147, and 2 x 2 and 3 x 3 matrices
    of degree 9 over three points of F_1009 at count 100 and 400.  The
    steps were fitted to the chain alone at 240 shapes (N = 2-9, r = 1, 2
    and N, ring degree 1-29).  The terms that vanish at k = 1 (points of
    degree k, n // k of them) were fitted by least squares to the time
    at k = 2 scaled by the ratio of price to time at k = 1 of the same
    product or step, timed in alternation, on 9 points of degree 2 of
    sym2 (p = 1009) and of the operator (p = 4099), and on 6 of it
    (p = 1009), at s = 8-64.  The products are priced within 0.68-1.38
    of that time and the steps within 0.88-1.09; on the 15 points of
    sym2 + Gauss at 1009, which the fit did not see, 0.94-1.35 and
    1.01-1.04.
    """

    def __init__(self, K, B, r, count):
        N = len(B)
        self.N, self.r = N, r
        self.d = max(max(len(e) for row in B for e in row) - 1, 0)
        self.growth = _degree_growth(B)
        # rows per entry, and per coordinate
        self.n, self.k = K.degree, K.field.degree
        self.p = K.char
        self.q = (self.p - 1) ** 2
        self.base = polys.SubproductTree.BASE_CASE
        # baby_step_length prices s up to 2 sqrt(count) + 1
        self.pattern = _Pattern(B, 2 * math.isqrt(count) + 2)
        self._baby, self._leftover = {0: 0.0, 1: 0.0}, {}
        # every odd step shifts B
        self._shift_B = self._shift(self.pattern.nonzero[1], self.d + 1)

    def length(self, k):
        """Bound on the length of the entries of P_k."""
        return self.growth * (k - 1) + self.d + 1

    def baby(self, s):
        """The baby steps of length s: the doublings along its chain and
        an odd step at each odd prefix."""
        memo = self._baby
        price = memo.get(s)
        if price is None:
            price = memo[s] = (self.baby(s - 1) + self.odd(s - 1) if s & 1
                               else self.baby(s >> 1) + self.doubling(s >> 1))
        return price

    def total(self, s, count):
        g, t = divmod(count, s)
        return (self.baby(s) + self.multipoint(g, s) + g * self.step(s)
                + sum(map(self.leftover, _leftover_parts(s, t))))

    def _shift(self, entries, L):
        """shift_rows of that many nonzero entries of length L."""
        ws = fields._slot_bytes(math.ceil(self.q * L))
        return (self.n * entries * L * (0.07172 + 0.001409 * ws * (L + 1) / 2)
                + L * (0.03623 * (L + 1) / 2 + 4.026))

    def _product(self, pairs, la, lb, ea, eb, out):
        """matpoly_mul of factors with ea and eb nonzero entries of lengths
        la and lb, multiplying that many pairs into out nonzero entries.
        Each pair is one product per coordinate, in blocks of 2k - 1
        slots per t-coefficient, and at k > 1 every output block is
        reduced by the modulus of the point field."""
        n, k, lo = self.n, self.k, la + lb - 1
        W = 2 * k - 1
        w = fields._slot_bytes(math.ceil(self.q * min(la, lb) * self.N * k))
        return (n // k * (pairs * (0.09835 + 6.482e-05 * _product_bytes(
            la * W * w, lb * W * w)) + 0.4712 * (ea + eb)
            + 0.03586 * (k * (ea * la + eb * lb) + out * lo))
            + 8.513 * out + 4.026 * lo
            + 0.138 * (k * k - 1) * (n // k) * out * lo)

    def doubling(self, k):
        """P_2k(u) = P_k(u+k) P_k(u): a shift and a product."""
        L, nz = self.length(k), self.pattern.nonzero[k]
        return self._shift(nz, L) + self._product(
            self.pattern.squares[k], L, L, nz, nz, self.pattern.nonzero[2 * k])

    def odd(self, k):
        """P_(k+1)(u) = B(u+k) P_k(u)."""
        L, d, nz = self.length(k), self.d, self.pattern.nonzero[1]
        return self._shift_B + self._product(
            self.pattern.odds[k], d + 1, L, nz,
            self.pattern.nonzero[k], self.pattern.nonzero[k + 1])

    def step(self, k):
        """One step of the chain of P_k at a point, N x N, by N x r.  The
        fit is scaled by 1.44, the chain's median ratio of time to price
        over the baby steps' on the planner's batches.  At k > 1 a step
        also packs its values and rows, and reduces its output blocks."""
        N, r, m = self.N, self.r, self.n // self.k
        nz = self.pattern.nonzero[k]
        return (1.44 * (m * r * (0.0546 * nz + 0.01041 * N) + 0.2542 * nz
                        + 0.1635 * N)
                + (self.k - 1) * (m * (0.3565 * nz + 0.2747 * self.k * N * r)
                                  + 7.555))

    def leftover(self, k):
        """One leftover run of k factors: P_k evaluated at a point, then
        multiplied in, a one-step chain with its own pattern."""
        memo = self._leftover
        price = memo.get(k)
        if price is None:
            L = self.length(k)
            price = memo[k] = (1.02 * self.step(k) + 3.7 + L * (
                0.02164 * self.n * self.pattern.nonzero[k] + 1.765))
        return price

    def multipoint(self, g, s):
        """SubproductTree.evaluate of the entries of P_s at g points."""
        L = self.length(s)
        # the g / size nodes of each level above the base case divide the
        # rows they receive when these are longer than their degree, and
        # hand down remainders as long as it; the base nodes evaluate
        rows, q = self.pattern.nonzero[s] * self.n, self.q
        price, size = 0.01874 * rows * L, g
        while size > self.base:
            k = math.ceil(L - size)
            if k > 0:
                top = min(k, math.ceil(size))
                w1 = fields._slot_bytes(k * q)
                w2 = fields._slot_bytes(top * q + self.p - 1)
                price += g / size * (
                    0.01874 * rows * (2 * k + top + size)
                    + 7.014e-05 * (
                        _product_bytes(rows * (2 * k - 1) * w1, k * w1)
                        + _product_bytes(rows * (top + size - 1) * w2,
                                         size * w2)))
                L = size
            size /= 2
        return price + self._direct(g, rows, L, size)

    def _direct(self, g, rows, L, size):
        """The direct step of the multipoint: g points, in nodes of size
        points, on that many rows of length L."""
        w = fields._slot_bytes(math.ceil(L * self.q))
        return g * (rows * (0.01874 * (L / size + 1) + 0.0008387 * L * w)
                    + 13.88)


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
    """P_s(u) = B(u+s-1) ... B(u+1) B(u), doubling along the bits of s:
    P_2k(u) = P_k(u+k) P_k(u) and P_(k+1)(u) = B(u+k) P_k(u).  Also
    returns {k: P_k} for each k in keep, a prefix s >> j of the chain.
    B and the products are MatrixRows."""
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
    s = baby_step_length(K, B, count, len(acc[0]))
    g = count // s
    parts = _leftover_parts(s, count - g * s)
    baby, kept = _baby_steps(K, P, s, set(parts))
    pattern = _nonzero(baby)
    steps = polys.SubproductTree(K, range(0, g * s, s)).evaluate(baby)
    # only the values feed the giant steps; free the product
    del baby
    acc = K.chain(pattern, steps, acc)
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
