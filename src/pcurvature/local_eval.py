"""Invariant factors of the p-curvature at given points, in O~(sqrt(p)).

Re-centered at a point a, the fundamental solution of the equation is a
Hurwitz series whose coefficient vectors Z_n obey Z_{n+1} = B(n) Z_n for a
matrix B with polynomial entries of small degree.  Running the recurrence
p steps collapses to the matrix factorial B(p-1)...B(0), which baby-step /
giant-step evaluates in O~(sqrt(p)) ring operations; Y^{(p)}(0) sits in the
bottom-right corner and is similar to -A_p(a).

The input is over F_p: any other field raises FieldMismatch, as invariant
factors over F_p(x) are what every caller needs.  The factorial needs only
ring operations once B is built, so several points a_1, ..., a_k share
one: it runs at the generator z of F_p[z]/(m), with m the product of the
distinct minimal polynomials of the a_i over F_p.  That ring is a product
of fields, one per minimal polynomial, and sending z to a_i maps the
corner onto the one at a_i; a single point is a batch of one.  When every
a_i lies in F_p (det's points whenever F_p has enough of them, and mc's
when s = 1), the ring is F_p^n and runs in value form (fields.SplitRing):
its products are n small Kronecker products, not one packed product
reduced mod m, and the corner at a_i is coordinate i.  Such points come in
as elements of F_p itself (ell = F_p), so their minimal polynomials and
Smith forms are F_p arithmetic.

A pole is found by the one inverse the recurrence builder takes, of
f_A(a) or a_r(a): a zero divisor of the product ring, zero if it has one
point.  Every ring's inv raises ZeroDivisionError on it, which the
builder turns into PoleAtPoint or LeadingCoeffVanishes, so a batch
raises what its points raise alone, CharTooSmall first.

Only the r corner columns of the factorial are ever read, so it runs on
the last r columns of the identity: each giant step and leftover factor
multiplies N x N by N x r, not N x N by N x N.

The class at each point is the invariant factors of its r x r corner
(linalg.invariant_factors_of): read off a cyclic vector when one of the
unit vectors is one, as r - 1 ones and the characteristic polynomial,
else the Smith form of T - corner.  A cyclic class proves its point good
(reconstruct), so both drivers first evaluate the D + 1 points of degree
1 (when F_p has that many non-pole points) and stop there when every
class is cyclic: one batch of 5 points of F_p on each bench workload.
"""

from collections import namedtuple

from . import fields, linalg, polys
from .diffop import DiffSystem, theta_rewrite
from .errors import (CharTooSmall, FieldMismatch, LeadingCoeffVanishes,
                     PoleAtPoint)


class RecMatrix(namedtuple("RecMatrix", "entries corner")):
    """Square matrix of polynomials in the recurrence index.

    corner is the size of the bottom-right block holding the derivatives of
    the fundamental solution; the leading blocks carry shifted copies.
    """

    __slots__ = ()

    @property
    def size(self):
        return len(self.entries)


def _tidy(ell, rows):
    return tuple(tuple(tuple(polys.trim(ell, e)) for e in row)
                 for row in rows)


def build_B_system(sys, ell, a):
    """Recurrence matrix at a for the system f_A Y' = A~ Y.

    Z_n stacks Y^{(n-d)}(0), ..., Y^{(n)}(0) in blocks of size r; the last
    block row implements

        f_0 Y^{(n+1)} = sum_i n(n-1)...(n-i+1) (A~_i - (n-i) f_{i+1}) Y^{(n-i)}

    where f_i and A~_i are the Taylor coefficients at a and f_{d+1} = 0.
    Entries have degree at most d in the index variable.
    """
    r = sys.size
    if ell.char <= r:
        raise CharTooSmall(f"need p > r, got p = {ell.char} and r = {r}")
    emb = fields.embedding(sys.K, ell)
    d = sys.degree
    f = polys.taylor_shift(ell, [emb(c) for c in sys.f_A], a)
    f = list(f) + [ell.zero] * (d + 2 - len(f))
    try:
        f0_inv = ell.inv(f[0])
    except ZeroDivisionError:
        raise PoleAtPoint("f_A vanishes at the expansion point") from None

    shifted = [[polys.taylor_shift(ell, [emb(c) for c in e], a)
                for e in row] for row in sys.A_tilde]

    def taylor_block(i):
        return [[e[i] if i < len(e) else ell.zero for e in row]
                for row in shifted]

    blocks = []
    fall = [ell.one]
    for i in range(d + 1):
        At = taylor_block(i)
        blk = []
        for j in range(r):
            row = []
            for k in range(r):
                e = [At[j][k]]
                if j == k and f[i + 1] != ell.zero:
                    e = polys.sub(ell, e, [ell.neg(ell.mul(
                        ell.from_int(i), f[i + 1])), f[i + 1]])
                row.append(polys.scale(ell, f0_inv,
                                       polys.mul(ell, fall, e)))
            blk.append(row)
        blocks.append(blk)
        fall = polys.mul(ell, fall, [ell.neg(ell.from_int(i)), ell.one])

    n = (d + 1) * r
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n - r):
        rows[i][i + r] = [ell.one]
    for j in range(d + 1):
        blk = blocks[d - j]
        for jj in range(r):
            for kk in range(r):
                rows[d * r + jj][j * r + kk] = blk[jj][kk]
    return RecMatrix(entries=_tidy(ell, rows), corner=r)


def build_B_operator(op, ell, a):
    """Companion recurrence matrix at a for an operator of bidegree (d, r).

    Z_n stacks y^{(n-d)}(0), ..., y^{(n+r-1)}(0); the last row carries
    -b_e(n)/a_r(a) from the falling-factorial rewrite of the operator, so
    the matrix has size d + r and entries of degree at most d.
    """
    r = op.order
    if ell.char <= r:
        raise CharTooSmall(f"need p > r, got p = {ell.char} and r = {r}")
    emb = fields.embedding(op.K, ell)
    b = theta_rewrite(op, a, ell, emb)
    n = op.degree + r
    try:
        lead = ell.neg(ell.inv(b[n][0] if b[n] else ell.zero))
    except ZeroDivisionError:
        raise LeadingCoeffVanishes(
            "a_r vanishes at the expansion point") from None
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = [ell.one]
    for e in range(n):
        rows[n - 1][e] = polys.scale(ell, lead, b[e])
    return RecMatrix(entries=_tidy(ell, rows), corner=r)


def _product_ring(K, mins):
    """The ring of the batch and, per minimal polynomial, its coordinate.

    When every minimal polynomial is z - a, the ring is split: a SplitRing
    keeps each element as its values at the roots, coordinate i the value
    at the root of the i-th distinct minimal polynomial.  Otherwise it is
    F_p[z]/(m) for m the product of the distinct minimal polynomials, with
    no coordinates; m is squarefree, so repeated and conjugate points
    share a factor.
    """
    distinct = list(dict.fromkeys(mins.values()))
    if all(len(m) == 2 for m in distinct):
        ring = fields.SplitRing(K, [K.neg(m[0]) for m in distinct])
        return ring, {m: i for i, m in enumerate(distinct)}
    from .extension import ExtensionField
    m = [K.one]
    for mp in distinct:
        m = polys.mul(K, m, list(mp))
    return ExtensionField(K, m), None


def require_prime_field(K):
    """Refuse an input field other than F_p with FieldMismatch."""
    if not isinstance(K, fields.PrimeField):
        raise FieldMismatch(f"inputs must be over F_p, not {K}")


def invariant_factors_at(inp, ell, points):
    """Invariant factors of A_p(a) at every point a of ell, one list each.

    The input's field K is F_p (FieldMismatch otherwise), and ell is K
    itself for points of degree 1, else an extension of K.  All the
    points, one or many, share one matrix factorial of p terms over the
    product ring of their minimal polynomials (z - a for a point of K), on
    the last r columns of the identity: Y^{(p)}(0) sits in its
    bottom-right corner, and A_p(a) is similar to its negation, so the
    invariant factors of the negated corner are exactly the local
    similarity class.  When the
    points all lie in F_p, the ring is split and kept in value form, so
    the corner at a_i is read off coordinate i.  Otherwise each entry of
    its corner is a polynomial in z, reduced over F_p modulo the minimal
    polynomial of a_i and then evaluated at a_i before its invariant
    factors are taken over ell.
    """
    require_prime_field(inp.K)
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    # minimal polynomial over K of each distinct point
    mins = {a: tuple(fields.minimal_polynomial(ell, a, inp.K.q))
            for a in dict.fromkeys(points)}
    ring, coord = _product_ring(inp.K, mins)
    if isinstance(inp, DiffSystem):
        rec = build_B_system(inp, ring, ring.gen)
    else:
        rec = build_B_operator(inp, ring, ring.gen)
    n, r = rec.size, rec.corner
    right = [row[n - r:] for row in linalg.identity(ring, n)]
    M = linalg.matrix_factorial(ring, rec.entries, ring.char, right)
    corner = [[ring.neg(e) for e in row] for row in M[n - r:]]
    emb = fields.embedding(inp.K, ell)

    def value(e, a):
        if coord is not None:
            return emb(e[coord[mins[a]]])
        r = polys.rem(inp.K, list(e), mins[a])
        return polys.eval_at(ell, [emb(c) for c in r], a)

    return [linalg.invariant_factors_of(
        ell, [[value(e, a) for e in row] for row in corner])
        for a in points]
