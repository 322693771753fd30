"""Invariant factors of the p-curvature at given points, in O~(sqrt(p)).

Re-centered at a point a, the fundamental solution of the equation is a
Hurwitz series whose coefficient vectors Z_n obey Z_{n+1} = B(n) Z_n for a
matrix B with polynomial entries of small degree.  Running the recurrence
p steps collapses to the matrix factorial B(p-1)...B(0), which baby-step /
giant-step evaluates in O~(sqrt(p)) ring operations; Y^{(p)}(0) sits in the
bottom-right corner and is similar to -A_p(a).

A system f_A Y' = A~ Y and an operator are both sum C_i(x) d^i with
m x m coefficients: a system has m = r, order 1, C_1 = f_A I and
C_0 = -A~; an operator has m = 1 and order r.  So B comes from one
theta-rewrite of (sum C_i d^i) d^d recentred at a, for either input.

The input is over F_p: any other field raises FieldMismatch, as invariant
factors over F_p(x) are what every caller needs.  The factorial needs only
ring operations once B is built, so the distinct points a_1, ..., a_n of
a point field ell share one: it runs at the generator z of
ell[z]/((z - a_1)...(z - a_n)), kept in value form as ell^n
(fields.SplitRing), and the corner at a_i is coordinate i; a single point
is a batch of one.  Points of F_p (det's whenever F_p has enough of them,
and mc's when s = 1) come in as elements of F_p itself (ell = F_p), so
their ring and Smith forms are F_p arithmetic.

A pole is found by the one inverse the recurrence builder takes, of
f_A(a) or a_r(a): a zero coordinate of the batch ring.  Its inv raises
ZeroDivisionError on it, which the builder turns into PoleAtPoint or
LeadingCoeffVanishes, so a batch raises what its points raise alone,
CharTooSmall first.

Only the r corner columns of the factorial are ever read, so it runs on
the last r columns of the identity: each giant step and leftover factor
multiplies N x N by N x r, not N x N by N x N.

The class at each point is the invariant factors of its r x r corner,
from one Krylov decomposition (linalg.invariant_factors_of): r - 1 ones
and the characteristic polynomial when the corner is cyclic.  A cyclic
class proves its point good (reconstruct), so both drivers first
evaluate the D + 1 points of degree 1 (when F_p has that many non-pole
points) and stop there when every class is cyclic: one batch of 5
points of F_p on each bench workload.
"""

from collections import namedtuple

from . import fields, linalg, polys
from .diffop import DiffSystem
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


def _theta_rewrite(K, ell, coeffs, a):
    """Coefficients b_0(theta), ..., b_(d+o)(theta) of (sum C_i d^i) d^d at a.

    coeffs lists C_0, ..., C_o, m x m matrices of polynomials over K of
    degree at most d.  Each is recentred at a in ell, and each monomial
    t^j d^(i+d) becomes theta (theta - 1) ... (theta - j + 1) d^(i+d-j),
    valid as j <= d.  The b_e are m x m matrices of polynomials in theta
    of degree <= d; b_(d+o) is the constant C_o(a).
    """
    emb = fields.embedding(K, ell)
    m, o = len(coeffs[0]), len(coeffs) - 1
    d = max(len(e) for C in coeffs for row in C for e in row) - 1
    falling = [[ell.one]]
    for j in range(1, d + 1):
        falling.append(polys.mul(ell, falling[-1],
                                 [ell.from_int(1 - j), ell.one]))
    b = [[[[] for _ in range(m)] for _ in range(m)]
         for _ in range(d + o + 1)]
    for i, C in enumerate(coeffs):
        for row, C_row in enumerate(C):
            for col, e in enumerate(C_row):
                shifted = polys.taylor_shift(ell, [emb(c) for c in e], a)
                for j, c in enumerate(shifted):
                    if c != ell.zero:
                        be = b[i + d - j][row]
                        be[col] = polys.add(ell, be[col],
                                            polys.scale(ell, c, falling[j]))
    return b


def _recurrence(K, ell, coeffs, a, pole_error):
    """Recurrence matrix at a of the operator sum C_i(x) d^i, C_o = c I.

    Z_n stacks the m-blocks Y^{(n-d)}(0), ..., Y^{(n+o-1)}(0) of a solution
    Y; the block companion has size (d + o) m, corner m o, and last block
    row -b_e(n) / c(a) from the theta-rewrite.  p <= m o raises
    CharTooSmall before anything else, and c(a) = 0 raises pole_error.
    """
    m, o = len(coeffs[0]), len(coeffs) - 1
    r = m * o
    if ell.char <= r:
        raise CharTooSmall(f"need p > r, got p = {ell.char} and r = {r}")
    b = _theta_rewrite(K, ell, coeffs, a)
    top = b.pop()[0][0]
    try:
        lead = ell.neg(ell.inv(top[0] if top else ell.zero))
    except ZeroDivisionError:
        raise pole_error from None
    n = len(b) * m
    rows = [[()] * n for _ in range(n - m)]
    for i, row in enumerate(rows):
        row[i + m] = (ell.one,)
    rows += [[tuple(polys.scale(ell, lead, x)) for be in b for x in be[j]]
             for j in range(m)]
    return RecMatrix(entries=tuple(map(tuple, rows)), corner=r)


def build_B_system(sys, ell, a):
    """Recurrence matrix at a for the system f_A Y' = A~ Y.

    The system is the operator f_A I d - A~ of order 1 with r x r
    coefficients, so Z_n stacks Y^{(n-d)}(0), ..., Y^{(n)}(0) in blocks of
    size r and the matrix has size (d + 1) r, entries of degree <= d.
    """
    K, r = sys.K, sys.size
    f = [[sys.f_A if j == k else () for k in range(r)] for j in range(r)]
    minus_A = [[polys.neg(K, e) for e in row] for row in sys.A_tilde]
    return _recurrence(K, ell, [minus_A, f], a,
                       PoleAtPoint("f_A vanishes at the expansion point"))


def build_B_operator(op, ell, a):
    """Companion recurrence matrix at a for an operator of bidegree (d, r).

    The operator has 1 x 1 coefficients, so Z_n stacks y^{(n-d)}(0), ...,
    y^{(n+r-1)}(0) and the matrix has size d + r, entries of degree <= d.
    """
    return _recurrence(op.K, ell, [[[c]] for c in op.coeffs], a,
                       LeadingCoeffVanishes(
                           "a_r vanishes at the expansion point"))


def require_prime_field(K):
    """Refuse an input field other than F_p with FieldMismatch."""
    if not isinstance(K, fields.PrimeField):
        raise FieldMismatch(f"inputs must be over F_p, not {K}")


def invariant_factors_at(inp, ell, points):
    """Invariant factors of A_p(a) at every point a of ell, one list each.

    The input's field K is F_p (FieldMismatch otherwise), and ell is K
    itself for points of degree 1, else an extension of K.  All the
    points, one or many, share one matrix factorial of p terms over the
    value-form ring of the distinct ones, on the last r columns of the
    identity: Y^{(p)}(0) sits in its bottom-right corner, and A_p(a) is
    similar to its negation, so the invariant factors of coordinate a of
    the negated corner are exactly the local similarity class at a.
    """
    require_prime_field(inp.K)
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    coord = {a: i for i, a in enumerate(dict.fromkeys(points))}
    ring = fields.SplitRing(ell, coord)
    if isinstance(inp, DiffSystem):
        rec = build_B_system(inp, ring, ring.gen)
    else:
        rec = build_B_operator(inp, ring, ring.gen)
    n, r = rec.size, rec.corner
    right = [row[n - r:] for row in linalg.identity(ring, n)]
    M = linalg.matrix_factorial(ring, rec.entries, ring.char, right)
    corner = [[ring.neg(e) for e in row] for row in M[n - r:]]
    # coordinate i is a residue, or the k u-coefficients of a value in ell
    k = 0 if ell is ring.base else ell.degree

    def value(e, a):
        i = coord[a]
        return e[i * k:i * k + k] if k else e[i]

    return [linalg.invariant_factors_of(
        ell, [[value(e, a) for e in row] for row in corner])
        for a in points]
