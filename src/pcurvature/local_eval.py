"""Invariant factors of the p-curvature at given points, in O~(sqrt(p)).

Re-centered at a point a, the fundamental solution of the equation is a
Hurwitz series whose coefficient vectors Z_n obey Z_{n+1} = B(n) Z_n for a
matrix B with polynomial entries of small degree.  Running the recurrence
p steps collapses to the matrix factorial B(p-1)...B(0), which baby-step /
giant-step evaluates in O~(sqrt(p)) ring operations; Y^{(p)}(0) sits in the
bottom-right corner and is similar to -A_p(a).

The factorial needs only ring operations once B is built, so several
points a_1, ..., a_k share one: it runs at the generator z of
F_q[z]/(m), with m the product of the distinct minimal polynomials of the
a_i over F_q.  That ring is a product of fields, one per minimal
polynomial, and sending z to a_i maps the corner onto the one at a_i.
"""

from dataclasses import dataclass

from . import fields, linalg, polys
from .diffop import DiffSystem, theta_rewrite
from .errors import CharTooSmall, LeadingCoeffVanishes, PoleAtPoint


@dataclass(frozen=True)
class RecMatrix:
    """Square matrix of polynomials in the recurrence index.

    corner is the size of the bottom-right block holding the derivatives of
    the fundamental solution; the leading blocks carry shifted copies.
    """

    ell: object
    entries: tuple
    corner: int

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
    if f[0] == ell.zero:
        raise PoleAtPoint("f_A vanishes at the expansion point")
    f0_inv = ell.inv(f[0])

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
    return RecMatrix(ell=ell, entries=_tidy(ell, rows), corner=r)


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
    lead = ell.neg(ell.inv(b[n][0]))
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = [ell.one]
    for e in range(n):
        rows[n - 1][e] = polys.scale(ell, lead, b[e])
    return RecMatrix(ell=ell, entries=_tidy(ell, rows), corner=r)


def _check_pole(inp, ell, a):
    """Raise the error a one-point call would raise if a is a pole.

    In the product ring a pole is a zero divisor rather than zero, so it
    must be caught in ell, before the ring is built.
    """
    emb = fields.embedding(inp.K, ell)
    if isinstance(inp, DiffSystem):
        if polys.eval_at(ell, [emb(c) for c in inp.f_A], a) == ell.zero:
            raise PoleAtPoint("f_A vanishes at the expansion point")
    elif polys.eval_at(ell, [emb(c) for c in inp.leading], a) == ell.zero:
        raise LeadingCoeffVanishes("a_r vanishes at the expansion point")


def _product_ring(K, ell, points):
    """F_q[z]/(m) for m the product of the distinct minimal polynomials of
    the points over K; m is squarefree, so repeated and conjugate points
    share a factor."""
    mods = {}
    for a in dict.fromkeys(points):
        if ell.key == K.key:
            mods[(K.neg(a), K.one)] = None
        else:
            mods[tuple(fields.minimal_polynomial(ell, a, K.q))] = None
    m = [K.one]
    for mp in mods:
        m = polys.mul(K, m, list(mp))
    return fields.ExtensionField(K, m)


def invariant_factors_at(inp, ell, points, p=None):
    """Invariant factors of A_p(a) at every point a of ell, one list each.

    One matrix factorial of p terms gives Y^{(p)}(0) in the bottom-right
    corner; A_p(a) is similar to its negation, so the Smith form of the
    negated corner is exactly the local similarity class.  A single point
    is handled over ell itself.  Several points share one factorial over
    the product ring of their minimal polynomials; each entry of its
    corner is a polynomial in z, evaluated at a_i before the Smith form
    over ell.
    """
    if p is None:
        p = ell.char
    elif p != ell.char:
        raise ValueError(f"p = {p} differs from the characteristic {ell.char}")
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    if len(points) == 1:
        ring, at = ell, points[0]
    else:
        for a in points:
            _check_pole(inp, ell, a)
        ring = _product_ring(inp.K, ell, points)
        at = ring.gen
    if isinstance(inp, DiffSystem):
        rec = build_B_system(inp, ring, at)
    else:
        rec = build_B_operator(inp, ring, at)
    M = linalg.matrix_factorial(ring, rec.entries, p)
    n, r = rec.size, rec.corner
    corner = [[ring.neg(M[i][j]) for j in range(n - r, n)]
              for i in range(n - r, n)]
    if ring is ell:
        return [linalg.invariant_factors_of(ell, corner)]
    emb = fields.embedding(inp.K, ell)
    return [linalg.invariant_factors_of(
        ell, [[polys.eval_at(ell, [emb(c) for c in e], a) for e in row]
              for row in corner])
        for a in points]
