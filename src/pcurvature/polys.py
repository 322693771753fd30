"""Dense univariate polynomial arithmetic over an arbitrary field object.

A polynomial is a plain Python list of field elements with index = degree
and no trailing zeros; the empty list is the zero polynomial.  All functions
take the coefficient field K as their first argument and trust that field
elements are in canonical form, so `==` on elements is exact equality.

Multiplication dispatches to K.polymul, which lets each field supply a
representation-specific path: Kronecker packing over a prime field, one
chain step over the batch ring, and the schoolbook in an extension.  A multipoint evaluation
(SubproductTree) is at integers, which lie in F_p, over the batch ring,
and dispatches to its K.rows_rem and K.rows_at.  Everything else here is
generic; a whole matrix over the batch ring shifts in one kernel of its
own (fields.SplitRing.shift_rows).

Products modulo one fixed monic f over F_p are fields.QuotientRing's, by
packed rows u^(deg f + j) mod f.  Here, division is by quorem, and each
node of the subproduct tree that divides feeds K.rows_rem the Newton
inverse of its reversed product (series_inv).
"""

from .errors import InsufficientModuli, ModuliNotCoprime, NotMonic


def trim(K, c):
    """Drop trailing zeros, returning a canonical (possibly empty) list."""
    n = len(c)
    z = K.zero
    while n and c[n - 1] == z:
        n -= 1
    return c[:n] if n != len(c) else list(c)


def deg(f):
    """Degree with the convention deg 0 = -1."""
    return len(f) - 1


def constant(K, c):
    return [] if c == K.zero else [c]


def one(K):
    return [K.one]


def add(K, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = K.add(out[i], c)
    return trim(K, out)


def sub(K, f, g):
    if len(f) >= len(g):
        out = list(f)
        for i, c in enumerate(g):
            out[i] = K.sub(out[i], c)
    else:
        out = [K.neg(c) for c in g]
        for i, c in enumerate(f):
            out[i] = K.add(out[i], c)
    return trim(K, out)


def neg(K, f):
    return [K.neg(c) for c in f]


def scale(K, c, f):
    if c == K.zero:
        return []
    return trim(K, [K.mul(c, a) for a in f])


def mul(K, f, g):
    if not f or not g:
        return []
    return K.polymul(f, g)


def mul_schoolbook(K, f, g):
    """Generic quadratic product; fields without a fast path use this."""
    if not f or not g:
        return []
    out = [K.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == K.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return trim(K, out)


def quorem(K, f, g):
    """Division with remainder: f = q*g + r with deg r < deg g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return [], list(f)
    r = list(f)
    dg = len(g) - 1
    lead_inv = None if g[-1] == K.one else K.inv(g[-1])
    q = [K.zero] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = r[i]
        if c == K.zero:
            continue
        if lead_inv is not None:
            c = K.mul(c, lead_inv)
        q[i - dg] = c
        for j in range(dg):
            r[i - dg + j] = K.sub(r[i - dg + j], K.mul(c, g[j]))
        r[i] = K.zero
    return trim(K, q), trim(K, r)


def rem(K, f, g):
    return quorem(K, f, g)[1]


def divexact(K, f, g):
    q, r = quorem(K, f, g)
    if r:
        raise ValueError("division is not exact")
    return q


def monic(K, f):
    if not f:
        return []
    if f[-1] == K.one:
        return list(f)
    return scale(K, K.inv(f[-1]), f)


def gcd(K, f, g):
    while g:
        f, g = g, rem(K, f, g)
    return monic(K, f)


def xgcd(K, f, g):
    """Extended Euclid: returns (d, u, v) with u*f + v*g = d, d monic."""
    r0, r1 = list(f), list(g)
    u0, u1 = one(K), []
    v0, v1 = [], one(K)
    while r1:
        q, r = quorem(K, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(K, u0, mul(K, q, u1))
        v0, v1 = v1, sub(K, v0, mul(K, q, v1))
    if r0 and r0[-1] != K.one:
        c = K.inv(r0[-1])
        r0, u0, v0 = scale(K, c, r0), scale(K, c, u0), scale(K, c, v0)
    return r0, u0, v0


def invmod(K, f, m):
    """Inverse of f modulo m; raises ZeroDivisionError if gcd != 1."""
    d, u, _ = xgcd(K, f, m)
    if len(d) != 1:
        raise ZeroDivisionError("element is not invertible modulo m")
    return rem(K, u, m)


def derivative(K, f):
    out = []
    for i in range(1, len(f)):
        out.append(K.mul(K.from_int(i), f[i]))
    return trim(K, out)


def eval_at(K, f, a):
    acc = K.zero
    for c in reversed(f):
        acc = K.add(K.mul(acc, a), c)
    return acc


def poly_pow(K, f, e):
    result = one(K)
    base = list(f)
    while e:
        if e & 1:
            result = mul(K, result, base)
        e >>= 1
        if e:
            base = mul(K, base, base)
    return result


def taylor_shift(K, f, a):
    """Coefficients of f(x + a), split and recombined on halves."""
    if a == K.zero or len(f) <= 1:
        return list(f)
    return _shift_by_halves(K, f, a)


def _shift_by_halves(K, f, a):
    """f(x + a) for any length, split/recombine on halves."""
    n = len(f)
    if n <= 8:
        out = []
        for c in reversed(f):
            # out <- out*(x+a) + c
            shifted = [K.zero] + out
            for i, b in enumerate(out):
                shifted[i] = K.add(shifted[i], K.mul(a, b))
            if shifted:
                shifted[0] = K.add(shifted[0], c)
            else:
                shifted = [c]
            out = shifted
        return trim(K, out)
    m = n // 2
    lo = _shift_by_halves(K, trim(K, f[:m]), a)
    hi = _shift_by_halves(K, f[m:], a)
    return add(K, lo, mul(K, hi, poly_pow(K, [a, K.one], m)))


def series_inv(K, f, n):
    """Inverse of f modulo x^n by Newton iteration; needs f[0] != 0."""
    if not f or f[0] == K.zero:
        raise ZeroDivisionError("series inverse needs a unit constant term")
    g = [K.inv(f[0])]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        fg = mul(K, f[:prec], g)[:prec]
        # g <- g*(2 - f*g) mod x^prec
        t = [K.neg(c) for c in fg]
        t[0] = K.add(t[0], K.add(K.one, K.one))
        g = mul(K, g, t)[:prec]
    return trim(K, g[:n])


class SubproductTree:
    """Product tree over the moduli (x - a) for the integers a of points,
    for batch evaluation over the batch ring K of the matrix factorial,
    ell^n in value form (fields.SplitRing), which acts on F_p rows.

    The tree is built over F_p = K.base, not over ell, and evaluate takes
    fields.MatrixRows: every u-coefficient of every coordinate of all its
    entries goes down the tree together, as rows over F_p kept column by
    column.  Node (level, i) holds the points from i * 2**level on, at
    most 2**level of them; an odd node at any level is carried up
    unchanged.  A node of more than BASE_CASE points divides all the rows
    it receives at once (K.rows_rem, linear in the number of rows) when
    they are longer than its degree, and otherwise hands them to its
    children untouched; the first node of at most BASE_CASE points
    evaluates them all at its points at once (K.rows_at).  A node is
    built only when it divides: its product comes from its children's,
    which are kept for later nodes, and the inverse of its reversal, to
    the length of the quotients, is computed there (series_inv), since
    an evaluate divides at each node at most once.  The values come point
    by point, as the giant steps take them.
    """

    BASE_CASE = 32

    def __init__(self, K, points):
        self.K = K
        self.points = list(points)
        if not self.points:
            raise ValueError("need at least one evaluation point")
        self._pts = [K.base.from_int(a) for a in self.points]
        self._products = {}

    def evaluate(self, fs):
        """One list per point of the values there of the entries of the
        fields.MatrixRows fs, in the order of its entries."""
        at = [None] * len(self._pts)
        self._descend((len(at) - 1).bit_length(), 0, fs.cols, at)
        return at

    def _descend(self, level, idx, cols, at):
        """Fill the values at the points of node (level, idx) of the rows
        cols that it receives."""
        K, total = self.K, len(at)
        first = idx << level
        size = min(1 << level, total - first)
        if size <= self.BASE_CASE:
            at[first:first + size] = K.rows_at(
                cols, self._pts[first:first + size])
            return
        if len(cols) > size:
            m = self._product(level, idx)
            cols = K.rows_rem(cols, m, series_inv(
                K.base, m[::-1], len(cols) + 1 - len(m)))
        lo = 2 * idx
        self._descend(level - 1, lo, cols, at)
        if (lo + 1) << (level - 1) < total:
            self._descend(level - 1, lo + 1, cols, at)

    def _product(self, level, idx):
        """The product of the moduli of node (level, idx), memoised."""
        m = self._products.get((level, idx))
        if m is None:
            R = self.K.base
            if not level:
                m = [R.neg(self._pts[idx]), R.one]
            else:
                lo = 2 * idx
                m = self._product(level - 1, lo)
                if (lo + 1) << (level - 1) < len(self._pts):
                    m = mul(R, m, self._product(level - 1, lo + 1))
            self._products[level, idx] = m
        return m


def format_poly(K, f, var="x"):
    """Render in descending powers: "x^3 + 2*x + 1"; zero renders as "0"."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == K.zero:
            continue
        cs = K.format_elem(c)
        if i == 0:
            parts.append(cs)
        else:
            xs = var if i == 1 else f"{var}^{i}"
            parts.append(xs if cs == "1" else f"{cs}*{xs}")
    return " + ".join(parts) if parts else "0"


def interpolate_crt(K, residues, bound):
    """Chinese remaindering in K[x].

    residues is a sequence of (modulus, value) pairs with pairwise coprime
    moduli; returns the representative modulo their product, which is the
    unique solution of degree <= bound when one exists.  Raises
    InsufficientModuli unless the moduli degrees sum past bound, and
    ModuliNotCoprime on a shared factor.  It is crt_combine on the
    crt_basis of the moduli; callers with many value lists for the same
    moduli build the basis once.
    """
    residues = list(residues)
    basis = crt_basis(K, [m for m, _ in residues], bound)
    return crt_combine(K, basis, [v for _, v in residues])


def crt_basis(K, moduli, bound):
    """What crt_combine needs to glue values modulo pairwise coprime
    moduli, in mixed radix (Garner): per modulus m_i after the first, the
    product M_i of the earlier ones and the inverse of M_i modulo m_i.
    Raises as interpolate_crt does."""
    moduli = [trim(K, m) for m in moduli]
    total = sum(len(m) - 1 for m in moduli)
    if total <= bound:
        raise InsufficientModuli(
            f"moduli degrees sum to {total}, need more than bound {bound}")
    m_acc, basis = moduli[0], [(moduli[0], None, None)]
    for m_i in moduli[1:]:
        # gcd(M_i mod m_i, m_i) = gcd(M_i, m_i), so Euclid starts at the
        # degree of m_i, and a nonzero constant (always, for a linear
        # m_i that shares no root) is its own Bezout chain
        r = rem(K, m_acc, m_i)
        if len(r) == 1:
            u = [K.inv(r[0])]
        else:
            d, u, _ = xgcd(K, r, m_i)
            if len(d) != 1:
                raise ModuliNotCoprime(
                    "moduli share the factor " + format_poly(K, d))
        basis.append((m_i, rem(K, u, m_i), m_acc))
        m_acc = mul(K, m_acc, m_i)
    return basis


def crt_combine(K, basis, values):
    """The representative of degree below the product of the moduli of
    crt_basis that is congruent to values[i] modulo the i-th of them."""
    (m_0, _, _), *rest = basis
    c = rem(K, trim(K, values[0]), m_0)
    for (m_i, u, m_acc), v in zip(rest, values[1:]):
        t = rem(K, mul(K, rem(K, sub(K, trim(K, v), c), m_i), u), m_i)
        c = add(K, c, mul(K, m_acc, t))
    return c


def require_monic(K, f, what="polynomial"):
    if not f or f[-1] != K.one:
        raise NotMonic(f"{what} must be monic")
