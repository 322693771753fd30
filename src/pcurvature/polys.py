"""Dense univariate polynomial arithmetic over an arbitrary field object.

A polynomial is a plain Python list of field elements with index = degree
and no trailing zeros; the empty list is the zero polynomial.  All functions
take the coefficient field K as their first argument and trust that field
elements are in canonical form, so `==` on elements is exact equality.

Multiplication dispatches to K.polymul, which lets each field supply a
representation-specific fast path (Kronecker packing over a prime field,
delayed modular reduction in extensions).  Everything else here is generic.
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


def divides(K, f, g):
    """Whether f divides g (with 0 | 0 true)."""
    if not f:
        return not g
    return not rem(K, g, f)


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


class MonicModReducer:
    """Repeated remaindering by one fixed modulus, Newton inverse cached.

    The cached inverse has precision deg m, enough for any input of degree
    below 2*deg m (products of two reduced operands); longer inputs fall
    back to plain division.
    """

    NEWTON_CUTOFF = 24

    def __init__(self, K, m):
        self.K = K
        self.m = monic(K, m)
        self.dm = len(self.m) - 1
        self._inv = None

    def rem(self, f):
        K, m = self.K, self.m
        excess = len(f) - len(m) + 1
        if excess <= 0:
            return list(f)
        if self.dm < self.NEWTON_CUTOFF or excess > self.dm:
            return rem(K, f, m)
        if self._inv is None:
            self._inv = series_inv(K, m[::-1], self.dm)
        return rem_monic_precomp(K, f, m, self._inv)


def pow_mod(K, f, e, m, reducer=None):
    """f**e modulo m by square and multiply; e is a nonnegative int."""
    red = reducer if reducer is not None else MonicModReducer(K, m)
    result = red.rem(one(K))
    base = red.rem(f)
    while e:
        if e & 1:
            result = red.rem(mul(K, result, base))
        e >>= 1
        if e:
            base = red.rem(mul(K, base, base))
    return result


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
    """Coefficients of f(x + a), split/recombine on halves."""
    if a == K.zero or not f:
        return list(f)
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
    lo = taylor_shift(K, trim(K, f[:m]), a)
    hi = taylor_shift(K, f[m:], a)
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


def rem_monic_precomp(K, f, m, m_rev_inv):
    """Remainder of f modulo monic m, given inv(rev(m)) mod x^(len f - deg m).

    Falls back gracefully to quotient recovery by the reversal trick; the
    caller guarantees m_rev_inv has enough precision.
    """
    dm = len(m) - 1
    df = len(f) - 1
    if df < dm:
        return list(f)
    k = df - dm + 1
    frev = f[::-1]
    qrev = mul(K, frev[:k], m_rev_inv[:k])[:k]
    while len(qrev) < k:
        qrev.append(K.zero)
    q = qrev[::-1]
    qm = mul(K, q, m)
    r = sub(K, f, qm)
    assert len(r) <= dm, "fast reduction produced an oversized remainder"
    return r


class SubproductTree:
    """Balanced product tree over the moduli (x - a_i), for batch evaluation.

    Nodes store their modulus and, above a size cutoff, the inverse of its
    reversal for fast repeated remaindering.

    Over a `packed` K (F_p[u]/S, see fields.ExtensionField) with every
    point in F_p, the tree is built over F_p.  A polynomial then goes down
    it as the flat list of its u-coordinates.  Each node's remainder is
    K.coords_rem, with the node's inverse whatever its size; it works in
    packed integers and never reduces mod S.
    """

    NEWTON_CUTOFF = 24

    def __init__(self, K, points):
        self.K = K
        self.points = list(points)
        if not self.points:
            raise ValueError("need at least one evaluation point")
        self.packed = getattr(K, "packed", False) and not any(
            any(a[1:]) for a in self.points)
        R, self._pts = ((K.base, [a[0] for a in self.points]) if self.packed
                        else (K, self.points))
        levels = [[[R.neg(a), R.one] for a in self._pts]]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            nxt = []
            for i in range(0, len(prev) - 1, 2):
                nxt.append(mul(R, prev[i], prev[i + 1]))
            if len(prev) % 2:
                nxt.append(prev[-1])
            levels.append(nxt)
        self.R = R
        self.levels = levels
        self._inv_cache = {}

    @property
    def root(self):
        return self.levels[-1][0]

    def _rev_inv(self, m, key, prec):
        """inv(rev(m)) to at least precision prec, kept per node."""
        cached = self._inv_cache.get(key)
        if cached is None or cached[1] < prec:
            cached = (series_inv(self.R, m[::-1], prec), prec)
            self._inv_cache[key] = cached
        return cached[0]

    def _rem(self, f, m, key):
        K = self.K
        excess = len(f) - len(m) + 1
        if excess <= 0:
            return list(f)
        if len(m) - 1 <= 1 or len(m) < self.NEWTON_CUTOFF:
            return rem(K, f, m)
        return rem_monic_precomp(K, f, m, self._rev_inv(m, key, excess))

    def _leaf_packed(self, g, a):
        """The value at a of g, a flat coordinate list, by Horner: f_0 +
        a*f_1 below a pair, any length only when the tree is one leaf."""
        n, p = self.K.degree, self.R.p
        acc = g[-n:]
        for i in range(len(g) - 2 * n, -1, -n):
            acc = [(a * x + y) % p for x, y in zip(acc, g[i:i + n])]
        return tuple(acc)

    def evaluate(self, f):
        """Values of f at every point, via a remainder cascade.

        An odd node at any level is carried upward unchanged, which keeps
        the invariant that node (level, idx) covers children (level - 1,
        2*idx) and, when present, (level - 1, 2*idx + 1).
        """
        K = self.K
        vals = [K.zero] * len(self.points)
        if not f:
            return vals
        if self.packed:
            f = [x for c in f for x in c]

        def descend(level, idx, g):
            m = self.levels[level][idx]
            if self.packed:
                if level == 0:
                    vals[idx] = self._leaf_packed(g, self._pts[idx])
                    return
                k = len(g) // K.degree - len(m) + 1
                if k > 0:
                    g = K.coords_rem(g, m, self._rev_inv(m, (level, idx), k))
            else:
                g = self._rem(g, m, (level, idx))
                if level == 0:
                    vals[idx] = g[0] if g else K.zero
                    return
            lo = 2 * idx
            descend(level - 1, lo, g)
            if lo + 1 < len(self.levels[level - 1]):
                descend(level - 1, lo + 1, g)

        descend(len(self.levels) - 1, 0, f)
        return vals


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
    ModuliNotCoprime on a shared factor.
    """
    pairs = [(trim(K, m), rem(K, trim(K, v), trim(K, m))) for m, v in residues]
    total = sum(len(m) - 1 for m, _ in pairs)
    if total <= bound:
        raise InsufficientModuli(
            f"moduli degrees sum to {total}, need more than bound {bound}")
    m_acc, c_acc = pairs[0]
    for m_i, c_i in pairs[1:]:
        d, u, _ = xgcd(K, m_acc, m_i)
        if len(d) != 1:
            raise ModuliNotCoprime(
                "moduli share the factor " + format_poly(K, d))
        t = rem(K, mul(K, sub(K, c_i, c_acc), u), m_i)
        c_acc = add(K, c_acc, mul(K, m_acc, t))
        m_acc = mul(K, m_acc, m_i)
    return c_acc


def require_monic(K, f, what="polynomial"):
    if not f or f[-1] != K.one:
        raise NotMonic(f"{what} must be monic")
