"""Finite fields: F_p on machine ints and extensions as fixed-width tuples.

A PrimeField element is an int in [0, p); an ExtensionField element is a
tuple of base-field elements of length exactly the extension degree, so
equality and hashing are structural.  Field objects expose the same method
surface (add, mul, inv, polymul, ...) and are compared by their `key`.

The polynomial product hooks are where the speed lives: over F_p the
coefficients are packed into one big integer per operand (Kronecker
substitution) so the convolution happens inside CPython's long
multiplication, and extensions delay the modular reduction so a dot product
of k element pairs costs k packed convolutions but a single reduction.
"""

from . import polys
from .errors import FieldMismatch, NonPrime

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with elements as plain ints in [0, p)."""

    KRONECKER_CUTOFF = 16

    def __init__(self, p):
        if not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        self.p = p
        self.q = p
        self.char = p
        self.degree = 1
        self.zero = 0
        self.one = 1
        self.key = ("prime", p)

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def neg(self, a):
        return self.p - a if a else 0

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def from_int(self, n):
        return n % self.p

    def elem(self, i):
        return i % self.p

    def elements(self):
        return range(self.p)

    def random_elem(self, rng):
        return rng.randrange(self.p)

    def format_elem(self, a):
        return str(a)

    def dot(self, xs, ys):
        return sum(a * b for a, b in zip(xs, ys)) % self.p

    def polymul(self, f, g):
        """Product of canonical coefficient lists; result needs no trim."""
        if min(len(f), len(g)) < self.KRONECKER_CUTOFF:
            p = self.p
            out = [0] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                if a:
                    for j, b in enumerate(g):
                        out[i + j] += a * b
            return [c % p for c in out]
        return self._polymul_kronecker(f, g)

    def _polymul_kronecker(self, f, g):
        p = self.p
        bound = (p - 1) * (p - 1) * min(len(f), len(g))
        slot = (bound.bit_length() + 7) // 8
        fb = b"".join(c.to_bytes(slot, "little") for c in f)
        gb = b"".join(c.to_bytes(slot, "little") for c in g)
        n_out = len(f) + len(g) - 1
        prod = int.from_bytes(fb, "little") * int.from_bytes(gb, "little")
        pb = prod.to_bytes(slot * (n_out + 1), "little")
        return [
            int.from_bytes(pb[i * slot:(i + 1) * slot], "little") % p
            for i in range(n_out)
        ]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField:
    """base[u]/(modulus) with elements as width-`degree` tuples.

    The modulus must be monic and irreducible over the base; callers build
    one with find_irreducible.  The base may itself be an extension.
    """

    NEWTON_CUTOFF = 24

    def __init__(self, base, modulus):
        modulus = polys.trim(base, modulus)
        if len(modulus) < 2:
            raise ValueError("modulus must have degree at least 1")
        polys.require_monic(base, modulus, "extension modulus")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.q = base.q ** self.degree
        self.char = base.char
        self.zero = (base.zero,) * self.degree
        self.one = self._pad([base.one])
        self.key = ("ext", base.key, tuple(modulus))
        self._srev_inv = None

    def _pad(self, coeffs):
        n = self.degree
        if len(coeffs) < n:
            return tuple(coeffs) + (self.base.zero,) * (n - len(coeffs))
        return tuple(coeffs[:n])

    def _strip(self, a):
        return polys.trim(self.base, list(a))

    @property
    def gen(self):
        """The image of u, a root of the modulus."""
        return self._pad([self.base.zero, self.base.one])

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul_unreduced(self, a, b):
        """Plain convolution as a base-field list, no reduction by S."""
        fa, fb = self._strip(a), self._strip(b)
        if not fa or not fb:
            return []
        return self.base.polymul(fa, fb)

    def reduce_product(self, c):
        """Reduce a convolution (degree < 2*degree - 1) back to a tuple."""
        base = self.base
        if len(c) <= self.degree:
            return self._pad(c)
        if len(self.modulus) < self.NEWTON_CUTOFF:
            return self._pad(polys.rem(base, c, self.modulus))
        if self._srev_inv is None:
            self._srev_inv = polys.series_inv(
                base, self.modulus[::-1], self.degree)
        return self._pad(polys.rem_monic_precomp(
            base, c, self.modulus, self._srev_inv))

    def mul(self, a, b):
        return self.reduce_product(self.mul_unreduced(a, b))

    def dot(self, xs, ys):
        base = self.base
        acc = []
        for a, b in zip(xs, ys):
            acc = polys.add(base, acc, self.mul_unreduced(a, b))
        return self.reduce_product(acc)

    def inv(self, a):
        fa = self._strip(a)
        if not fa:
            raise ZeroDivisionError("inverse of zero")
        return self._pad(polys.invmod(self.base, fa, self.modulus))

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def from_int(self, n):
        return self._pad([self.base.from_int(n)])

    def embed(self, c):
        """Lift a base-field element into the extension."""
        return self._pad([c])

    def project(self, a):
        """Inverse of embed; raises if a is not a base-field constant."""
        if any(x != self.base.zero for x in a[1:]):
            raise ValueError("element does not lie in the base field")
        return a[0]

    def elem(self, i):
        digits = []
        q0 = self.base.q
        for _ in range(self.degree):
            i, d = divmod(i, q0)
            digits.append(self.base.elem(d))
        return tuple(digits)

    def elements(self):
        return (self.elem(i) for i in range(self.q))

    def random_elem(self, rng):
        return self.elem(rng.randrange(self.q))

    def format_elem(self, a, var="u"):
        return polys.format_poly(self.base, self._strip(a), var=var)

    PACKED_CUTOFF = 8

    def polymul(self, f, g):
        """Product in ℓ[t] with one reduction by S per output coefficient."""
        base = self.base
        if (isinstance(base, PrimeField)
                and min(len(f), len(g)) >= self.PACKED_CUTOFF):
            return self._polymul_packed(f, g)
        stripped = [self._strip(b) for b in g]
        accs = [[] for _ in range(len(f) + len(g) - 1)]
        for i, a in enumerate(f):
            fa = self._strip(a)
            if not fa:
                continue
            for j, fb in enumerate(stripped):
                if fb:
                    accs[i + j] = polys.add(base, accs[i + j],
                                            base.polymul(fa, fb))
        return [self.reduce_product(c) for c in accs]

    def _polymul_packed(self, f, g):
        """Pack both variables into one integer product.

        Each t-coefficient gets a block of W = 2*degree - 1 slots so the
        u-convolutions inside a block cannot spill into the next one, and
        the slot width bounds the fully accumulated cross terms.
        """
        p = self.base.p
        n = self.degree
        W = 2 * n - 1
        bound = (p - 1) * (p - 1) * n * min(len(f), len(g))
        slot = (bound.bit_length() + 7) // 8
        block = slot * W

        def pack(h):
            buf = bytearray(block * len(h))
            for i, c in enumerate(h):
                off = block * i
                for k, a in enumerate(c):
                    if a:
                        buf[off + slot * k:off + slot * (k + 1)] = \
                            a.to_bytes(slot, "little")
            return int.from_bytes(bytes(buf), "little")

        n_out = len(f) + len(g) - 1
        pb = (pack(f) * pack(g)).to_bytes(block * (n_out + 1), "little")
        out = []
        for i in range(n_out):
            off = block * i
            conv = [
                int.from_bytes(pb[off + slot * k:off + slot * (k + 1)],
                               "little") % p
                for k in range(W)
            ]
            out.append(self.reduce_product(polys.trim(self.base, conv)))
        return out

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.q})"


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(K, f):
    """Rabin's test over F_q, with cheap low-degree factor screens first."""
    f = polys.trim(K, f)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if f[0] == K.zero:
        return False
    q = K.q
    u = [K.zero, K.one]
    red = polys.MonicModReducer(K, f)
    # chain of Frobenius powers: h[i] = u^(q^i) mod f
    h = polys.pow_mod(K, u, q, f, red)
    frob = {1: h}
    screen_to = min(3, n // 2)
    for i in range(1, screen_to + 1):
        if i > 1:
            h = polys.pow_mod(K, h, q, f, red)
            frob[i] = h
        if len(polys.gcd(K, polys.sub(K, h, u), f)) != 1:
            return False
    i = max(frob)
    critical = set(n // t for t in _prime_factors(n))
    for m in sorted(critical | {n}):
        while i < m:
            h = polys.pow_mod(K, h, q, f, red)
            i += 1
            frob[i] = h
        if m == n:
            if frob[n] != u:
                return False
        elif m > screen_to:
            if len(polys.gcd(K, polys.sub(K, frob[m], u), f)) != 1:
                return False
    return True


_irreducible_cache = {}


def find_irreducible(K, n):
    """First monic irreducible of degree n in the indexed enumeration.

    Candidate k has the base-q digits of k as its low coefficients, so the
    search order is u^n, u^n + 1, u^n + 2, ..., u^n + u, ...  The result is
    deterministic for a given (field, degree) pair and cached.
    """
    key = (K.key, n)
    hit = _irreducible_cache.get(key)
    if hit is not None:
        return list(hit)
    q = K.q
    for k in range(q ** n):
        digits = []
        kk = k
        for _ in range(n):
            kk, d = divmod(kk, q)
            digits.append(K.elem(d))
        f = digits + [K.one]
        if is_irreducible(K, f):
            _irreducible_cache[key] = tuple(f)
            return f
    raise ValueError(f"no irreducible of degree {n} found (impossible)")


def frobenius_orbit(L, a, q):
    """Distinct conjugates of a under x -> x^q, in orbit order."""
    orbit = [a]
    b = L.pow(a, q)
    while b != a:
        orbit.append(b)
        b = L.pow(b, q)
    return orbit


def minimal_polynomial(L, a, q):
    """Monic minimal polynomial over F_q of an element a of the extension L.

    L.base must be the F_q in question; the orbit product has coefficients
    fixed by x -> x^q, so they project back into the base field.
    """
    if L.base.q != q:
        raise FieldMismatch("minimal_polynomial expects q = order of L.base")
    f = [L.one]
    for b in frobenius_orbit(L, a, q):
        f = polys.mul(L, f, [L.neg(b), L.one])
    return [L.project(c) for c in f]


def are_conjugate(L, a, b, q):
    return b in frobenius_orbit(L, a, q)


def embedding(K, L):
    """Map from K into L: the identity when the fields coincide, the
    constant embedding when L is an extension of K.  Anything else is
    rejected; we never build towers implicitly."""
    if K.key == L.key:
        return lambda c: c
    if getattr(L, "base", None) is not None and L.base.key == K.key:
        return L.embed
    raise FieldMismatch(f"no embedding from {K.key} into {L.key}")
