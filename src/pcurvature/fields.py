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
Over an extension of F_p the same holds for matrices of polynomials in t:
each entry packs both variables into one integer, each row-by-column inner
product of k terms is k integer products summed, and each output
coefficient is reduced once.  That reduction is itself one integer sum of
the packed rows u^(n+j) mod S.  A division by a polynomial in t over F_p
(coords_rem) packs the same way and never reduces mod S at all.
"""

import array
import functools
import random
import sys

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


def _slot_bytes(bound):
    """Bytes per slot that hold any int in [0, bound].  Widths up to 8 are
    rounded up to a machine integer, which packs and unpacks as an array."""
    nbytes = (bound.bit_length() + 7) // 8
    return next((w for w in (1, 2, 4, 8) if w >= nbytes), nbytes)


# array type codes by item size; the slots are little-endian
_TYPECODES = {array.array(c).itemsize: c for c in "BHIQ"}
_SWAP = sys.byteorder != "little"


def _pack(blocks, slot, width):
    """One integer from lists of ints in [0, 256**slot): list i fills the
    slots from i*width on, least significant first, and the rest of its
    `width` slots are zero."""
    code = _TYPECODES.get(slot)
    if code is None:
        parts = []
        for xs in blocks:
            parts.extend(x.to_bytes(slot, "little") for x in xs)
            parts.append(bytes(slot * (width - len(xs))))
        return int.from_bytes(b"".join(parts), "little")
    zeros = [0] * width
    flat = []
    for xs in blocks:
        flat.extend(xs)
        flat.extend(zeros[len(xs):])
    a = array.array(code, flat)
    if _SWAP:
        a.byteswap()
    return int.from_bytes(a, "little")


def _unpack(x, slot, count):
    """The first `count` slots of a packed integer, as ints."""
    buf = x.to_bytes(slot * count, "little")
    code = _TYPECODES.get(slot)
    if code is None:
        return [int.from_bytes(buf[k:k + slot], "little")
                for k in range(0, slot * count, slot)]
    a = array.array(code, buf)
    if _SWAP:
        a.byteswap()
    return a.tolist()


class ExtensionField:
    """base[u]/(modulus) with elements as width-`degree` tuples.

    The modulus must be monic.  An irreducible one (callers build one with
    find_irreducible) gives a field.  A squarefree one gives the product
    ring of the fields base[u]/(m_i), one per irreducible factor m_i:
    every ring operation works as it does in a field, but `inv` raises
    ZeroDivisionError on a zero divisor, which need not be zero.  The base
    may itself be an extension.
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
        # products over a prime base pack into integers (matpoly_mul)
        self.packed = isinstance(base, PrimeField)
        if self.packed:
            self._init_reduction_rows()

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
        return self._pad(polys.rem(self.base, [self.base.zero, self.base.one],
                                   self.modulus))

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
        """Reduce a convolution (degree < 2*degree - 1) back to a tuple.

        Over a prime base the coefficients may be any ints, reduced mod p
        or not.
        """
        if self.packed:
            return self._reduce_ints(c)
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

    def _init_reduction_rows(self):
        """Pack row j = u^(degree + j) mod S for j < degree - 1, so that a
        remainder is one integer sum of rows weighted by high coefficients."""
        p, n, tail = self.base.p, self.degree, self.modulus[:-1]
        # a u-coefficient of a product in F_p[u]/(S): n products of residues
        self._row_slot = _slot_bytes((p - 1) ** 2 * n)
        rows = []
        r = [0] * (n - 1) + [1]
        for _ in range(n - 1):
            top = r[-1]
            r = [(a - top * m) % p for a, m in zip([0] + r[:-1], tail)]
            rows.append(_pack([r], self._row_slot, n))
        self._rows = rows

    def _reduce_ints(self, c):
        """Remainder modulo S over F_p of a list of ints: coefficient
        degree + j, reduced mod p, weights packed row j."""
        p, n = self.base.p, self.degree
        acc = 0
        for h, row in zip(c[n:], self._rows):
            acc += h % p * row
        r = _unpack(acc, self._row_slot, n)
        for k, x in enumerate(c[:n]):
            r[k] += x
        return tuple([x % p for x in r])

    def mul(self, a, b):
        c = self.mul_unreduced(a, b)
        if len(c) <= self.degree:
            # no reduction by S needed (a product by a constant, say), and
            # the base field has reduced the coefficients already
            return self._pad(c)
        return self.reduce_product(c)

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
            e >>= 1
            if e:
                a = self.mul(a, a)
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

    def polymul(self, f, g):
        """Product in ℓ[t] with one reduction by S per output coefficient."""
        if self.packed:
            return self.matpoly_mul([[f]], [[g]])[0][0]
        base = self.base
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
        # over a product ring the top coefficient can vanish
        return polys.trim(self, [self.reduce_product(c) for c in accs])

    def matpoly_mul(self, A, B):
        """Product of matrices whose entries are polynomials in t over self.

        Needs a prime base (`packed`).  Each entry is packed once into one
        integer (see `_pack`); an output entry is the plain integer sum of
        its row-by-column products, unpacked once, with one reduction by
        the modulus per t-coefficient.
        """
        if not self.packed:
            raise TypeError(f"matpoly_mul needs a prime base, not {self.base}")
        W = 2 * self.degree - 1
        la = max((len(e) for row in A for e in row), default=0)
        lb = max((len(e) for row in B for e in row), default=0)
        # each t-coefficient takes a block of W slots, so the u-convolutions
        # inside a block cannot spill into the next one; a slot must hold a
        # coefficient even when the other side is all zero
        slot = _slot_bytes((self.base.p - 1) ** 2 * self.degree
                           * max(min(la, lb), 1) * len(B))
        PA = [[(_pack(e, slot, W), len(e)) for e in row] for row in A]
        cols = list(zip(*[[(_pack(e, slot, W), len(e)) for e in row]
                          for row in B]))
        out = []
        for row in PA:
            orow = []
            for col in cols:
                acc = length = 0
                for (a, na), (b, nb) in zip(row, col):
                    if a and b:
                        acc += a * b
                        length = max(length, na + nb - 1)
                conv = _unpack(acc, slot, W * length)
                orow.append(polys.trim(self, [
                    self.reduce_product(conv[i:i + W])
                    for i in range(0, W * length, W)]))
            out.append(orow)
        return out

    def coords_rem(self, g, m, m_rev_inv):
        """Remainder of a polynomial in t over self by a monic m over F_p.

        Needs a prime base.  g and the result are flat lists of
        u-coordinates: slots i*n to i*n + n - 1 hold coefficient i, with
        n = degree.  m_rev_inv is the inverse of the reversal of m, as
        polys.series_inv gives it, to at least the length of the quotient.
        As m has F_p coefficients, the division acts on each u-coordinate
        alone: g is packed block by block into one integer, the quotient
        is two integer products (Barrett), the remainder one more, and
        the slots are reduced mod p once, at the end.
        """
        p, n, d = self.base.p, self.degree, len(m) - 1
        k = len(g) // n - d
        if k <= 0:
            return g
        # a quotient slot sums k products of residues; a slot of the
        # remainder adds to a residue at most min(k, d) quotient slots,
        # each times a residue
        slot = _slot_bytes(k * min(k, d) * (p - 1) ** 3 + p - 1)
        bits = 8 * slot * n
        G = _pack([g], slot, len(g))
        mu = m_rev_inv[k - 1::-1]
        mu = _pack([[c] for c in [0] * (k - len(mu)) + mu], slot, n)
        Q = ((G >> d * bits) * mu) >> (k - 1) * bits
        neg_m = _pack([[p - c if c else 0] for c in m[:d]], slot, n)
        low = (1 << d * bits) - 1
        r = _unpack((G & low) + (Q * neg_m & low), slot, d * n)
        return [x % p for x in r]

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


def _frobenius_columns(K, h, red, n):
    """Columns of the Berlekamp matrix of f: row j is u^(jq) = h^j mod f.

    Frobenius g -> g^q fixes K, so it is K-linear on K[u]/(f), and
    coefficient k of g^q is the dot product of g with column k.
    """
    rows = [[K.one], h]
    for _ in range(n - 2):
        rows.append(red.rem(polys.mul(K, rows[-1], h)))
    zero = K.zero
    padded = [r + [zero] * (n - len(r)) for r in rows]
    return [list(col) for col in zip(*padded)]


def _apply_frobenius(K, cols, g):
    """g^q mod f from the Berlekamp columns; g is reduced modulo f."""
    g = g + [K.zero] * (len(cols) - len(g))
    return polys.trim(K, [K.dot(g, col) for col in cols])


def is_irreducible(K, f):
    """Rabin's test over F_q, with cheap low-degree factor screens first.

    h_i = u^(q^i) mod f.  h_1 comes from square and multiply; once f has
    no linear factor, every further h_i is one product with the Berlekamp
    matrix of f.
    """
    f = polys.trim(K, f)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if f[0] == K.zero:
        return False
    u = [K.zero, K.one]
    red = polys.MonicModReducer(K, f)
    h = polys.pow_mod(K, u, K.q, f, red)
    if len(polys.gcd(K, polys.sub(K, h, u), f)) != 1:
        return False
    cols = _frobenius_columns(K, h, red, n)
    screen_to = min(3, n // 2)
    critical = set(n // t for t in _prime_factors(n) if n // t > screen_to)
    for i in range(2, n + 1):
        h = _apply_frobenius(K, cols, h)
        if i <= screen_to or i in critical:
            if len(polys.gcd(K, polys.sub(K, h, u), f)) != 1:
                return False
    return h == u


# Moduli kept per (field, degree); like interp.power_basis_solver, the
# cache is bounded so a long-lived process cannot grow it without limit.
IRREDUCIBLE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=IRREDUCIBLE_CACHE_SIZE)
def _seeded_irreducible(K, n):
    rng = random.Random(f"pcurvature-irreducible:{K.q}:{n}")
    while True:
        f = [K.random_elem(rng) for _ in range(n)] + [K.one]
        if is_irreducible(K, f):
            return tuple(f)


def find_irreducible(K, n):
    """A monic irreducible of degree n over K, found by seeded trial.

    Candidates u^n + (random lower coefficients) come from a generator
    seeded by q and n alone, so the result is deterministic for a given
    (field, degree) pair.  About one candidate in n is irreducible, so the
    expected number of tries is about n, whatever q is.  Results are kept
    in a bounded cache; each call returns a fresh list.
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    return list(_seeded_irreducible(K, n))


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
