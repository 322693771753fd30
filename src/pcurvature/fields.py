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
the packed rows u^(n+j) mod S.  A Taylor shift in t by an F_p constant
(coords_shift) never reduces mod S: for a polynomial of length L <= p it
is one convolution with F_p constants, a single integer product of each
u-coordinate's scaled coefficients with the packed c^m/m!.  Nor does the
multipoint evaluation at F_p points (rows_rem, rows_at), which acts on
rows of F_p coefficients, one per u-coordinate and polynomial.

A SplitRing is F_p[z]/S for S a product of distinct linear factors z - a_i,
kept in value form: an element is the tuple of its values at the a_i, so
the ring is F_p^n and nothing is ever reduced mod S.  A product of matrices
of polynomials in t is one Kronecker product over F_p per coordinate and
pair of entries, on integers n times shorter than the packed kernel's
(which also needs 2n - 1 slots per t-coefficient), and constant matrices
multiply pointwise.  coords_shift, rows_rem and rows_at act on each
coordinate alone, so the split ring shares them with ExtensionField.
"""

import array
import functools
import itertools
import operator
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
        # a slot sums min(len f, len g) products of residues
        slot = _slot_bytes((p - 1) ** 2 * min(len(f), len(g)))
        prod = _pack([f], slot, len(f)) * _pack([g], slot, len(g))
        return [c % p for c in _unpack(prod, slot, len(f) + len(g) - 1)]

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
    return _WORD_BYTES[nbytes] if nbytes <= 8 else nbytes


# the machine-integer width that holds a given number of bytes
_WORD_BYTES = (1, 1, 2, 4, 4, 8, 8, 8, 8)


# array type codes by item size; the slots are little-endian
_TYPECODES = {array.array(c).itemsize: c for c in "BHIQ"}
_SWAP = sys.byteorder != "little"


def _pack_bytes(blocks, slot, width):
    """Lists of ints in [0, 256**slot) as little-endian bytes: list i fills
    the slots from i*width on, least significant first, and the rest of
    its `width` slots are zero."""
    code = _TYPECODES.get(slot)
    if code is None:
        parts = []
        for xs in blocks:
            parts.extend(x.to_bytes(slot, "little") for x in xs)
            parts.append(bytes(slot * (width - len(xs))))
        return b"".join(parts)
    if len(blocks) == 1 and len(blocks[0]) == width:
        flat = blocks[0]
    else:
        zeros, flat = [0] * width, []
        for xs in blocks:
            flat.extend(xs)
            flat.extend(zeros[len(xs):])
    a = array.array(code, flat)
    if _SWAP:
        a.byteswap()
    return a.tobytes()


def _pack(blocks, slot, width):
    """One integer from lists of ints, laid out as _pack_bytes does."""
    return int.from_bytes(_pack_bytes(blocks, slot, width), "little")


def _unpack_bytes(buf, slot):
    """Every slot of little-endian bytes, as a sequence of ints: an array
    of machine integers when they fit one, so that slicing it creates no
    int objects, else a list."""
    code = _TYPECODES.get(slot)
    if code is None:
        return [int.from_bytes(buf[k:k + slot], "little")
                for k in range(0, len(buf), slot)]
    a = array.array(code, buf)
    if _SWAP:
        a.byteswap()
    return a


def _unpack(x, slot, count):
    """The first `count` slots of a packed integer, as _unpack_bytes
    gives them."""
    return _unpack_bytes(x.to_bytes(slot * count, "little"), slot)


def _factorials_mod(p, n):
    """i! and 1/i! modulo the prime p for i < n <= p."""
    fact = [1] * n
    for i in range(1, n):
        fact[i] = fact[i - 1] * i % p
    inv = [1] * n
    inv[-1] = pow(fact[-1], -1, p)
    for i in range(n - 1, 1, -1):
        inv[i - 1] = inv[i] * i % p
    return fact, inv


class ExtensionField:
    """base[u]/(modulus) with elements as width-`degree` tuples.

    The modulus must be monic.  An irreducible one (callers build one with
    find_irreducible) gives a field.  A squarefree one gives the product
    ring of the fields base[u]/(m_i), one per irreducible factor m_i:
    every ring operation works as it does in a field, but `inv` raises
    ZeroDivisionError on a zero divisor, which need not be zero.  The base
    may itself be an extension.
    """

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
        # products over a prime base pack into integers (matpoly_mul)
        self.packed = isinstance(base, PrimeField)
        if self.packed:
            self._init_reduction_rows()
        else:
            self._reducer = polys.MonicModReducer(base, modulus)

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
        or not; over any other base the modulus's MonicModReducer divides.
        """
        if self.packed:
            return self._reduce_ints(c)
        return self._pad(self._reducer.rem(c))

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
        r = list(_unpack(acc, self._row_slot, n))
        for k, x in enumerate(c[:n]):
            r[k] += x
        return tuple([x % p for x in r])

    def mul(self, a, b):
        # a product by an embedded base constant (or zero) scales the
        # coordinates of the other factor
        zero_tail = self.zero[1:]
        if b[1:] == zero_tail:
            a, b = b, a
        if a[1:] == zero_tail:
            mul, c = self.base.mul, a[0]
            return tuple([mul(c, x) for x in b])
        c = self.mul_unreduced(a, b)
        if len(c) <= self.degree:
            # no reduction by S needed, and the base field has reduced the
            # coefficients already
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

    def is_constant(self, a):
        """Whether a lies in the base field, as the image of embed."""
        return all(x == self.base.zero for x in a[1:])

    def project(self, a):
        """Inverse of embed; raises if a is not a base-field constant."""
        if not self.is_constant(a):
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

    def rows_rem(self, cols, m, m_rev_inv):
        """Remainders by a monic m over F_p of polynomials (rows) over F_p,
        given and returned column by column: column i holds coefficient i
        of every row.  m_rev_inv inverts the reversal of m to at least the
        quotient length k.  Each row's k high coefficients fill 2k - 1
        slots of one integer; one product with the reversed inverse gives
        every quotient (Barrett), and its first min(k, deg m) slots,
        reduced mod p, times -m give the remainders."""
        p, d = self.base.p, len(m) - 1
        k = len(cols) - d
        if k <= 0:
            return cols
        count, top = len(cols[0]), min(k, d)
        # a quotient slot sums k products of residues; a slot of the
        # remainder adds to a residue at most min(k, d) products of a
        # reduced quotient slot and a residue
        slot = _slot_bytes(k * (p - 1) ** 2)
        W, V = 2 * k - 1, top + d - 1
        hi = [0] * (count * W)
        for j, col in enumerate(cols[d:]):
            hi[j::W] = col
        mu = m_rev_inv[k - 1::-1]
        prod = _unpack(_pack([hi], slot, count * W)
                       * _pack([[0] * (k - len(mu)) + mu], slot, k),
                       slot, count * W)
        del hi  # each buffer is freed once used, for a lower peak memory
        quo = [0] * (count * V)
        for i in range(top):
            quo[i::V] = [x % p for x in prod[k - 1 + i::W]]
        del prod
        slot = _slot_bytes(top * (p - 1) ** 2 + p - 1)
        neg_m = [p - c if c else 0 for c in m[:d]]
        low = _unpack(_pack([quo], slot, count * V) * _pack([neg_m], slot, d),
                      slot, count * V)
        del quo
        return [[(x + y) % p for x, y in zip(low[j::V], col)]
                for j, col in enumerate(cols[:d])]

    def rows_at(self, cols, points):
        """Values at each of points in F_p of polynomials over self whose
        coordinates are the rows of rows_rem, degree rows each: one list
        per point.  Column i fills an integer C_i, and the row values at a
        are the slots of sum_i (a^i mod p) C_i."""
        p, count = self.base.p, len(cols[0])
        # a slot sums len(cols) products of residues
        slot = _slot_bytes(len(cols) * (p - 1) ** 2)
        C = [_pack([col], slot, count) for col in cols]
        out = []
        for a in points:
            acc, x = C[0], 1
            for c in C[1:]:
                x = x * a % p
                acc += x * c
            vals = iter([v % p for v in _unpack(acc, slot, count)])
            out.append(list(zip(*[vals] * self.degree)))
        return out

    def coords_shift(self, g, c):
        """Taylor shift f(t + c) by c in F_p of a polynomial in t over self.

        Needs a prime base.  g and the result are flat lists of
        u-coordinates, coefficient by coefficient, of a polynomial of length
        L <= p, so that the factorials below L are units.  Coefficient j
        of the shift is (1/j!) sum_i f_i i! c^(i-j)/(i-j)!, a convolution
        with F_p constants that acts on each u-coordinate alone.  So each
        coordinate's f_i i! fill a block of 2L - 1 slots of one integer,
        the c^m/m! fill L slots of another in reverse order, and
        coefficient j of every coordinate is slot L - 1 + j of its block
        in their product, reduced mod p once.
        """
        p, n = self.base.p, self.degree
        L = len(g) // n
        fact, inv_fact = _factorials_mod(p, L)
        powers, x = [], 1
        for m in range(L):
            powers.append(x * inv_fact[m] % p)
            x = x * c % p
        # a slot sums at most L products of residues
        slot, W = _slot_bytes(L * (p - 1) ** 2), 2 * L - 1
        G = _pack([[x * f % p for x, f in zip(g[k::n], fact)]
                   for k in range(n)], slot, W)
        vals = _unpack(G * _pack([powers[::-1]], slot, L), slot, n * W)
        cols = [[x * f % p for x, f in zip(vals[k + L - 1:k + W], inv_fact)]
                for k in range(0, n * W, W)]
        return list(itertools.chain.from_iterable(zip(*cols)))

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.q})"


class SplitRing:
    """F_p[z]/((z - a_1)...(z - a_n)) for distinct a_i in F_p, in value form.

    An element is the tuple of its values at a_1, ..., a_n, so the ring is
    F_p^n and every operation acts on each coordinate alone: add, mul and
    inv pointwise (inv raises ZeroDivisionError on a zero divisor), dot
    one sum per coordinate, and a product of polynomial matrices in t one
    Kronecker product over F_p per coordinate and pair of entries.  No
    product is ever reduced by the modulus, and integers stay as short as
    one coordinate's polynomial.  z itself is `gen`, the tuple of roots.
    """

    packed = True

    def __init__(self, base, roots):
        if not isinstance(base, PrimeField):
            raise TypeError(f"a split ring needs a prime base, not {base}")
        roots = tuple(base.from_int(a) for a in roots)
        if not roots or len(set(roots)) != len(roots):
            raise ValueError("need at least one root, all distinct")
        self.base = base
        self.p = base.p
        self.char = base.char
        self.degree = len(roots)
        self.gen = roots
        self.zero = (0,) * self.degree
        self.one = (1,) * self.degree
        self.key = ("split", base.key, roots)

    def add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def neg(self, a):
        p = self.p
        return tuple([-x % p for x in a])

    def mul(self, a, b):
        p = self.p
        return tuple([x * y % p for x, y in zip(a, b)])

    def dot(self, xs, ys):
        terms = [map(operator.mul, a, b) for a, b in zip(xs, ys)]
        if not terms:
            return self.zero
        p = self.p
        return tuple([sum(c) % p for c in zip(*terms)])

    def inv(self, a):
        if not all(a):
            raise ZeroDivisionError("element is a zero divisor")
        p = self.p
        return tuple([pow(x, -1, p) for x in a])

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        p = self.p
        return tuple([pow(x, e, p) for x in a])

    def from_int(self, n):
        return self.embed(n % self.p)

    def embed(self, c):
        """A base-field element as a constant of the ring."""
        return (c,) * self.degree

    def is_constant(self, a):
        """Whether a lies in the base field, as the image of embed."""
        return a.count(a[0]) == len(a)

    def project(self, a):
        """Inverse of embed; raises if a is not a base-field constant."""
        if not self.is_constant(a):
            raise ValueError("element does not lie in the base field")
        return a[0]

    def random_elem(self, rng):
        return tuple([rng.randrange(self.p) for _ in range(self.degree)])

    def polymul(self, f, g):
        return self.matpoly_mul([[f]], [[g]])[0][0]

    def matpoly_mul(self, A, B):
        """Product of matrices whose entries are polynomials in t over self.

        Each entry is packed in one array pass into n integers, one per
        coordinate.  An output entry sums, per coordinate, the integer
        products of its row-by-column pairs, and all its coordinates are
        unpacked in one pass.  Constant matrices, such as the giant steps,
        multiply pointwise through dot.
        """
        la = max((len(e) for row in A for e in row), default=0)
        lb = max((len(e) for row in B for e in row), default=0)
        if la <= 1 and lb <= 1:
            return self._matmul_constants(A, B)
        n, p = self.degree, self.p
        # a slot sums, over the inner dimension, up to min(la, lb)
        # products of residues
        slot = _slot_bytes((p - 1) ** 2 * max(min(la, lb), 1) * len(B))
        PA = [[self._split(e, slot) for e in row] for row in A]
        cols = list(zip(*[[self._split(e, slot) for e in row]
                          for row in B]))
        out = []
        for row in PA:
            orow = []
            for col in cols:
                accs, length = [0] * n, 0
                for a, b in zip(row, col):
                    if a and b:
                        accs = list(map(operator.add, accs,
                                        map(operator.mul, a[0], b[0])))
                        length = max(length, a[1] + b[1] - 1)
                if not length:
                    orow.append([])
                    continue
                width = slot * length
                vals = _unpack_bytes(b"".join(
                    x.to_bytes(width, "little") for x in accs), slot)
                vals = [x % p for x in vals]
                orow.append(polys.trim(self, list(zip(*[
                    vals[i:i + length]
                    for i in range(0, n * length, length)]))))
            out.append(orow)
        return out

    def _split(self, e, slot):
        """A polynomial in t as its n coordinate polynomials over F_p, each
        packed into one integer, with its length; None when it is zero."""
        if not e:
            return None
        width = slot * len(e)
        flat = list(itertools.chain.from_iterable(zip(*e)))
        buf = _pack_bytes([flat], slot, len(flat))
        return ([int.from_bytes(buf[k:k + width], "little")
                 for k in range(0, len(buf), width)], len(e))

    def _matmul_constants(self, A, B):
        zero = self.zero
        cols = list(zip(*[[e[0] if e else zero for e in row] for row in B]))
        out = []
        for row in A:
            consts = [e[0] if e else zero for e in row]
            out.append([[c] if c != zero else []
                        for c in (self.dot(consts, col) for col in cols)])
        return out

    # shifting by an F_p constant acts on each coordinate alone, in value
    # form as in the monomial basis; the multipoint kernels act on F_p rows
    coords_shift = ExtensionField.coords_shift
    rows_rem = ExtensionField.rows_rem
    rows_at = ExtensionField.rows_at

    def __eq__(self, other):
        return isinstance(other, SplitRing) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.p})^{self.degree}"


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
    if L.q == q:
        # x -> x^q fixes every element of a field of order q
        return [a]
    orbit = [a]
    b = L.pow(a, q)
    while b != a:
        orbit.append(b)
        b = L.pow(b, q)
    return orbit


def minimal_polynomial(L, a, q):
    """Monic minimal polynomial over F_q of an element a of L.

    L is either F_q itself, where the answer is z - a, or an extension
    whose base is F_q: the orbit product has coefficients fixed by
    x -> x^q, so they project back into the base field.
    """
    base = getattr(L, "base", None)
    over_q = base is not None and base.q == q
    if L.q == q and not over_q:
        # F_q itself (an extension of degree 1 also has order q)
        return [L.neg(a), L.one]
    if not over_q:
        raise FieldMismatch(
            "minimal_polynomial expects L = F_q or an extension of F_q")
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
