"""Extensions base[u]/(S) of a finite field, elements as fixed-width tuples.

An ExtensionField element is a tuple of base-field elements of length
exactly the extension degree, so equality and hashing are structural.
It has the method surface of the fields in `fields` (add, mul, inv,
polymul, ...) and is compared by its `key`.  Only inputs over F_(p^k)
(`--ext` 2 and up) and points of degree k > 1 use it, so a solve whose
points all lie in F_p never imports this module.

Products delay the modular reduction: a dot product of k element pairs
costs k convolutions but a single reduction by S.  Over a prime base the
ring is packed: an element's coordinates pack into integers, a matrix of
polynomials in t is kept in row form (fields.MatrixRows), and it takes
the row kernels of fields.PackedRing and fields._matpoly_mul, its blocks
reduced by one integer sum of the packed rows u^(n+j) mod S.  Its
chain packs only the nonzero values of its N x N steps, and sizes its
slots for n m (p-1)^2, for n the degree and m <= N the most in a row:
2 log2 p + log2 nm bits, within 8 bytes up to p = 2^28 at nm = 162.
"""

from . import polys
from .fields import (PackedRing, PrimeField, _matpoly_mul, _pack, _slot_bytes,
                     _unpack)


class ExtensionField(PackedRing):
    """base[u]/(modulus) with elements as width-`degree` tuples.

    The modulus must be monic.  An irreducible one (callers build one with
    fields.find_irreducible) gives a field.  A squarefree one gives the product
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
        """Product in ℓ[t] with one reduction by S per output coefficient.

        Over a prime base both factors pack into one integer each,
        t-coefficient i in a block of 2 degree - 1 slots as matpoly_mul
        packs an entry, so the product is one integer product."""
        if self.packed:
            n, W, p = self.degree, 2 * self.degree - 1, self.base.p
            # a slot sums n products of residues per pair of coefficients
            slot = _slot_bytes((p - 1) ** 2 * n * min(len(f), len(g)))
            size = W * (len(f) + len(g) - 1)
            conv = _unpack(_pack(f, slot, W) * _pack(g, slot, W), slot, size)
            return polys.trim(self, [self.reduce_product(conv[i:i + W])
                                     for i in range(0, size, W)])
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
        """Product of MatrixRows A and B over self, which needs a prime
        base (`packed`): _matpoly_mul with one coordinate of degree rows
        per entry, each block reduced by the modulus."""
        if not self.packed:
            raise TypeError(f"matpoly_mul needs a prime base, not {self.base}")
        return _matpoly_mul(A, B, self.base.p, 1, self.degree,
                            self.reduce_product)

    def chain(self, pattern, steps, acc):
        """linalg.chain over a packed self: each value and entry of acc
        packs into one integer, and an output entry is one integer sum of
        products, unpacked and reduced by the modulus once."""
        n, p = self.degree, self.base.p
        # a slot sums n products of residues per pair of a row (one at
        # least, to hold a residue of acc)
        slot = _slot_bytes((p - 1) ** 2 * n * max(map(len, [[0], *pattern])))
        for vals in steps:
            left = [_pack([v], slot, n) for v in vals]
            right = list(zip(*[[_pack([e], slot, n) for e in row]
                               for row in acc]))
            acc = [[self.reduce_product(_unpack(sum([
                left[q] * col[k] for k, q in row]), slot, 2 * n - 1))
                for col in right] for row in pattern]
        return acc

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.q})"
