"""Extensions F_p[u]/(f) of a prime field, elements as fixed-width tuples.

An ExtensionField element is a tuple of residues mod p of length exactly
the extension degree, so equality and hashing are structural.  It has the
method surface of the fields in `fields` (add, mul, inv, polymul, ...)
and is compared by its `key`.  Only points of degree k > 1 use it, as
their field ell, so a solve whose points all lie in F_p never imports
this module.  Its base is always a PrimeField: every input of the fast
path is over F_p.

It is fields.QuotientRing for an irreducible f (ValueError on a reducible
one), whose packed rows u^(k+j) mod f reduce its products.  Products
delay the modular reduction: a dot product of k element pairs costs k
convolutions but a single reduction by f.  A product of polynomials over
ell (polymul) is the schoolbook on elements: the drivers form only
short ones there, minimal polynomials of points of degree k.  The batch
ring of points of ell is fields.SplitRing, ell^n in value form, and its
kernels at k > 1 live here: pack_values packs each coordinate into one
integer, a block of 2k - 1 slots, by shift and add, which is faster than
fields._pack for many short integers; values_of reads them back with
fields._unpack, and reduce_blocks reduces every block of a product at
once, one integer product per row.
"""

from . import polys
from .fields import PrimeField, QuotientRing, _pack, _unpack, is_irreducible


class ExtensionField(QuotientRing):
    """F_p[u]/(modulus) with elements as width-`degree` tuples: the
    QuotientRing of an irreducible modulus, with the rest of a field's
    method surface.

    The base must be a PrimeField (TypeError otherwise), and the modulus
    monic and irreducible (ValueError otherwise): callers build one with
    fields.find_irreducible.
    """

    def __init__(self, base, modulus):
        if not isinstance(base, PrimeField):
            raise TypeError(f"an extension needs a prime base, not {base}")
        modulus = polys.trim(base, modulus)
        if len(modulus) < 2:
            raise ValueError("modulus must have degree at least 1")
        polys.require_monic(base, modulus, "extension modulus")
        if not is_irreducible(base, modulus):
            raise ValueError("extension modulus must be irreducible")
        super().__init__(base, modulus)
        self.q = base.q ** self.degree
        self.char = base.char
        self.key = ("ext", base.key, tuple(modulus))

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
        """Plain convolution as a base-field list, no reduction by f."""
        fa, fb = self._strip(a), self._strip(b)
        if not fa or not fb:
            return []
        return self.base.polymul(fa, fb)

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
            # no reduction by f needed, and the base field has reduced the
            # coefficients already
            return self._pad(c)
        return self.reduce(c)

    def dot(self, xs, ys):
        base, zero, acc = self.base, self.zero, []
        for a, b in zip(xs, ys):
            if a != zero and b != zero:
                acc = polys.add(base, acc, self.mul_unreduced(a, b))
        return self.reduce(acc)

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
        """Product in ell[t], schoolbook on the elements (see the module
        docstring)."""
        return polys.mul_schoolbook(self, f, g)

    def reduce_blocks(self, vals):
        """The elements that the blocks of 2 degree - 1 slots filling vals
        reduce to, each block an unreduced product of two packed elements:
        their coefficients end to end, degree per block.  Coefficient
        degree + i of every block, reduced mod p, packs at a stride of
        degree slots into one integer, whose product with packed row i
        adds that row to every block at once."""
        p, k, slot = self.base.p, self.degree, self.slot
        W, count = 2 * k - 1, len(vals) // (2 * k - 1)
        acc, high, low = 0, [0] * (count * k), [0] * (count * k)
        for i, row in enumerate(self.rows):
            high[::k] = [x % p for x in vals[k + i::W]]
            acc += _pack(high, slot, p) * row
        for j in range(k):
            low[j::k] = vals[j::W]
        return [(x + y) % p for x, y in zip(
            low, _unpack([acc], slot, count * k))]

    def pack_values(self, seqs, slot):
        """Per sequence of residues (degree per coordinate, as a
        fields.SplitRing over self lays out its values) a list of one
        integer per coordinate: its u-coefficients from the first of a
        block of 2 degree - 1 slots, which a product of two fills."""
        k, width = self.degree, 8 * slot
        flat = [x for s in seqs for x in s]
        ints = flat[k - 1::k]
        for j in range(k - 2, -1, -1):
            ints = [(a << width) + b for a, b in zip(ints, flat[j::k])]
        m = len(seqs[0]) // k if seqs else 0
        return [ints[i:i + m] for i in range(0, len(ints), m or 1)]

    def values_of(self, rows, slot):
        """The residues of rows of sums of products of pack_values
        integers, reduced by reduce_blocks in one pass: one list per row,
        degree per coordinate."""
        k = self.degree
        flat = self.reduce_blocks(_unpack(
            (x for row in rows for x in row), slot, 2 * k - 1))
        m = k * len(rows[0]) if rows else 0
        return [flat[i:i + m] for i in range(0, len(flat), m or 1)]

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.q})"
