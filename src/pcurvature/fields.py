"""Finite fields: F_p on machine ints, and the batch ring of the factorial.

A PrimeField element is an int in [0, p).  Field objects expose the same
method surface (add, mul, inv, polymul, ...) and are compared by their
`key`.  Extensions F_p[u]/(f), whose elements are tuples, live in
`extension`; a solve whose points all lie in F_p never loads it.  Every
input of the solvers is over a PrimeField.

The polynomial product hooks are where the speed lives: over F_p the
coefficients are packed into one big integer per operand (Kronecker
substitution) so the convolution happens inside CPython's long
multiplication.  One sequence of residues packs by _pack, one column of
_pack_cols, and every packed integer is read back by _unpack.

QuotientRing, F_p[u]/(f) for any monic f, is the one reduction by a fixed
modulus: the rows u^(deg f + j) mod f are packed once, and a remainder is
one integer sum of them.  Ben-Or's test (is_irreducible, behind the
seeded search find_irreducible) runs in it, one gcd per degree up to
deg f / 2, and extension.ExtensionField is it for an irreducible f.  The
test and the search refuse a base other than F_p (FieldMismatch).

The matrix factorial runs on one ring, SplitRing: ell^n in value form for
n points of a field ell, F_p or F_p[u]/(f) with f irreducible of degree
k.  It keeps a matrix of polynomials in t in row form (MatrixRows): one
row over F_p per u-coefficient of each coordinate of each nonzero entry,
kept column by column in arrays of machine integers, which its kernels
read and write without crossing into tuples.  matpoly_mul packs each
coordinate from the columns into one integer, a block of 2k - 1 slots per
t-coefficient; each row-by-column inner product of m terms is m integer
products summed, and each output block is reduced once, mod p or, at
k > 1, by f.  shift_rows shifts the whole matrix in t by an F_p
constant: shifted column j is one sum of the packed columns times F_p
constants, for entries no longer than p.  shift_rows and the multipoint
evaluation at F_p points (rows_rem, rows_at) act on each row alone.

Slot widths.  Every packed product sizes its slots for the largest sum a
slot can hold.  A slot of up to 8 bytes packs and unpacks in one array
pass; a wider one unpacks slot by slot in Python.  For entries of length
L (la and lb for two factors), N x N matrices, points of degree k, and
quotients of length k' by an m over F_p, the bounds and the bits they
reached on the det and mc batches of the workload operator, its companion
system and sym2 (N = 4, 6 and 9), at s the largest power of two whose
square is at most p, are:

    kernel                       bound                      2^10 2^16 2^18 2^20
    shift_rows                   L (p-1)^2                    24   40   45   50
    matpoly_mul                  k min(la, lb) N (p-1)^2      27   43   48   53
    rows_rem, first product      k' (p-1)^2                    -   40   45   50
    rows_rem, second product     min(k', deg m) (p-1)^2 + p-1  -   40   45   50
    rows_at                      L (p-1)^2                    25   39   43   47

(rows_rem shows the larger of its two products, and matpoly_mul the bits
at k = 1: log2 k more at k.)  They grow by about 2.5 bits per doubling of
p, as L and k' grow like sqrt p, so they stay within 8 bytes up to about
p = 2^24 (2^25 for shift_rows and rows_rem).  The chain's slots at k > 1
hold k m (p-1)^2, for m <= N the most in a row.
"""

import array
import itertools
import operator
import random
import sys

from . import polys
from .errors import DimensionMismatch, FieldMismatch, NonPrime

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
        """Product of canonical coefficient lists; result needs no trim.
        The schoolbook below KRONECKER_CUTOFF, else one packed product."""
        p = self.p
        if min(len(f), len(g)) < self.KRONECKER_CUTOFF:
            out = [0] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                if a:
                    for j, b in enumerate(g):
                        out[i + j] += a * b
            return [c % p for c in out]
        # a slot sums min(len f, len g) products of residues
        slot = _slot_bytes((p - 1) ** 2 * min(len(f), len(g)))
        prod = _pack(f, slot, p) * _pack(g, slot, p)
        return [c % p for c in _unpack([prod], slot, len(f) + len(g) - 1)]

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


def _unpack_bytes(buf, slot):
    """Every slot of little-endian bytes, as a sequence of ints: an array
    of machine integers when they fit one, so that slicing it creates no
    int objects, else a list."""
    code = _TYPECODES.get(slot)
    if code is None:
        return [int.from_bytes(buf[k:k + slot], "little")
                for k in range(0, len(buf), slot or 1)]
    a = array.array(code, buf)
    if _SWAP:
        a.byteswap()
    return a


def _unpack(ints, slot, count):
    """The first `count` slots of each of the packed integers ints, end to
    end, as _unpack_bytes gives them: every packed integer is read here."""
    return _unpack_bytes(b"".join([
        x.to_bytes(slot * count, "little") for x in ints]), slot)


def _column(values, p):
    """A column of residues mod p: an array of machine integers when p - 1
    fits one, else a list."""
    code = _TYPECODES.get(_slot_bytes(p - 1))
    return array.array(code, values) if code else list(values)


def _column_bytes(col, p):
    """A column's residues as little-endian bytes, and the bytes each.
    Anything but an array becomes a column first."""
    if not isinstance(col, array.array):
        col = _column(col, p)
    if isinstance(col, list):
        item = _slot_bytes(p - 1)
        return b"".join([x.to_bytes(item, "little") for x in col]), item
    if _SWAP:
        col = array.array(col.typecode, col)
        col.byteswap()
    return col.tobytes(), col.itemsize


def _pack_cols(cols, slot, width, p, n=1, block=1):
    """Little-endian bytes of rows over F_p given column by column (see
    MatrixRows): row r = n*e + c of column i fills slot
    e*width + i*block + c, and every other slot is zero.  With n = block
    = 1, row r takes the slots from r*width on.  Residues move byte by
    byte, so no int is created and a slot of any width packs in one pass
    per byte."""
    out = bytearray(slot * width * (len(cols[0]) // n if cols else 0))
    step = slot * width
    for i, col in enumerate(cols):
        buf, item = _column_bytes(col, p)
        for c in range(n):
            at = (i * block + c) * slot
            for b in range(item):
                out[at + b::step] = buf[c * item + b::n * item]
    return out


def _pack(xs, slot, p):
    """One integer whose slot i holds the residue xs[i] mod p: every
    packed integer of one sequence is made here."""
    return int.from_bytes(_pack_cols([xs], slot, 1, p), "little")


class MatrixRows:
    """A matrix of polynomials in t over a packed ring, as rows over F_p
    kept column by column: the layout of every baby-step kernel.

    Only nonzero entries have rows.  entries[k] is the position
    i * shape[1] + j of the k-th of them, and its rows are n*k to n*k +
    n - 1, for n the ring's degree; cols[i] holds coefficient i of
    every row (built by _column), so there are as many columns as the
    longest entry has coefficients, and lengths[k] bounds the length of
    entry k.  A ring's rows_of and matrix_of convert from and to nested
    lists of polynomials.
    """

    __slots__ = ("shape", "entries", "lengths", "cols")

    def __init__(self, shape, entries, lengths, cols):
        self.shape = shape
        self.entries = entries
        self.lengths = lengths
        self.cols = cols


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


def _inner_terms(A, B):
    """Bound on the products of residues that one coefficient of an entry
    of the product of MatrixRows A and B sums, per ring coordinate."""
    la, lb = max(A.lengths, default=0), max(B.lengths, default=0)
    return max(min(la, lb), 1) * A.shape[1]


def _entry_products(A, B, left, right, n):
    """The nonzero entries of the product of MatrixRows A and B.

    left[n*k + c] is an integer for coordinate c of entry k of A, and
    right likewise for B.  Returns the shape, positions and length bounds
    of the product's entries, and per entry an iterator over its n sums of
    products left * right, one per coordinate, which computes them as it
    goes.  Pairs with a zero factor are never formed."""
    (rows, inner), (inner_b, width) = A.shape, B.shape
    if inner != inner_b:
        raise DimensionMismatch("polynomial matrix sizes do not match")
    arows = [[] for _ in range(rows)]
    for k, (e, length) in enumerate(zip(A.entries, A.lengths)):
        arows[e // inner].append((e % inner, left[n * k:n * k + n], length))
    bcols = [{} for _ in range(width)]
    for k, (e, length) in enumerate(zip(B.entries, B.lengths)):
        bcols[e % width][e // width] = (right[n * k:n * k + n], length)
    entries, lengths, accs = [], [], []
    for i, arow in enumerate(arows):
        for j, bcol in enumerate(bcols):
            acc, length = None, 0
            for m, a, na in arow:
                hit = bcol.get(m)
                if hit is not None:
                    b, nb = hit
                    prods = map(operator.mul, a, b)
                    acc = prods if acc is None else map(operator.add, acc,
                                                        prods)
                    length = max(length, na + nb - 1)
            if acc is not None:
                entries.append(i * width + j)
                lengths.append(length)
                accs.append(acc)
    return (rows, width), entries, lengths, accs


class SplitRing:
    """ell[z]/((z - a_1)...(z - a_n)) for distinct a_i in a field ell over
    F_p, kept in value form: the batch ring of the matrix factorial.

    ell is F_p, or F_p[u]/(f) for f irreducible of degree k
    (extension.ExtensionField).  An element is the tuple of its values at
    the a_i laid end to end, k u-coefficients each, so the ring is ell^n,
    an entry has `degree` = n k rows over F_p, and z itself is `gen`.  add,
    sub and neg act pointwise mod p; mul and inv coordinate by coordinate
    through ell, inv raising ZeroDivisionError on a zero coordinate.
    Nothing is ever reduced by the modulus of z.  At k > 1 mul is one
    step of chain, and polymul is one at every k; chain and matpoly_mul
    pack each coordinate into one integer and reduce by f in ell's
    kernels (extension), and inv inverts in ell.
    """

    def __init__(self, field, roots):
        base = getattr(field, "base", field)
        if not isinstance(base, PrimeField):
            raise TypeError(f"points must lie in a field over F_p: {field}")
        if field is base:
            roots = [base.from_int(a) for a in roots]
            gen = tuple(roots)
        else:
            roots = [tuple(a) for a in roots]
            gen = tuple(itertools.chain.from_iterable(roots))
        if not roots or len(set(roots)) != len(roots):
            raise ValueError("need at least one root, all distinct")
        self.field = field
        self.base = base
        self.p = base.p
        self.char = base.char
        self.degree = len(gen)
        self.gen = gen
        self.zero = (0,) * self.degree
        self.one = self.embed(1)
        self.key = ("split", field.key, gen)

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
        if self.field.degree > 1:
            # one step of the chain, [a] times [b]
            return self.chain([[(0, 0)]], [[a]], [[b]])[0][0]
        p = self.p
        return tuple([x * y % p for x, y in zip(a, b)])

    def inv(self, a):
        k = self.field.degree
        if k > 1:
            inv = self.field.inv
            return tuple(itertools.chain.from_iterable(
                inv(a[i:i + k]) for i in range(0, self.degree, k)))
        if not all(a):
            raise ZeroDivisionError("element is a zero divisor")
        p = self.p
        return tuple([pow(x, -1, p) for x in a])

    def from_int(self, n):
        return self.embed(n % self.p)

    def embed(self, c):
        """A base-field element as a constant of the ring."""
        k = self.field.degree
        return ((c,) + (0,) * (k - 1)) * (self.degree // k)

    def random_elem(self, rng):
        return tuple([rng.randrange(self.p) for _ in range(self.degree)])

    def rows_of(self, M):
        """M, a nested list of polynomials over self, as MatrixRows."""
        entries, lengths, polys_ = [], [], []
        width = len(M[0]) if M else 0
        for i, row in enumerate(M):
            for j, e in enumerate(row):
                if e:
                    entries.append(i * width + j)
                    lengths.append(len(e))
                    polys_.append(e)
        zero, p = self.zero, self.char
        cols = [_column(itertools.chain.from_iterable(
            e[i] if i < len(e) else zero for e in polys_), p)
            for i in range(max(lengths, default=0))]
        return MatrixRows((len(M), width), entries, lengths, cols)

    def matrix_of(self, R):
        """The nested list of polynomials that MatrixRows R holds."""
        n, (rows, width) = self.degree, R.shape
        out = [[[] for _ in range(width)] for _ in range(rows)]
        for k, (e, length) in enumerate(zip(R.entries, R.lengths)):
            out[e // width][e % width] = polys.trim(self, [
                tuple(col[k * n:k * n + n]) for col in R.cols[:length]])
        return out

    def matpoly_mul(self, A, B):
        """Product of MatrixRows A and B over self: a coordinate packs
        into one integer, 2k - 1 slots per t-coefficient so that no
        convolution spills into the next, and the products are unpacked
        and reduced once: mod p, all in one pass, or at k > 1 by f
        (extension.ExtensionField.reduce_blocks), one row of the product
        at a time, so that only that row's values are lists of ints."""
        p, k = self.p, self.field.degree
        W = 2 * k - 1
        # a slot sums k products of residues per pair of t-coefficients, and
        # must hold a coefficient even when the other side is zero
        slot = _slot_bytes((p - 1) ** 2 * k * _inner_terms(A, B))

        def coord_ints(R):
            width = W * len(R.cols)
            return _unpack_bytes(_pack_cols(R.cols, slot, width, p, k, W),
                                 slot * width)
        shape, entries, lengths, accs = _entry_products(
            A, B, coord_ints(A), coord_ints(B), self.degree // k)
        top = max(lengths, default=0)
        size = W * top

        def unpacked(accs):
            return _unpack(itertools.chain.from_iterable(accs), slot, size)
        if k == 1:
            vals = [x % p for x in unpacked(accs)]
            return MatrixRows(shape, entries, lengths, [
                _column(vals[i::top], p) for i in range(top)])
        # the reduction by f lists every value: a row's worth of entries at
        # a time keeps fewer of them alive.  Block q top + i is
        # t-coefficient i of product q, zero from the length of its entry on
        cols = [_column((), p) for _ in range(top)]
        for q in range(0, len(accs), shape[1]):
            flat = self.field.reduce_blocks(unpacked(accs[q:q + shape[1]]))
            for i, col in enumerate(cols):
                col.extend(itertools.chain.from_iterable(zip(*[
                    flat[i * k + j::top * k] for j in range(k)])))
        return MatrixRows(shape, entries, lengths, cols)

    def chain(self, pattern, steps, acc):
        """M_g ... M_1 acc for M_j the matrix of steps[j - 1] = vals: vals[q]
        in row i, column k for each pair (k, q) of pattern[i], else zero.
        A row of acc is one list of its entries' coordinates, and an output
        row one chain of coordinatewise products and sums, reduced once
        per step: mod p when k = 1; else each coordinate is one integer
        (extension.ExtensionField.pack_values), and a step's products are
        unpacked and reduced together."""
        p, n, r = self.p, self.degree, len(acc[0])
        k = self.field.degree
        mul, add = operator.mul, operator.add
        rows = [[x for e in row for x in e] for row in acc]
        zeros = [0] * (n // k * r)
        if k > 1:
            # a slot sums k products of residues per pair of a row (one at
            # least, to hold a residue of acc)
            slot = _slot_bytes((p - 1) ** 2 * k
                               * max(map(len, [[0], *pattern])))
            pack, unpack = self.field.pack_values, self.field.values_of
        for vals in steps:
            if k > 1:
                rows, vals = pack(rows, slot), pack(vals, slot)
            out = []
            for row in pattern:
                s = None
                for j, q in row:
                    prods = map(mul, vals[q] * r, rows[j])
                    s = prods if s is None else map(add, s, prods)
                out.append(zeros if s is None else
                           list(s) if k > 1 else [x % p for x in s])
            rows = unpack(out, slot) if k > 1 else out
        return [[tuple(row[j:j + n]) for j in range(0, n * r, n)]
                for row in rows]

    def polymul(self, f, g):
        """Product of polynomials over self: one step of the chain, whose
        row m sums f[m - j] g[j].  So it is the schoolbook on coordinates,
        reduced once per value, mod p or, at k > 1, by f."""
        pattern = [[(j, m - j) for j in range(max(0, m - len(f) + 1),
                                             min(m + 1, len(g)))]
                   for m in range(len(f) + len(g) - 1)]
        out = self.chain(pattern, [f], [[c] for c in g])
        # over a product ring the top coefficient can vanish
        return polys.trim(self, [row[0] for row in out])

    def shift_rows(self, R, c):
        """R(t + c) for c in F_p, of MatrixRows R whose entries are no
        longer than p, so that the factorials below their length are
        units.

        Coefficient j of the shift is sum_(i >= j) C(i, j) c^(i - j)
        times coefficient i, the same F_p combination of columns for
        every row.  Each column packs into one integer, and shifted
        column j is one sum of those integers times F_p constants,
        reduced mod p once per value.
        """
        p, L = self.char, len(R.cols)
        if L <= 1 or not c:
            return R
        fact, inv_fact = _factorials_mod(p, L)
        powers, x = [], 1
        for m in range(L):
            powers.append(x * inv_fact[m] % p)
            x = x * c % p
        # a slot sums at most L products of residues
        slot, count = _slot_bytes(L * (p - 1) ** 2), len(R.cols[0])
        C = [_pack(col, slot, p) for col in R.cols]
        # C(i, j) c^(i - j) = i! (1/j!) (c^(i - j) / (i - j)!)
        vals = _unpack([sum(map(operator.mul, [
            x * inv_fact[j] % p for x in map(operator.mul, fact[j:], powers)],
            C[j:])) for j in range(L)], slot, count)
        vals = [x % p for x in vals]
        return MatrixRows(R.shape, R.entries, R.lengths, [
            _column(vals[j:j + count], p) for j in range(0, L * count, count)])

    def rows_rem(self, cols, m, m_rev_inv):
        """Remainders by a monic m over F_p of polynomials (rows) over F_p
        longer than m, given and returned column by column (see
        MatrixRows): column i holds coefficient i of every row.  m_rev_inv
        inverts the reversal of m to at least the quotient length k > 0.
        Each row's k high coefficients fill 2k - 1 slots of one integer;
        one product with the reversed inverse gives every quotient
        (Barrett), and its first min(k, deg m) slots, reduced mod p, times
        -m give the remainders."""
        p, d = self.char, len(m) - 1
        k = len(cols) - d
        count, top = len(cols[0]), min(k, d)
        # a quotient slot sums k products of residues; a slot of the
        # remainder adds to a residue at most min(k, d) products of a
        # reduced quotient slot and a residue
        slot = _slot_bytes(k * (p - 1) ** 2)
        W, V = 2 * k - 1, top + d - 1
        mu = m_rev_inv[k - 1::-1]
        # each buffer is freed once used, for a lower peak memory
        prod = int.from_bytes(_pack_cols(cols[d:], slot, W, p), "little")
        prod = _unpack([prod * _pack([0] * (k - len(mu)) + mu, slot, p)],
                       slot, count * W)
        quo = [_column([x % p for x in prod[k - 1 + i::W]], p)
               for i in range(top)]
        del prod
        slot = _slot_bytes(top * (p - 1) ** 2 + p - 1)
        neg_m = [p - c if c else 0 for c in m[:d]]
        low = int.from_bytes(_pack_cols(quo, slot, V, p), "little")
        del quo
        low = _unpack([low * _pack(neg_m, slot, p)], slot, count * V)
        return [_column([(x + y) % p for x, y in zip(low[j::V], col)], p)
                for j, col in enumerate(cols[:d])]

    def rows_at(self, cols, points):
        """Values at each of points in F_p of polynomials over self whose
        coordinates are the rows of rows_rem, degree rows each: one list
        per point.  Column i fills an integer C_i, and the row values at a
        are the slots of sum_i (a^i mod p) C_i."""
        p, count = self.char, len(cols[0]) if cols else 0
        # a slot sums len(cols) products of residues
        slot = _slot_bytes(len(cols) * (p - 1) ** 2)
        C = [_pack(col, slot, p) for col in cols]
        out = []
        for a in points:
            acc, x = C[0] if C else 0, 1
            for c in C[1:]:
                x = x * a % p
                acc += x * c
            vals = iter([v % p for v in _unpack([acc], slot, count)])
            out.append(list(zip(*[vals] * self.degree)))
        return out

    def __eq__(self, other):
        return isinstance(other, SplitRing) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"{self.field!r}^{self.degree // self.field.degree}"


class QuotientRing:
    """F_p[u]/(modulus) for a monic modulus of degree n >= 1 over the
    PrimeField base, elements as tuples of n residues: the package's one
    reduction by a fixed modulus.  The modulus may be reducible;
    is_irreducible runs in this ring, and extension.ExtensionField is
    this ring for an irreducible modulus.

    Row j = u^(n + j) mod the modulus, for j < n - 1, is packed once into
    one integer of n slots, so that the remainder of a product is one
    integer sum of rows weighted by its high coefficients.
    """

    def __init__(self, base, modulus):
        p, n, tail = base.p, len(modulus) - 1, modulus[:-1]
        self.base = base
        self.modulus = modulus
        self.degree = n
        self.zero = (0,) * n
        self.one = self._pad([1])
        # a slot sums n products of residues
        self.slot = _slot_bytes((p - 1) ** 2 * n)
        rows, r = [], [0] * (n - 1) + [1]
        for _ in range(n - 1):
            top = r[-1]
            r = [(a - top * m) % p for a, m in zip([0] + r[:-1], tail)]
            rows.append(_pack(r, self.slot, p))
        self.rows = rows

    def _pad(self, coeffs):
        n = self.degree
        if len(coeffs) < n:
            return tuple(coeffs) + (0,) * (n - len(coeffs))
        return tuple(coeffs[:n])

    def reduce(self, c):
        """The element a convolution c of degree < 2n - 1 reduces to: its
        coefficient n + j, reduced mod p, weights row j, and its low n
        coefficients add to the sum.  c may hold any ints."""
        p, n = self.base.p, self.degree
        if len(c) < n:
            c = list(c) + [0] * (n - len(c))
        acc = 0
        for h, row in zip(c[n:], self.rows):
            acc += h % p * row
        return tuple([(x + y) % p for x, y in zip(
            _unpack([acc], self.slot, n), c)])


def is_irreducible(K, f):
    """Ben-Or's test over F_p: f of degree n is irreducible if and only
    if gcd(u^(p^i) - u, f) = 1 for i = 1, ..., n // 2, since u^(p^i) - u
    is the product of the monic irreducibles of degree dividing i.

    h = u^(p^i) in QuotientRing(K, f) is h_(i-1)^p, by square and
    multiply.  The test stops at the first i with a common factor, which
    for a random reducible f is most often a small i, and refuses an f
    that u divides before it builds the ring.  Raises FieldMismatch
    unless K is a PrimeField.
    """
    if not isinstance(K, PrimeField):
        raise FieldMismatch(f"irreducibility is tested over F_p, not {K}")
    f = polys.monic(K, polys.trim(K, f))
    n = len(f) - 1
    if n <= 1 or not f[0]:
        # of degree 2 or more, f is reducible if u divides it
        return n == 1
    R = QuotientRing(K, f)
    u = h = R._pad([0, 1])
    for _ in range(n // 2):
        g = h
        for bit in bin(K.p)[3:]:
            h = R.reduce(K.polymul(h, h))
            if bit == "1":
                h = R.reduce(K.polymul(g, h))
        if len(polys.gcd(K, polys.sub(K, h, u), f)) != 1:
            return False
    return True


def find_irreducible(K, n):
    """A monic irreducible of degree n over K = F_p, found by seeded trial.

    Candidates u^n + (random lower coefficients) come from a generator
    seeded by p and n alone, so the result is deterministic for a given
    (field, degree) pair, and each call searches afresh.  About one
    candidate in n is irreducible, so the expected number of tries is
    about n, whatever p is.  Raises FieldMismatch unless K is a PrimeField.
    """
    if not isinstance(K, PrimeField):
        raise FieldMismatch(f"irreducibles are searched over F_p, not {K}")
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    rng = random.Random(f"pcurvature-irreducible:{K.q}:{n}")
    while True:
        f = [K.random_elem(rng) for _ in range(n)] + [K.one]
        if is_irreducible(K, f):
            return f


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
