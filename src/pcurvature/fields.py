"""Finite fields: F_p on machine ints, and the kernels of the packed rings.

A PrimeField element is an int in [0, p).  Field objects expose the same
method surface (add, mul, inv, polymul, ...) and are compared by their
`key`.  Extensions F_p[u]/(S), whose elements are tuples, live in
`extension`; a solve whose points all lie in F_p never loads it.  Every
input of the solvers is over a PrimeField, and every ring the matrix
factorial runs on is one of the two packed rings below.

The polynomial product hooks are where the speed lives: over F_p the
coefficients are packed into one big integer per operand (Kronecker
substitution) so the convolution happens inside CPython's long
multiplication.

Both packed rings, an ExtensionField over F_p and a SplitRing, keep a
matrix of polynomials in t in row form (MatrixRows): one row over F_p per
coordinate of each nonzero entry, kept column by column in arrays of
machine integers.  Their kernels read and write that form without
crossing into tuples.  One kernel, _matpoly_mul, multiplies matrices in
both: each coordinate of an entry packs from the columns into one
integer, a block of 2k - 1 slots per t-coefficient for k rows, each
row-by-column inner product of m terms is m integer products summed,
and each output block is reduced once, mod p in a SplitRing (k = 1) and
over F_p[u]/S (k = n) by one integer sum of the packed rows u^(n+j) mod
S.  shift_rows shifts the whole matrix in t by an F_p constant with no
reduction mod S: shifted column j is one sum of the packed columns times
F_p constants, for entries no longer than p.  Nor does the multipoint
evaluation at F_p points (rows_rem, rows_at) reduce mod S.

A SplitRing is F_p[z]/S for S a product of distinct linear factors z - a_i,
kept in value form: an element is the tuple of its values at the a_i, so
the ring is F_p^n and nothing is ever reduced mod S.  A product of matrices
of polynomials in t is one Kronecker product over F_p per coordinate and
pair of nonzero entries, on integers n times shorter than those of
F_p[u]/S (whose blocks need 2n - 1 slots per t-coefficient), and constant
matrices multiply pointwise.  The row form, shift_rows, rows_rem and
rows_at act on each coordinate alone, so both rings take them from one
base class, PackedRing.

Slot widths.  Every packed product sizes its slots for the largest sum a
slot can hold.  A slot of up to 8 bytes packs and unpacks in one array
pass; a wider one unpacks slot by slot in Python.  For entries of length
L (la and lb for two factors), N x N matrices, a ring of degree n, and
quotients of length k by an m over F_p, the bounds and the bits they
reached on the det and mc batches of the workload operator, its companion
system and sym2 (N = 4, 6 and 9), at the planner's s, are:

    kernel                       bound                    2^10 2^16 2^18 2^20
    shift_rows                   L (p-1)^2                  24   39   44   49
    _matpoly_mul, split ring     min(la, lb) N (p-1)^2      27   42   47   51
    _matpoly_mul, F_p[u]/S       n min(la, lb) N (p-1)^2    log2 n bits more
    rows_rem, first product      k (p-1)^2                   -   39   44   50
    rows_rem, second product     min(k, deg m) (p-1)^2 + p-1 -  39   44   50
    rows_at                      L (p-1)^2                  26   40   45   50

(rows_rem shows the larger of its two products.)  They grow by about 2.5
bits per doubling of p, as L and k grow like sqrt p, so they stay within
8 bytes up to about p = 2^25 (2^26 for shift_rows, 2^23 for _matpoly_mul
over F_p[u]/S at n = 18).  ExtensionField.chain has its own bound
(extension).
"""

import array
import functools
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


def _column(values, p):
    """A column of residues mod p: an array of machine integers when p - 1
    fits one, else a list."""
    code = _TYPECODES.get(_slot_bytes(p - 1))
    return array.array(code, values) if code else list(values)


def _column_bytes(col, p):
    """A column's residues as little-endian bytes, and the bytes each."""
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
    = 1, row r takes the slots from r*width on, as _pack lays out one
    block per row.  Residues move byte by byte, so no int is created and
    a slot of any width packs in one pass per byte."""
    out = bytearray(slot * width * (len(cols[0]) // n if cols else 0))
    step = slot * width
    for i, col in enumerate(cols):
        buf, item = _column_bytes(col, p)
        for c in range(n):
            at = (i * block + c) * slot
            for b in range(item):
                out[at + b::step] = buf[c * item + b::n * item]
    return out


def _split_ints(buf, width):
    """The integers of consecutive little-endian blocks of width bytes."""
    return [int.from_bytes(buf[k:k + width], "little")
            for k in range(0, len(buf), width or 1)]


class MatrixRows:
    """A matrix of polynomials in t over a packed ring, as rows over F_p
    kept column by column: the layout of every baby-step kernel.

    Only nonzero entries have rows.  entries[k] is the position
    i * shape[1] + j of the k-th of them, and its coordinate c is row
    n*k + c, for n the ring's degree; cols[i] holds coefficient i of
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


def _matpoly_mul(A, B, p, parts, k, reduce=None):
    """Product of MatrixRows A and B whose entries hold `parts`
    coordinates of k rows over F_p each: n values of a SplitRing (parts
    n, k 1), or the n u-coefficients of F_p[u]/S (parts 1, k n).

    A coordinate packs into one integer, a block of 2k - 1 slots per
    t-coefficient so that no convolution spills into the next block.  All
    products are unpacked in one pass, and each block is reduced once: mod
    p when k = 1, else by `reduce` (extension.ExtensionField.reduce_product).
    """
    W = 2 * k - 1
    # a slot sums k products of residues per pair of t-coefficients, and
    # must hold a coefficient even when the other side is zero
    slot = _slot_bytes((p - 1) ** 2 * k * _inner_terms(A, B))

    def coord_ints(R):
        width = W * len(R.cols)
        return _split_ints(_pack_cols(R.cols, slot, width, p, k, W),
                           slot * width)
    shape, entries, lengths, accs = _entry_products(
        A, B, coord_ints(A), coord_ints(B), parts)
    top = max(lengths, default=0)
    size = W * top
    vals = _unpack_bytes(b"".join([
        x.to_bytes(slot * size, "little") for acc in accs for x in acc]),
        slot)
    if k == 1:
        vals = [x % p for x in vals]
        return MatrixRows(shape, entries, lengths, [
            _column(vals[i::top], p) for i in range(top)])
    # product q, a coordinate of entry q // parts, is reduced up to the
    # entry's length and zero after it
    outs = [[reduce(vals[at:at + W]) for at in range(
        size * q, size * q + W * lengths[q // parts], W)]
        for q in range(len(entries) * parts)]
    return MatrixRows(shape, entries, lengths, [
        _column(itertools.chain.from_iterable(
            out[i] if i < len(out) else (0,) * k for out in outs), p)
        for i in range(top)])


class PackedRing:
    """The row-form kernels that both packed rings share: conversions
    to and from MatrixRows, shift_rows, rows_rem and rows_at.  Each acts
    on every row over F_p alone, so it serves the coordinates of
    F_p[u]/S in the monomial basis (extension.ExtensionField over F_p)
    and of F_p^n in value form (SplitRing) alike.  A subclass has
    `degree` rows per entry, `zero` and the characteristic `char`.
    """

    def rows_of(self, M):
        """M, a nested list of polynomials over a packed self, as
        MatrixRows."""
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
        C = [int.from_bytes(_pack_cols([col], slot, 1, p), "little")
             for col in R.cols]
        # C(i, j) c^(i - j) = i! (1/j!) (c^(i - j) / (i - j)!)
        vals = _unpack_bytes(b"".join([sum(map(operator.mul, [
            x * inv_fact[j] % p for x in map(operator.mul, fact[j:], powers)],
            C[j:])).to_bytes(slot * count, "little") for j in range(L)]),
            slot)
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
        prod = _unpack(prod * _pack([[0] * (k - len(mu)) + mu], slot, k),
                       slot, count * W)
        quo = [_column([x % p for x in prod[k - 1 + i::W]], p)
               for i in range(top)]
        del prod
        slot = _slot_bytes(top * (p - 1) ** 2 + p - 1)
        neg_m = [p - c if c else 0 for c in m[:d]]
        low = int.from_bytes(_pack_cols(quo, slot, V, p), "little")
        del quo
        low = _unpack(low * _pack([neg_m], slot, d), slot, count * V)
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
        C = [int.from_bytes(_pack_cols([col], slot, 1, p), "little")
             for col in cols]
        out = []
        for a in points:
            acc, x = C[0] if C else 0, 1
            for c in C[1:]:
                x = x * a % p
                acc += x * c
            vals = iter([v % p for v in _unpack(acc, slot, count)])
            out.append(list(zip(*[vals] * self.degree)))
        return out


class SplitRing(PackedRing):
    """F_p[z]/((z - a_1)...(z - a_n)) for distinct a_i in F_p, in value form.

    An element is the tuple of its values at a_1, ..., a_n, so the ring is
    F_p^n and every operation acts on each coordinate alone: add, mul and
    inv pointwise (inv raises ZeroDivisionError on a zero divisor), chain
    one sum per coordinate, and a product of polynomial matrices in t one
    Kronecker product over F_p per coordinate and pair of entries.  No
    product is ever reduced by the modulus, and integers stay as short as
    one coordinate's polynomial.  z itself is `gen`, the tuple of roots.
    """

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

    def inv(self, a):
        if not all(a):
            raise ZeroDivisionError("element is a zero divisor")
        p = self.p
        return tuple([pow(x, -1, p) for x in a])

    def from_int(self, n):
        return self.embed(n % self.p)

    def embed(self, c):
        """A base-field element as a constant of the ring."""
        return (c,) * self.degree

    def random_elem(self, rng):
        return tuple([rng.randrange(self.p) for _ in range(self.degree)])

    def matpoly_mul(self, A, B):
        """Product of MatrixRows A and B over self: _matpoly_mul with
        degree coordinates of one row per entry, reduced mod p."""
        return _matpoly_mul(A, B, self.p, self.degree, 1)

    def chain(self, pattern, steps, acc):
        """M_g ... M_1 acc, as ExtensionField.chain: a row of acc as one
        list of its entries' values, an output row as one chain of
        pointwise products and sums, reduced mod p once."""
        p, n, r = self.p, self.degree, len(acc[0])
        mul, add = operator.mul, operator.add
        rows = [[x for e in row for x in e] for row in acc]
        zeros = [0] * (n * r)
        for vals in steps:
            out = []
            for row in pattern:
                s = None
                for k, q in row:
                    prods = map(mul, vals[q] * r, rows[k])
                    s = prods if s is None else map(add, s, prods)
                out.append(zeros if s is None else [x % p for x in s])
            rows = out
        return [[tuple(row[j:j + n]) for j in range(0, n * r, n)]
                for row in rows]

    def polymul(self, f, g):
        """Product of polynomials over self, coordinate by coordinate:
        schoolbook on the tuples below PrimeField.KRONECKER_CUTOFF, with
        one reduction mod p per value, else one Kronecker product over
        F_p per coordinate."""
        p = self.p
        if min(len(f), len(g)) >= PrimeField.KRONECKER_CUTOFF:
            mul = self.base._polymul_kronecker
            out = zip(*[mul(a, b) for a, b in zip(zip(*f), zip(*g))])
        else:
            acc = [None] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    prods = map(operator.mul, a, b)
                    acc[i + j] = (prods if acc[i + j] is None
                                  else map(operator.add, acc[i + j], prods))
            out = ([x % p for x in c] for c in acc)
        # over a product ring the top coefficient can vanish
        return polys.trim(self, [tuple(c) for c in out])

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
