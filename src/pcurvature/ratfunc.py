"""The rational function field K(x), quacking like the other field objects.

An element is a pair (num, den) of canonical coefficient lists with den
monic and gcd(num, den) = 1; zero is ([], [1]).  Keeping the invariant on
every operation makes == reliable, which the generic polynomial and matrix
code depends on.  This field holds the baseline p-curvature A_p and backs
its Smith form over F_q(x)[T], so multiplication cross-cancels before
multiplying to slow the degree growth down.
"""

from . import polys
from .errors import PoleAtPoint


class RatFuncField:

    def __init__(self, K):
        self.coeff = K
        self.char = K.char
        self.zero = ((), (K.one,))
        self.one = ((K.one,), (K.one,))
        self.key = ("ratfunc", K.key)

    def _make(self, num, den):
        K = self.coeff
        num = polys.trim(K, num)
        den = polys.trim(K, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.zero
        g = polys.gcd(K, num, den)
        if len(g) > 1:
            num = polys.divexact(K, num, g)
            den = polys.divexact(K, den, g)
        if den[-1] != K.one:
            c = K.inv(den[-1])
            num = polys.scale(K, c, num)
            den = polys.scale(K, c, den)
        return (tuple(num), tuple(den))

    def from_poly(self, f):
        return self._make(f, [self.coeff.one])

    def from_int(self, n):
        return self.from_poly([self.coeff.from_int(n)])

    def is_polynomial(self, r):
        return len(r[1]) == 1

    def to_poly(self, r):
        if not self.is_polynomial(r):
            raise ValueError("rational function has a nontrivial denominator")
        return list(r[0])

    def add(self, r, t):
        (a, b), (c, d) = r, t
        if not a:
            return t
        if not c:
            return r
        K = self.coeff
        num = polys.add(K, polys.mul(K, list(a), list(d)),
                        polys.mul(K, list(c), list(b)))
        den = polys.mul(K, list(b), list(d))
        return self._make(num, den)

    def sub(self, r, t):
        return self.add(r, self.neg(t))

    def neg(self, r):
        a, b = r
        return (tuple(self.coeff.neg(c) for c in a), b)

    def mul(self, r, t):
        (a, b), (c, d) = r, t
        if not a or not c:
            return self.zero
        K = self.coeff
        a, b, c, d = list(a), list(b), list(c), list(d)
        g = polys.gcd(K, a, d)
        if len(g) > 1:
            a, d = polys.divexact(K, a, g), polys.divexact(K, d, g)
        g = polys.gcd(K, c, b)
        if len(g) > 1:
            c, b = polys.divexact(K, c, g), polys.divexact(K, b, g)
        num = polys.mul(K, a, c)
        den = polys.mul(K, b, d)
        # cross-cancellation leaves num, den coprime and den monic
        if den[-1] != K.one:
            cc = K.inv(den[-1])
            num, den = polys.scale(K, cc, num), polys.scale(K, cc, den)
        return (tuple(num), tuple(den))

    def inv(self, r):
        a, b = r
        if not a:
            raise ZeroDivisionError("inverse of the zero rational function")
        K = self.coeff
        c = K.inv(a[-1])
        return (tuple(polys.scale(K, c, list(b))),
                tuple(polys.scale(K, c, list(a))))

    def div(self, r, t):
        return self.mul(r, self.inv(t))

    def dot(self, xs, ys):
        acc = self.zero
        for a, b in zip(xs, ys):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def evaluate(self, r, a, L=None, embed=None):
        """Value at x = a, with a in L (default: the coefficient field).

        embed maps coefficients into L; PoleAtPoint signals a zero
        denominator, which normalization guarantees is a genuine pole.
        """
        K = self.coeff
        if L is None:
            L, embed = K, lambda c: c
        num = [embed(c) for c in r[0]]
        den = [embed(c) for c in r[1]]
        dv = polys.eval_at(L, den, a)
        if dv == L.zero:
            raise PoleAtPoint("denominator vanishes at the evaluation point")
        return L.mul(polys.eval_at(L, num, a), L.inv(dv))

    def format_elem(self, r):
        K = self.coeff
        ns = polys.format_poly(K, list(r[0]))
        if self.is_polynomial(r):
            return ns
        ds = polys.format_poly(K, list(r[1]))
        if len(r[0]) > 1:
            ns = f"({ns})"
        if len(r[1]) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def polymul(self, f, g):
        return polys.mul_schoolbook(self, f, g)

    def __eq__(self, other):
        return isinstance(other, RatFuncField) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Frac({self.coeff!r}[x])"
