"""Differential operators and systems over F_q(x), and the slow baseline.

An operator L = a_r(x) d^r + ... + a_1(x) d + a_0(x) acts through its
companion system in the basis (1, d, ..., d^(r-1)): superdiagonal ones and
last row -a_0, ..., -a_(r-1), all divided by a_r.  We store the cleared
form A = A_tilde / f_A with polynomial entries.

naive_p_curvature iterates A_1 = -A, A_(i+1) = A_i' - A*A_i, p - 1 steps,
on the numerators over F_q[x] (A_i = A~_i / f_A^i), with no shortcuts: it
is the oracle every fast path is measured against.  Its invariant factors
are rational a priori; clearing denominators by f_A^p makes them
polynomials in x^p, and that cleared, compressed form is what the library
reports everywhere.  The oracle's rational function field (ratfunc) and
Smith form (smith) are imported on its first call, so the fast paths
never load them.
"""

from collections import namedtuple

from . import bivar, polys
from .errors import NotInXp, ZeroLeadingCoefficient


class DiffOperator(namedtuple("DiffOperator", "K coeffs")):
    """L = sum of coeffs[i](x) * d^i, with coeffs[r] nonzero."""

    __slots__ = ()

    def __new__(cls, K, coeffs):
        cc = [polys.trim(K, list(c)) for c in coeffs]
        if len(cc) < 2:
            raise ZeroLeadingCoefficient(
                "operator must have order at least 1")
        if not cc[-1]:
            raise ZeroLeadingCoefficient("leading coefficient a_r is zero")
        return super().__new__(cls, K, tuple(tuple(c) for c in cc))

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here, so it passes the same checks
        return cls(*iterable)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def degree(self):
        return max(len(c) - 1 for c in self.coeffs)

    @property
    def bidegree(self):
        return (self.degree, self.order)


class DiffSystem(namedtuple("DiffSystem", "K f_A A_tilde")):
    """Y' = (A_tilde / f_A) * Y with polynomial A_tilde and f_A."""

    __slots__ = ()

    def __new__(cls, K, f_A, A_tilde):
        f = polys.trim(K, list(f_A))
        if not f:
            raise ZeroLeadingCoefficient("f_A must be nonzero")
        r = len(A_tilde)
        if r < 1 or any(len(row) != r for row in A_tilde):
            raise ValueError("A_tilde must be square of size >= 1")
        tidy = tuple(tuple(tuple(polys.trim(K, list(e))) for e in row)
                     for row in A_tilde)
        return super().__new__(cls, K, tuple(f), tidy)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here, so it passes the same checks
        return cls(*iterable)

    @property
    def size(self):
        return len(self.A_tilde)

    @property
    def degree(self):
        d = len(self.f_A) - 1
        for row in self.A_tilde:
            for e in row:
                d = max(d, len(e) - 1)
        return d


def companion_of_operator(L):
    """The system satisfied by (y, y', ..., y^(r-1)) for solutions of L.

    f_A = a_r; A_tilde has a_r on the superdiagonal and -a_0, ..., -a_(r-1)
    as its last row, so A_tilde / a_r is the monic-normalized companion.
    """
    K = L.K
    r = L.order
    a_r = list(L.coeffs[-1])
    rows = []
    for i in range(r - 1):
        row = [[] for _ in range(r)]
        row[i + 1] = list(a_r)
        rows.append(row)
    rows.append([polys.neg(K, list(L.coeffs[j])) for j in range(r)])
    return DiffSystem(K, tuple(a_r), tuple(tuple(tuple(e) for e in row)
                                           for row in rows))


def naive_p_curvature(sys, p):
    """A_p by the defining recurrence, exact and O(p) slow, over F_q(x).

    With A = A~/f, A_i is A~_i/f^i for the polynomial matrices A~_1 = -A~
    and A~_(i+1) = f A~_i' - i f' A~_i - A~ A~_i, which the recurrence
    runs on over F_q[x] with no gcd; A_p = A~_p / f^p goes into F_q(x)
    once, at the end.  Any p but the characteristic raises ValueError."""
    from .ratfunc import RatFuncField
    K = sys.K
    if p != K.char:
        raise ValueError(f"p = {p} differs from the characteristic {K.char}")
    f = list(sys.f_A)
    df = polys.derivative(K, f)
    At = [[list(e) for e in row] for row in sys.A_tilde]
    Ai = [[polys.neg(K, e) for e in row] for row in At]
    for i in range(1, p):
        idf = polys.scale(K, K.from_int(i), df)
        cols = list(zip(*Ai))
        Ai = [[polys.sub(K, polys.sub(
            K, polys.mul(K, f, polys.derivative(K, e)), polys.mul(K, idf, e)),
            _poly_dot(K, row, col)) for e, col in zip(ai_row, cols)]
            for row, ai_row in zip(At, Ai)]
    R = RatFuncField(K)
    fp = R.from_poly(polys.poly_pow(K, f, p))
    return [[R.div(R.from_poly(e), fp) for e in row] for row in Ai]


def _poly_dot(K, xs, ys):
    """The sum of the products of two lists of polynomials."""
    acc = []
    for a, b in zip(xs, ys):
        acc = polys.add(K, acc, polys.mul(K, a, b))
    return acc


def rational_invariant_factors(sys, p):
    """Invariant factors of A_p(x) over F_q(x), monic in T: the Smith form
    of T - A_p itself, not linalg.invariant_factors_of, so that this
    oracle shares no shortcut with the local evaluations it checks."""
    from . import smith
    from .ratfunc import RatFuncField
    R = RatFuncField(sys.K)
    Ap = naive_p_curvature(sys, p)
    return R, smith.smith_form(R, smith.char_matrix(R, Ap))


def naive_invariant_factors(sys, p):
    """Baseline bivariate invariant factors, in the cleared convention.

    Scales the rational factors of A_p by f_A(x)^p (the factors of
    f_A^p * A_p), checks every coefficient is a polynomial with all
    x-exponents divisible by p, and compresses to X = x^p.
    """
    K = sys.K
    R, factors = rational_invariant_factors(sys, p)
    cp = R.from_poly(polys.poly_pow(K, list(sys.f_A), p))
    out = []
    for f in factors:
        scaled = bivar.scale_similarity(R, f, cp)
        comp = []
        for coeff in scaled:
            if not R.is_polynomial(coeff):
                raise NotInXp(
                    "cleared invariant factor has a nonpolynomial "
                    "coefficient: " + R.format_elem(coeff))
            comp.append(bivar.compress_xp(K, R.to_poly(coeff), p))
        out.append(comp)
    return out


def theta_rewrite(L, a, ell, embed):
    """Coefficients b_0(theta), ..., b_(d+r)(theta) of L*d^d recentred at a.

    Uses t^j d^j = theta (theta - 1) ... (theta - j + 1) on each monomial
    of the shifted coefficients, valid in L*d^d because every t-power j is
    at most d and so at most the attached d-power.  Returns polynomials in
    theta over ell of degree <= d, the last one the constant a_r(a), empty
    at a pole: the recurrence builder refuses it when it inverts a_r(a).
    """
    K = L.K
    d, r = L.bidegree
    shifted = []
    for c in L.coeffs:
        ce = [embed(x) for x in c]
        shifted.append(polys.taylor_shift(ell, ce, a))
    falling = [[ell.one]]
    for j in range(1, d + 1):
        falling.append(polys.mul(
            ell, falling[-1], [ell.from_int(-(j - 1)), ell.one]))
    b = [[] for _ in range(d + r + 1)]
    for i in range(r + 1):
        for j, c in enumerate(shifted[i]):
            if c != ell.zero:
                e = i + d - j
                b[e] = polys.add(ell, b[e],
                                 polys.scale(ell, c, falling[j]))
    return b
