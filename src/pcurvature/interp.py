"""Lifting values in an extension field back to polynomials over the base.

An element a_power that generates ell = F_q[u]/S gives a second basis
1, a_power, ..., a_power^(deg S - 1); writing a value in that basis reads
off the unique polynomial of degree < deg S taking that value at a_power.
That is one Gauss-Jordan elimination of a k x k system over F_q, for
k = deg S, with the value as its right-hand side.  When ell is F_q itself
(points of degree 1), that polynomial is the value, as a constant.
"""

from . import polys
from .errors import FieldMismatch, NoSolutionWithinBound, NotAGenerator


def _power_basis_coordinates(ell, a_power, v):
    """x over the base with sum_j x_j a_power^j = v in ell.

    Row i of the augmented system is coordinate i of 1, a_power, ...,
    a_power^(k-1) and of v.
    """
    K, k = ell.base, ell.degree
    powers = [ell.one]
    for _ in range(k - 1):
        powers.append(ell.mul(powers[-1], a_power))
    rows = [[w[i] for w in powers] + [v[i]] for i in range(k)]
    for c in range(k):
        pr = next((i for i in range(c, k) if rows[i][c] != K.zero), None)
        if pr is None:
            raise NotAGenerator("powers of the element do not span the field")
        rows[c], rows[pr] = rows[pr], rows[c]
        inv = K.inv(rows[c][c])
        rows[c] = [K.mul(inv, e) for e in rows[c]]
        for i in range(k):
            if i != c and rows[i][c] != K.zero:
                f = rows[i][c]
                rows[i] = [K.sub(a, K.mul(f, b))
                           for a, b in zip(rows[i], rows[c])]
    return [row[k] for row in rows]


def lift_from_extension_value(K, ell, a_power, v, bound):
    """The unique c over K with deg c <= bound and c(a_power) = v.

    ell is K itself, where c is the constant v, or an extension of K,
    which a_power must generate (NotAGenerator otherwise).  Existence
    within the bound is a property of the caller's parameters, not of
    this routine; a violation is reported rather than truncated.
    """
    if ell.key == K.key:
        c = polys.trim(K, [v])
    elif getattr(ell, "base", None) == K:
        c = polys.trim(K, _power_basis_coordinates(ell, a_power, v))
    else:
        raise FieldMismatch(f"{ell} is neither {K} nor an extension of it")
    if polys.deg(c) > bound:
        raise NoSolutionWithinBound(
            f"lift has degree {polys.deg(c)}, allowed at most {bound}")
    return c
