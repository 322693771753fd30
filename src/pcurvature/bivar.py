"""Bivariate polynomials in (X, T) over F_q, as lists of X-coefficients.

A value is a list indexed by the T-degree whose entries are coefficient
lists in X over the base field; invariant factors are monic in T, so the
last entry is [1].  The interesting operations are the similarity scaling
(conjugating a matrix M into c*M twists the k-th coefficient of a degree-m
invariant factor by c^(m-k)) and the X = x^p compression used to present
results over F_q[x^p] compactly.
"""

from . import polys
from .errors import NotInXp


def deg_T(bp):
    return len(bp) - 1


def scale_similarity(K, factor, c):
    """Invariant factor of c*M from the one of M, kept monic in T.

    factor is a T-polynomial with coefficients in K; the k-th coefficient
    picks up c^(m - k).
    """
    m = len(factor) - 1
    out = []
    power = K.one
    for k in range(m, -1, -1):
        out.append(K.mul(power, factor[k]))
        power = K.mul(power, c)
    out.reverse()
    return out


def compress_xp(K, f, p):
    """Rewrite an x-polynomial lying in F_q[x^p] as a polynomial in X.

    Coefficients transfer unchanged since x^(pm) = X^m; any exponent not
    divisible by p means the input was not in F_q[x^p].
    """
    out = []
    for i, c in enumerate(f):
        if c == K.zero:
            continue
        e, rm = divmod(i, p)
        if rm:
            raise NotInXp(f"x-exponent {i} is not a multiple of p = {p}")
        while len(out) <= e:
            out.append(K.zero)
        out[e] = c
    return polys.trim(K, out)


def evaluate_at_X(K, L, bp, b, embed):
    """Specialize X to b in L, producing a T-polynomial over L."""
    return [polys.eval_at(L, [embed(c) for c in coeff], b) for coeff in bp]


def format_bivar(K, bp, var_x="X", var_t="T"):
    """Render in descending T-powers: "T^2 + (X + 1)*T + X"."""
    if not bp:
        return "0"
    parts = []
    for k in range(len(bp) - 1, -1, -1):
        c = bp[k]
        if not c:
            continue
        cs = polys.format_poly(K, c, var=var_x)
        if k == 0:
            parts.append(cs)
            continue
        ts = var_t if k == 1 else f"{var_t}^{k}"
        if cs == "1":
            parts.append(ts)
        elif " + " in cs:
            parts.append(f"({cs})*{ts}")
        else:
            parts.append(f"{cs}*{ts}")
    return " + ".join(parts) if parts else "0"
