"""Lifting values in an extension field back to polynomials over the base.

An element a_power that generates ell = F_q[u]/S gives a second basis
1, a_power, ..., a_power^(deg S - 1); writing a value in that basis reads
off the unique polynomial of degree < deg S taking that value at a_power.
When ell is F_q itself (points of degree 1), that polynomial is the value,
as a constant.
"""

import functools

from . import polys
from .errors import FieldMismatch, NoSolutionWithinBound, NotAGenerator
from .linalg import LinearSolver

BASIS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def power_basis_solver(ell, a_power):
    """Change of basis from powers of a_power to the defining basis of ell.

    Cached per (field, element): both reconstruction drivers lift every
    coefficient at each of their k_sel selected points, those whose prefix
    sums of local factor degrees equal the elementwise minimum (the
    divisibility lemma makes them specialize correctly).  They cycle
    through those points per coefficient, so the cache holds a few runs'
    worth of points and no more.
    """
    n = ell.degree
    pw = []
    w = ell.one
    for _ in range(n):
        pw.append(w)
        w = ell.mul(w, a_power)
    cols = [[pw[j][i] for j in range(n)] for i in range(n)]
    solver = LinearSolver(ell.base, cols)
    if solver.rank < n:
        raise NotAGenerator("powers of the element do not span the field")
    return solver


def lift_from_extension_value(K, ell, a_power, v, bound):
    """The unique c over K with deg c <= bound and c(a_power) = v.

    ell is K itself, where c is the constant v, or an extension of K.
    Existence within the bound is a property of the caller's parameters,
    not of this routine; a violation is reported rather than truncated.
    """
    if ell.key == K.key:
        c = polys.trim(K, [v])
    elif getattr(ell, "base", None) == K:
        c = polys.trim(K, power_basis_solver(ell, a_power).solve(list(v)))
    else:
        raise FieldMismatch(f"{ell} is neither {K} nor an extension of it")
    if polys.deg(c) > bound:
        raise NoSolutionWithinBound(
            f"lift has degree {polys.deg(c)}, allowed at most {bound}")
    return c
