"""Lifting values in an extension field back to polynomials over the base.

An element a_power that generates ell = F_q[u]/S gives a second basis
1, a_power, ..., a_power^(deg S - 1); writing a value in that basis reads
off the unique polynomial of degree < deg S taking that value at a_power.
"""

import functools

from . import polys
from .errors import NoSolutionWithinBound, NotAGenerator
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


def lift_from_extension_value(ell, a_power, v, bound):
    """The unique c over the base field with deg c <= bound, c(a_power) = v.

    Existence within the bound is a property of the caller's parameters,
    not of this routine; a violation is reported rather than truncated.
    """
    solver = power_basis_solver(ell, a_power)
    c = polys.trim(ell.base, solver.solve(list(v)))
    if polys.deg(c) > bound:
        raise NoSolutionWithinBound(
            f"lift has degree {polys.deg(c)}, allowed at most {bound}")
    return c
