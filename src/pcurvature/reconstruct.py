"""Reconstruction of the bivariate invariant factors from local ones.

Write the invariant factors of f_A(x)^p A_p(x) in the variable X = x^p:
their coefficients are polynomials of X-degree at most D, and the points a
at which they fail to specialize to the local factors at a have degree-sum
at most F.  At a non-pole point the product of the first j specialized
factors divides that of the first j local ones (the divisibility lemma),
so the prefix sums of the local T-degrees are at least the global ones,
with equality at good points; equal sums force equal factors.  Points
attaining the elementwise minimal prefix sums thus specialize correctly
and glue by Chinese remaindering.  A cyclic local class (r - 1 ones) has
prefix sums (0, ..., 0, r), below which no global ones go, so it proves
its point good.  Both drivers therefore start with one certified pass:
the first small points of total degree D + 1, which are glued when their
classes are all cyclic.  The drivers differ only in their fallback
points, used otherwise: all small classes up to total degree F + D + 1
(deterministic), or random points of degree s (Monte Carlo, failure below
epsilon).  The input is over F_p (FieldMismatch otherwise).  Points of
degree 1 are elements of F_p itself, so at degree 1 every step, from the
pole checks to the lifts, runs over F_p and no extension field is built.
"""

import itertools
import random
from collections import namedtuple

from . import bivar, fields, interp, local_eval, polys
from .diffop import DiffSystem
from .errors import CharTooSmall, EpsilonOutOfRange, SelectionFailed


class ReconParams(namedtuple("ReconParams",
                             "D F mode epsilon s K k_sel seed",
                             defaults=(None,) * 5)):
    """Degree bounds and Monte Carlo sample plan for one reconstruction.

    D and F are ints and mode is "deterministic" or "montecarlo"; epsilon
    (a float), the sample degree s, the counts K and k_sel and the seed
    are None unless the plan sets them.
    """

    __slots__ = ()


def _bidegree(inp):
    if isinstance(inp, DiffSystem):
        return inp.degree, inp.size, True
    return inp.degree, inp.order, False


def _leading(inp):
    return inp.f_A if isinstance(inp, DiffSystem) else inp.coeffs[-1]


def _published_bound(q, D, F, s):
    """Failure probability bound behind the published choice of s."""
    qs = q ** s
    if qs <= 4 * F:
        return None
    t1 = 2.0 * (D + s + 1) ** 2 / (s * (qs - 2 * F))
    t2 = 0.5 * (4.0 * F / qs) ** ((D - 2) / s)
    return t1 + t2


def _fallback_bound(q, D, F, s):
    """All-samples-bad bound, valid whenever s >= D + 1.

    With s >= D + 1 a single good sample suffices (k_sel = 1), so the run
    only misbehaves when every one of the K draws lands on a bad class;
    each draw is uniform over the >= q^s / 2 elements of degree exactly s,
    of which at most F are bad.
    """
    qs = q ** s
    if s < D + 1 or qs <= 4 * F:
        return None
    k_sel = -(-(D + 1) // s)
    K = max(-(-3 * D // s), k_sel)
    return (2.0 * F / qs) ** K


def _mc_plan(q, D, F, epsilon):
    """Smallest admissible sample degree s and the derived counts K, k_sel.

    The published inequality is used when it can be satisfied at all: its
    second term decreases to q^(2-D)/2 as s grows, so whenever epsilon is
    at or below that limit (always, for D <= 1) no s works and the
    all-samples-bad rule takes over.
    """
    if 0.5 * q ** (2 - D) < epsilon:
        s = 1
        while True:
            b = _published_bound(q, D, F, s)
            if b is not None and b <= epsilon:
                break
            s += 1
    else:
        s = D + 1
        while True:
            b = _fallback_bound(q, D, F, s)
            if b is not None and b <= epsilon:
                break
            s += 1
    k_sel = -(-(D + 1) // s)
    K = max(-(-3 * D // s), k_sel)
    return s, K, k_sel


def check_epsilon(epsilon):
    """Refuse an error budget outside (0, 1), NaN included."""
    if not 0 < epsilon < 1:
        raise EpsilonOutOfRange(f"epsilon must be in (0, 1), got {epsilon}")


def select_params(inp, epsilon=None, seed=None):
    """Degree bounds D, F for the input and, with epsilon, a sample plan.

    Systems of size r and degree d get D = dr, F = 6dr(r-1); operators of
    bidegree (d, r) get D = d, F = 3d(2r-1).
    """
    d, r, is_system = _bidegree(inp)
    if inp.K.char <= r:
        raise CharTooSmall(
            f"need p > r, got p = {inp.K.char} and r = {r}")
    if is_system:
        D, F = d * r, 6 * d * r * (r - 1)
    else:
        D, F = d, 3 * d * (2 * r - 1)
    if epsilon is None:
        return ReconParams(D=D, F=F, mode="deterministic", seed=seed)
    check_epsilon(epsilon)
    s, K, k_sel = _mc_plan(inp.K.q, D, F, epsilon)
    return ReconParams(D=D, F=F, mode="montecarlo", epsilon=epsilon,
                       s=s, K=K, k_sel=k_sel, seed=seed)


def effective_params(inp, params):
    """Parameters the drivers actually honor.

    Systems keep their published bounds.  The published operator bounds
    undercount the scaled object: the invariant factors of a_r(x)^p A_p(x)
    reach X-degree dr (already for bidegree (2, 2)), not d, so operator
    runs fall back to the bounds of their companion system, re-deriving
    the sample plan when one is present.  The local evaluations still use
    the cheaper operator-shaped recurrence.
    """
    if isinstance(inp, DiffSystem):
        return params
    d, r = inp.degree, inp.order
    D, F = d * r, 6 * d * r * (r - 1)
    if params.mode == "montecarlo":
        s, K, k_sel = _mc_plan(inp.K.q, D, F, params.epsilon)
        return params._replace(D=D, F=F, s=s, K=K, k_sel=k_sel)
    return params._replace(D=D, F=F)


def _point_field(K, k):
    """The field of the points of degree k over K: K itself when k = 1,
    else K[u]/(f) for a seeded irreducible f of degree k."""
    # called at k = 1 too (one cheap test): perfbench reads the degree here
    f = fields.find_irreducible(K, k)
    if k == 1:
        return K
    from .extension import ExtensionField
    return ExtensionField(K, f)


def _scaled_local_factors(inp, ell, points):
    """Local invariant factors at each point, rescaled to match the global
    object; one matrix factorial serves the whole batch.

    The library's bivariate factors belong to f_A^p A_p; the local ones
    belong to A_p(a), so each picks up powers of c = f_A(a)^p.
    """
    emb = fields.embedding(inp.K, ell)
    lead = [emb(c) for c in _leading(inp)]
    local = local_eval.invariant_factors_at(inp, ell, points)
    out = []
    for a, fs in zip(points, local):
        c = ell.pow(polys.eval_at(ell, lead, a), ell.char)
        out.append([bivar.scale_similarity(ell, g, c) for g in fs])
    return out


def _non_pole(inp, ell):
    """Predicate on points of ell (K itself or an extension of it): the
    leading coefficient does not vanish."""
    lead = [fields.embedding(inp.K, ell)(c) for c in _leading(inp)]
    return lambda a: polys.eval_at(ell, lead, a) != ell.zero


def _cyclic(fs):
    """Whether a local class is cyclic: its first r - 1 factors are 1."""
    return all(bivar.deg_T(g) == 0 for g in fs[:-1])


def _small_points(inp, total):
    """Non-pole points of the smallest degree k over K whose classes reach
    total degree `total`, one point per Frobenius orbit: (ell, k, points),
    ell the field of the points and points the first -(-total // k) of
    them in ell.elements() order."""
    K = inp.K
    k = 1
    while True:
        ell = _point_field(K, k)
        ok = _non_pole(inp, ell)
        points, seen = [], set()
        for a in ell.elements():
            if a in seen:
                continue
            orbit = fields.frobenius_orbit(ell, a, K.q)
            seen.update(orbit)
            if len(orbit) == k and ok(a):
                points.append(a)
                if k * len(points) >= total:
                    return ell, k, points
        k += 1


def _reconstruct(inp, p, D, fallback):
    """Bivariate invariant factors from a certified pass or from the
    driver's fallback points.

    The pass takes the small points of total degree D + 1 and evaluates
    them in one batch.  A cyclic local class, r - 1 ones and the
    characteristic polynomial, has prefix sums (0, ..., 0, r): the global
    ones are at least 0, end at r, and are at most the local ones
    (divisibility lemma), so they are equal and the point is good.  When
    every class of the pass is cyclic, its points are glued.  Otherwise
    fallback() gives (ell, s, points, k_sel): points of degree s in ell,
    K itself when s = 1 and the extension of K of degree s otherwise.  One
    more batch evaluates every distinct one the pass did not, and the first
    k_sel pairwise non-conjugate points with minimal prefix sums are
    chosen, in the order given.  Each coefficient follows by CRT over the
    minimal polynomials of the chosen a_i^p (z - a_i^p when s = 1), whose
    basis (polys.crt_basis) is built once for all coefficients.
    """
    K = inp.K
    local_eval.require_prime_field(K)
    if p != K.char:
        raise ValueError(f"p = {p} differs from the characteristic {K.char}")
    q = K.q
    ell, s, points = _small_points(inp, D + 1)
    local = dict(zip(points, _scaled_local_factors(inp, ell, points)))
    k_sel = len(points)
    if not all(map(_cyclic, local.values())):
        first = ell
        ell, s, points, k_sel = fallback()
        if ell != first:
            local = {}
        rest = [a for a in dict.fromkeys(points) if a not in local]
        if rest:
            local.update(zip(rest, _scaled_local_factors(inp, ell, rest)))
    sums = [tuple(itertools.accumulate(bivar.deg_T(g) for g in local[a]))
            for a in points]
    target = tuple(map(min, zip(*sums)))
    chosen = []
    for a, ps in zip(points, sums):
        if ps != target:
            continue
        if any(fields.are_conjugate(ell, a, b, q) for b, _ in chosen):
            continue
        chosen.append((a, local[a]))
        if len(chosen) == k_sel:
            break
    if len(chosen) < k_sel:
        raise SelectionFailed(
            f"found {len(chosen)} of {k_sel} non-conjugate points "
            "with minimal prefix sums of local degrees")

    points = [(ell.pow(a, p), fs) for a, fs in chosen]
    basis = polys.crt_basis(
        K, [fields.minimal_polynomial(ell, ap, q) for ap, _ in points], D)
    out = []
    for j, g in enumerate(chosen[0][1]):
        factor = []
        for k in range(bivar.deg_T(g) + 1):
            values = [interp.lift_from_extension_value(
                K, ell, ap, fs[j][k], s - 1) for ap, fs in points]
            c = polys.trim(K, polys.crt_combine(K, basis, values))
            if polys.deg(c) > D:
                raise SelectionFailed(
                    "interpolated coefficient exceeds the degree bound")
            factor.append(c)
        out.append(factor)
    return out


def reconstruct_deterministic(inp, p, params=None):
    """Bivariate invariant factors from every small point, in order.

    Past the certified pass, the fallback is the budget: bad points have
    degree-sum at most F, so non-conjugate non-pole points of total degree
    F + D + 1 hold good ones of total degree D + 1.  Those attain the
    minimal prefix sums of local degrees, which no point can undercut
    (divisibility lemma), so only good points are kept and their CRT is
    unique.  One point per Frobenius orbit of size k, for the smallest k
    whose classes reach the budget.  No probabilistic failure.
    """
    if params is None:
        params = select_params(inp)
    params = effective_params(inp, params)
    D = params.D

    def budget():
        ell, k, points = _small_points(inp, params.F + D + 1)
        return ell, k, points, -(-(D + 1) // k)

    return _reconstruct(inp, p, D, budget)


def _sample_degree_s(ell, q, s, rng):
    """Uniform element of degree exactly s, by rejection on the orbit size."""
    while True:
        a = ell.random_elem(rng)
        if len(fields.frobenius_orbit(ell, a, q)) == s:
            return a


def reconstruct_montecarlo(inp, p, params):
    """Bivariate invariant factors from K random points of degree s.

    Past the certified pass, which draws nothing, the fallback draws all K
    points, a pole being redrawn within a cap on the attempts.  Good
    samples attain the minimal prefix sums of local degrees, which no
    sample can undercut (divisibility lemma), so bad ones are skipped;
    k_sel pairwise non-conjugate good ones glue by CRT.  Fails
    (SelectionFailed) or errs with probability <= epsilon.  A plan made
    without an epsilon raises ValueError.
    """
    if params.mode != "montecarlo":
        raise ValueError(f"need a montecarlo plan, not {params.mode!r}")
    params = effective_params(inp, params)

    def draws():
        K = inp.K
        s = params.s
        rng = random.Random(params.seed)
        ell = _point_field(K, s)
        ok = _non_pole(inp, ell)
        points = []
        attempts = 0
        while len(points) < params.K:
            if attempts >= 4 * params.K + 8:
                raise SelectionFailed("sampling kept hitting poles")
            attempts += 1
            a = _sample_degree_s(ell, K.q, s, rng)
            if ok(a):
                points.append(a)
        return ell, s, points, params.k_sel

    return _reconstruct(inp, p, params.D, draws)
