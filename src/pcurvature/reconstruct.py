"""Reconstruction of the bivariate invariant factors from local ones.

Write the invariant factors of f_A(x)^p A_p(x) in the variable X = x^p:
their coefficients are polynomials of X-degree at most D, and the points a
at which they fail to specialize to the local factors at a have degree-sum
at most F.  A single point of degree F + 1 therefore pins them down
deterministically; alternatively, several random points of degree s are
filtered by their local degree statistics and glued by Chinese
remaindering, at a failure probability below a prescribed epsilon.
"""

import random
from dataclasses import dataclass, replace

from . import bivar, fields, interp, local_eval, polys
from .diffop import DiffSystem, companion_of_operator, naive_invariant_factors
from .errors import CharTooSmall, EpsilonOutOfRange, SelectionFailed


@dataclass(frozen=True)
class ReconParams:
    """Degree bounds and Monte Carlo sample plan for one reconstruction."""

    D: int
    F: int
    mode: str
    epsilon: float | None = None
    s: int | None = None
    K: int | None = None
    k_sel: int | None = None
    seed: int | None = None


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
    if not 0 < epsilon < 1:
        raise EpsilonOutOfRange(f"epsilon must be in (0, 1), got {epsilon}")
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
        return replace(params, D=D, F=F, s=s, K=K, k_sel=k_sel)
    return replace(params, D=D, F=F)


def _scaled_local_factors(inp, ell, points, p):
    """Local invariant factors at each point, rescaled to match the global
    object; one matrix factorial serves the whole batch.

    The library's bivariate factors belong to f_A^p A_p; the local ones
    belong to A_p(a), so each picks up powers of c = f_A(a)^p.
    """
    emb = fields.embedding(inp.K, ell)
    lead = [emb(c) for c in _leading(inp)]
    local = local_eval.invariant_factors_at(inp, ell, points, p)
    out = []
    for a, fs in zip(points, local):
        c = ell.pow(polys.eval_at(ell, lead, a), p)
        out.append([bivar.scale_similarity(ell, g, c) for g in fs])
    return out


def reconstruct_deterministic(inp, p, params=None):
    """Bivariate invariant factors via one point of degree max(D, F) + 1.

    The degree-sum of bad points is at most F, so any point of degree
    above F is good; degree above D makes the power-basis lift of each
    coefficient unique, and above deg f_A rules out poles.  No
    probabilistic failure.
    """
    if params is None:
        params = select_params(inp)
    params = effective_params(inp, params)
    K = inp.K
    n = max(params.D, params.F, 1) + 1
    ell = fields.ExtensionField(K, fields.find_irreducible(K, n))
    a = ell.gen
    scaled = _scaled_local_factors(inp, ell, [a], p)[0]
    ap = ell.pow(a, p)
    return [[interp.lift_from_extension_value(ell, ap, v, params.D)
             for v in g] for g in scaled]


def _sample_degree_s(ell, q, s, rng):
    """Uniform element of degree exactly s, by rejection on the orbit size."""
    while True:
        a = ell.random_elem(rng)
        if len(fields.frobenius_orbit(ell, a, q)) == s:
            return a


def reconstruct_montecarlo(inp, p, params):
    """Bivariate invariant factors from K random points of degree s.

    All K points are drawn first, a pole being redrawn within a cap on the
    attempts; one matrix factorial over the product ring of their minimal
    polynomials then gives the local factors at all of them.  Good points
    attain the coordinatewise-minimal vector of local factor degrees, and
    any point attaining it specializes correctly at every level; k_sel
    pairwise non-conjugate such points determine each coefficient by
    Chinese remaindering over the minimal polynomials of the a_i^p.  Fails
    (SelectionFailed) or errs with probability <= epsilon.
    """
    params = effective_params(inp, params)
    K = inp.K
    q = K.q
    s, D = params.s, params.D
    rng = random.Random(params.seed)
    ell = fields.ExtensionField(K, fields.find_irreducible(K, s))
    lead = [fields.embedding(K, ell)(c) for c in _leading(inp)]
    points = []
    attempts = 0
    while len(points) < params.K:
        if attempts >= 4 * params.K + 8:
            raise SelectionFailed("sampling kept hitting poles")
        attempts += 1
        a = _sample_degree_s(ell, q, s, rng)
        if polys.eval_at(ell, lead, a) == ell.zero:
            continue
        points.append(a)
    samples = list(zip(points, _scaled_local_factors(inp, ell, points, p)))

    degs = [tuple(bivar.deg_T(g) for g in fs) for _, fs in samples]
    target = tuple(min(col) for col in zip(*degs))
    chosen = []
    for (a, fs), dv in zip(samples, degs):
        if dv != target:
            continue
        if any(fields.are_conjugate(ell, a, b, q) for b, _ in chosen):
            continue
        chosen.append((a, fs))
        if len(chosen) == params.k_sel:
            break
    if len(chosen) < params.k_sel:
        raise SelectionFailed(
            f"found {len(chosen)} of {params.k_sel} non-conjugate points "
            "with minimal local degrees")

    points = [(ell.pow(a, p), fs) for a, fs in chosen]
    moduli = [fields.minimal_polynomial(ell, ap, q) for ap, _ in points]
    n = len(chosen[0][1])
    out = []
    for j in range(n):
        m = bivar.deg_T(chosen[0][1][j])
        factor = []
        for k in range(m + 1):
            residues = [
                (mod, interp.lift_from_extension_value(ell, ap, fs[j][k],
                                                       s - 1))
                for mod, (ap, fs) in zip(moduli, points)]
            c = polys.trim(K, polys.interpolate_crt(K, residues, D))
            if polys.deg(c) > D:
                raise SelectionFailed(
                    "interpolated coefficient exceeds the degree bound")
            factor.append(c)
        out.append(factor)
    return out


def verify_divisibility_lemma(inp, p, ell, a):
    """Check that the specialized factor products divide the local ones.

    At any non-pole point a, the product of the first j bivariate factors
    evaluated at X = a^p divides the product of the first j local factors,
    for every j; equality can fail (bad points) but divisibility cannot.
    """
    sysform = inp if isinstance(inp, DiffSystem) else companion_of_operator(inp)
    glob = naive_invariant_factors(sysform, p)
    scaled = _scaled_local_factors(inp, ell, [a], p)[0]
    emb = fields.embedding(inp.K, ell)
    ap = ell.pow(a, p)
    spec = [bivar.evaluate_at_X(inp.K, ell, g, ap, emb) for g in glob]
    P, Q = [ell.one], [ell.one]
    for gj, lj in zip(spec, scaled):
        P = polys.mul(ell, P, gj)
        Q = polys.mul(ell, Q, lj)
        if not polys.divides(ell, P, Q):
            return False
    return True
