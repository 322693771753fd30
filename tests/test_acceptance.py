"""End-to-end acceptance run: ten checks, one printed verdict line each.

Corpora are seeded so every run exercises the same inputs.  Checks that
need an oracle recompute it from the O(p) recurrence; nothing here lets
the fast path certify itself.
"""

import random
import statistics
import time
from collections import Counter

import pytest

from pcurvature import (bivar, diffop, fields, linalg, local_eval, polys,
                        reconstruct)
from pcurvature.errors import SelectionFailed
from pcurvature.nilprofile import FactorizationHypothesis, RankProfile, \
    feasibility_check
from pcurvature.ratfunc import RatFuncField
from test_diffop import random_operator, random_system
from test_reconstruct import OP22, OP22_FACTORS

PRIMES = (5, 7, 11, 13)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _sysform(inp):
    if isinstance(inp, diffop.DiffOperator):
        return diffop.companion_of_operator(inp)
    return inp


def _point_avoiding_poles(sysform, ell, rng):
    emb = fields.embedding(sysform.K, ell)
    f = [emb(c) for c in sysform.f_A]
    while True:
        a = ell.random_elem(rng)
        if polys.eval_at(ell, f, a) != ell.zero:
            return a


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(31905)
    ops, systems = [], []
    for p in PRIMES:
        K = fields.PrimeField(p)
        for _ in range(25):
            ops.append(random_operator(K, rng,
                                       rng.randint(0, 3), rng.randint(1, 3)))
            systems.append(random_system(K, rng,
                                         rng.randint(0, 3), rng.randint(1, 3)))
    return ops, systems


@pytest.fixture(scope="module")
def naive_all(corpus):
    ops, systems = corpus
    return [diffop.naive_invariant_factors(_sysform(inp), inp.K.char)
            for inp in ops + systems]


def test_c01_deterministic_matches_naive(corpus, naive_all, capsys):
    ops, systems = corpus
    t0 = time.perf_counter()
    bad = sum(reconstruct.reconstruct_deterministic(inp, inp.K.char) != ref
              for inp, ref in zip(ops + systems, naive_all))
    dt = time.perf_counter() - t0
    _verdict(capsys, 1, bad == 0,
             f"{len(ops)} operators + {len(systems)} systems, "
             f"mismatches {bad}, {dt:.0f}s")


def test_c02_local_factors_match_specialized_curvature(corpus, capsys):
    ops, systems = corpus
    rng = random.Random(41807)
    inputs = rng.sample(ops + systems, 50)
    t0 = time.perf_counter()
    pairs = bad = 0
    for inp in inputs:
        K, p = inp.K, inp.K.char
        sysform = _sysform(inp)
        R = RatFuncField(K)
        Ap = diffop.naive_p_curvature(sysform, p)
        for k in (1, 2, 3, 4):
            ell = K if k == 1 else fields.ExtensionField(
                K, fields.find_irreducible(K, k))
            emb = fields.embedding(K, ell)
            a = _point_avoiding_poles(sysform, ell, rng)
            [got] = local_eval.invariant_factors_at(inp, ell, [a], p)
            ref = linalg.invariant_factors_of(
                ell, [[R.evaluate(e, a, ell, emb) for e in row] for row in Ap])
            pairs += 1
            bad += got != ref
    dt = time.perf_counter() - t0
    _verdict(capsys, 2, pairs >= 200 and bad == 0,
             f"{pairs} (input, point) pairs, mismatches {bad}, {dt:.0f}s")


def test_c03_cleared_factors_live_in_xp(corpus, capsys):
    ops, systems = corpus
    coeffs = bad = 0
    for inp in ops + systems:
        K, p = inp.K, inp.K.char
        sysform = _sysform(inp)
        R, rats = diffop.rational_invariant_factors(sysform, p)
        fp = R.from_poly(list(sysform.f_A))
        cp = R.one
        for _ in range(p):
            cp = R.mul(cp, fp)
        for f in rats:
            for coeff in bivar.scale_similarity(R, f, cp):
                ok = R.is_polynomial(coeff)
                if ok:
                    ok = all(i % p == 0
                             for i, c in enumerate(R.to_poly(coeff))
                             if c != K.zero)
                coeffs += 1
                bad += not ok
    _verdict(capsys, 3, bad == 0,
             f"{coeffs} cleared coefficients, x-exponents not "
             f"multiples of p: {bad}")


def _nilpotent_probe(K, p, c, size):
    top = [K.zero] * (2 * p - 1) + [K.from_int(c)]
    A = [[() for _ in range(size)] for _ in range(size)]
    A[0][1] = tuple(top)
    return diffop.DiffSystem(K, (K.one,), tuple(tuple(row) for row in A))


def test_c04_divisibility_at_points(corpus, capsys):
    ops, systems = corpus
    rng = random.Random(52903)
    t0 = time.perf_counter()
    pairs = bad = 0
    for p in PRIMES:
        K = fields.PrimeField(p)
        for c in (1, 2):
            for size in (2, 3):
                probe = _nilpotent_probe(K, p, c, size)
                for a in (K.zero, K.one):
                    pairs += 1
                    bad += not reconstruct.verify_divisibility_lemma(
                        probe, p, K, a)
    for inp in rng.choices(ops + systems, k=218):
        K, p = inp.K, inp.K.char
        k = rng.randint(1, 2)
        ell = K if k == 1 else fields.ExtensionField(
            K, fields.find_irreducible(K, k))
        a = _point_avoiding_poles(_sysform(inp), ell, rng)
        pairs += 1
        bad += not reconstruct.verify_divisibility_lemma(inp, p, ell, a)
    dt = time.perf_counter() - t0
    _verdict(capsys, 4, pairs >= 250 and bad == 0,
             f"{pairs} pairs incl. 32 engineered bad points, "
             f"violations {bad}, {dt:.0f}s")


WILSON_PRIMES = (5, 7, 13, 31, 97, 251, 509, 997, 2003, 4001, 8009, 16001,
                 32003, 64007, 125003, 250007, 400009, 500009, 750019, 999983)


def test_c05_wilson_factorial(capsys):
    from oracles import matrix_factorial_sequential
    t0 = time.perf_counter()
    bad = 0
    for p in WILSON_PRIMES:
        K = fields.PrimeField(p)
        B = [[[K.one, K.one]]]
        got = linalg.matrix_factorial(K, B, p - 1)
        bad += got != [[K.from_int(p - 1)]]
        if p <= 997:
            ref = matrix_factorial_sequential(K, B, p - 1, polys.eval_at)
            bad += got != ref
    dt = time.perf_counter() - t0
    _verdict(capsys, 5, bad == 0,
             f"{len(WILSON_PRIMES)} primes up to 10^6, "
             f"mismatches {bad}, {dt:.1f}s")


def test_c06_montecarlo_error_budget(capsys):
    p = OP22.K.char
    ref = diffop.naive_invariant_factors(_sysform(OP22), p)
    assert [bivar.format_bivar(OP22.K, g) for g in ref] == OP22_FACTORS
    t0 = time.perf_counter()
    failures = 0
    for seed in range(300):
        params = reconstruct.select_params(OP22, epsilon=0.2, seed=seed)
        try:
            failures += reconstruct.reconstruct_montecarlo(
                OP22, p, params) != ref
        except SelectionFailed:
            failures += 1
    frac = failures / 300
    dt = time.perf_counter() - t0
    _verdict(capsys, 6, frac <= 0.26,
             f"failure fraction {frac:.3f} over 300 seeded runs at "
             f"epsilon 0.2, budget 0.26, {dt:.0f}s")


def _scaling_probe(p):
    K = fields.PrimeField(p)
    op = diffop.DiffOperator(K, ((K.one,),
                                 (K.zero, K.one),
                                 (K.one, K.zero, K.one)))
    a = K.from_int(2)
    local_eval.invariant_factors_at(op, K, [a], p)  # warm up
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        local_eval.invariant_factors_at(op, K, [a], p)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_c07_sqrt_p_scaling(capsys):
    m1 = _scaling_probe(10007)
    m2 = _scaling_probe(40009)
    ratio = m2 / m1
    _verdict(capsys, 7, ratio <= 3.0,
             f"median time {m1 * 1e3:.1f}ms at p=10007, "
             f"{m2 * 1e3:.1f}ms at p=40009, ratio {ratio:.2f} <= 3.0")


def test_c08_feasibility_regression(capsys):
    profile = RankProfile((23, 17, 11, 6, 3, 0))
    res = feasibility_check(profile, FactorizationHypothesis(
        total_size=23, top_block_size=2))
    hit = [t for t in res.trace
           if t.forced_profile == (6, 5, 4, 3, 2, 0)
           and "increasing differences" in t.reason]
    ok = not res.feasible and len(hit) == 1
    _verdict(capsys, 8, ok,
             f"infeasible: {not res.feasible}, candidates "
             f"{sorted((t.n, t.base_size) for t in res.trace)}, forced "
             f"profile with increasing differences found: {len(hit) == 1}")


def test_c09_micro_instances(capsys):
    K = fields.PrimeField(3)
    cases = [
        (((K.zero, K.from_int(2)), (K.one,)), "T + X"),
        (((K.from_int(2),), (K.one,)), "T + 1"),
        (((), (K.one,)), "T"),
    ]
    bad = []
    for coeffs, want in cases:
        L = diffop.DiffOperator(K, coeffs)
        for name, got in (
            ("det", reconstruct.reconstruct_deterministic(L, 3)),
            ("naive", diffop.naive_invariant_factors(_sysform(L), 3)),
        ):
            text = [bivar.format_bivar(K, g) for g in got]
            if text != [want]:
                bad.append((want, name, text))
        votes = Counter()
        for seed in range(50):
            params = reconstruct.select_params(L, epsilon=0.2, seed=seed)
            try:
                got = reconstruct.reconstruct_montecarlo(L, 3, params)
                votes[tuple(bivar.format_bivar(K, g) for g in got)] += 1
            except SelectionFailed:
                votes["selection failed"] += 1
        modal = votes.most_common(1)[0][0]
        if modal != (want,):
            bad.append((want, "mc modal", modal))
    _verdict(capsys, 9, not bad,
             "T + X, T + 1, T by det, naive, and modal mc" if not bad
             else f"mismatches: {bad}")


def _published_bound_oracle(q, D, F, s):
    qs = q ** s
    if qs <= 4 * F:
        return None
    return (2.0 * (D + s + 1) ** 2 / (s * (qs - 2 * F))
            + 0.5 * (4.0 * F / qs) ** ((D - 2) / s))


def _fallback_bound_oracle(q, D, F, s):
    qs = q ** s
    if s < D + 1 or qs <= 4 * F:
        return None
    count = max(-(-3 * D // s), -(-(D + 1) // s))
    return (2.0 * F / qs) ** count


def test_c10_parameter_formulas(capsys):
    K = fields.PrimeField(11)
    formula_bad = 0
    for d in range(0, 11):
        for r in range(1, 11):
            a0 = tuple([K.zero] * d + [K.one])
            coeffs = (a0,) + ((),) * (r - 1) + ((K.one,),)
            P = reconstruct.select_params(diffop.DiffOperator(K, coeffs))
            formula_bad += (P.D, P.F) != (d, 3 * d * (2 * r - 1))
            A = [[() for _ in range(r)] for _ in range(r)]
            A[0][0] = a0
            P = reconstruct.select_params(diffop.DiffSystem(
                K, (K.one,), tuple(tuple(row) for row in A)))
            formula_bad += (P.D, P.F) != (d * r, 6 * d * r * (r - 1))
    plan_bad = 0
    for q in (5, 9, 13, 27, 101):
        for D in (1, 2, 3, 6, 9, 20):
            for F in (0, 3, 18, 72, 108, 600):
                for eps in (0.05, 0.2, 0.5):
                    s, count, k_sel = reconstruct._mc_plan(q, D, F, eps)
                    ok = (k_sel == -(-(D + 1) // s)
                          and count == max(-(-3 * D // s), k_sel)
                          and k_sel * s >= D + 1
                          and q ** s > 4 * F)
                    if 0.5 * q ** (2 - D) < eps:
                        b = _published_bound_oracle(q, D, F, s)
                        ok = ok and b is not None and b <= eps and all(
                            (bt := _published_bound_oracle(q, D, F, t)) is None
                            or bt > eps for t in range(1, s))
                    else:
                        b = _fallback_bound_oracle(q, D, F, s)
                        ok = ok and b is not None and b <= eps and all(
                            (bt := _fallback_bound_oracle(q, D, F, t)) is None
                            or bt > eps for t in range(D + 1, s))
                    plan_bad += not ok
    _verdict(capsys, 10, formula_bad == 0 and plan_bad == 0,
             f"(d, r) grid formula mismatches {formula_bad}, "
             f"sample-plan minimality violations {plan_bad} over 540 grids")
