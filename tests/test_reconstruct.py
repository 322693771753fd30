import pytest

from pcurvature import (bivar, cli, diffop, fields, linalg, local_eval, polys,
                        reconstruct)
from pcurvature.errors import (CharTooSmall, EpsilonOutOfRange, PoleAtPoint,
                               SelectionFailed)
from pcurvature.reconstruct import ReconParams
from test_diffop import random_operator, random_system

F3 = fields.PrimeField(3)
F5 = fields.PrimeField(5)
F7 = fields.PrimeField(7)
F11 = fields.PrimeField(11)


def _op(K, *coeffs):
    return diffop.DiffOperator(
        K, tuple(tuple(K.from_int(c) for c in cc) for cc in coeffs))


def _fmt(K, factors):
    return [bivar.format_bivar(K, f) for f in factors]


OP22 = _op(F11, (1, 0, 1), (1,), (1, 1, 1))
OP22_FACTORS = ["1", "T^2 + 9*T + X^4 + 10*X^2 + 9*X + 10"]


def test_select_params_published_pins():
    sysv = random_system(F7, __import__("random").Random(0), 2, 3)
    ps = reconstruct.select_params(sysv)
    assert (ps.D, ps.F) == (6, 72)

    L = _op(F3, (0, 2), (1,))
    pl = reconstruct.select_params(L)
    assert (pl.D, pl.F) == (1, 3)

    K79 = fields.PrimeField(79)
    big = diffop.DiffOperator(
        K79, tuple([(K79.one,)] * 77 + [tuple([K79.zero] * 140 + [K79.one])]))
    pb = reconstruct.select_params(big)
    assert (pb.D, pb.F) == (140, 64260)


def test_select_params_guards():
    L = _op(F3, (1,), (0,), (0,), (1,))
    with pytest.raises(CharTooSmall):
        reconstruct.select_params(L)
    with pytest.raises(EpsilonOutOfRange):
        reconstruct.select_params(OP22, epsilon=0.0)
    with pytest.raises(EpsilonOutOfRange):
        reconstruct.select_params(OP22, epsilon=1.0)


def test_montecarlo_plan_pins():
    pub = reconstruct.select_params(OP22, epsilon=0.2)
    assert (pub.D, pub.F, pub.s, pub.K, pub.k_sel) == (2, 18, 3, 2, 1)
    eff = reconstruct.effective_params(OP22, pub)
    assert (eff.D, eff.F, eff.s, eff.K, eff.k_sel) == (4, 24, 3, 4, 2)

    L = _op(F3, (0, 2), (1,))  # Dx - x
    plan = reconstruct.select_params(L, epsilon=0.2)
    assert (plan.D, plan.F, plan.s, plan.K, plan.k_sel) == (1, 3, 4, 1, 1)


def test_effective_params_systems_pass_through(rng):
    sysv = random_system(F5, rng, 2, 2)
    ps = reconstruct.select_params(sysv)
    assert reconstruct.effective_params(sysv, ps) == ps


def test_effective_params_operator_idempotent():
    pub = reconstruct.select_params(OP22, epsilon=0.2)
    eff = reconstruct.effective_params(OP22, pub)
    assert reconstruct.effective_params(OP22, eff) == eff


def test_plan_counts_follow_from_s():
    for eps in (0.2, 0.05):
        for inp in (OP22, _op(F7, (1, 1), (0, 1), (1,))):
            ps = reconstruct.effective_params(
                inp, reconstruct.select_params(inp, epsilon=eps))
            s, D = ps.s, ps.D
            assert ps.k_sel == -(-(D + 1) // s)
            assert ps.K == max(-(-3 * D // s), ps.k_sel)
            assert inp.K.q ** s > 4 * ps.F


def test_deterministic_micro_instances():
    L1 = _op(F3, (0, 2), (1,))
    assert _fmt(F3, reconstruct.reconstruct_deterministic(L1, 3)) == ["T + X"]
    L2 = _op(F3, (2,), (1,))
    assert _fmt(F3, reconstruct.reconstruct_deterministic(L2, 3)) == ["T + 1"]
    L3 = _op(F3, (0,), (1,))
    assert _fmt(F3, reconstruct.reconstruct_deterministic(L3, 3)) == ["T"]


def test_deterministic_matches_naive(rng):
    for p, K in ((5, F5), (7, F7)):
        for _ in range(5):
            if rng.random() < 0.5:
                inp = random_operator(K, rng, rng.randint(0, 2),
                                      rng.randint(1, 2))
                sysv = diffop.companion_of_operator(inp)
            else:
                inp = random_system(K, rng, rng.randint(0, 2),
                                    rng.randint(1, 2))
                sysv = inp
            got = reconstruct.reconstruct_deterministic(inp, p)
            want = diffop.naive_invariant_factors(sysv, p)
            assert got == want


def test_deterministic_second_order_pin():
    got = _fmt(F11, reconstruct.reconstruct_deterministic(OP22, 11))
    assert got == OP22_FACTORS


def test_montecarlo_seed_determinism():
    params = reconstruct.select_params(OP22, epsilon=0.2, seed=7)
    a = reconstruct.reconstruct_montecarlo(OP22, 11, params)
    b = reconstruct.reconstruct_montecarlo(OP22, 11, params)
    assert a == b


def test_montecarlo_matches_naive_on_seeds():
    for seed in range(5):
        params = reconstruct.select_params(OP22, epsilon=0.2, seed=seed)
        got = reconstruct.reconstruct_montecarlo(OP22, 11, params)
        assert _fmt(F11, got) == OP22_FACTORS


F103 = fields.PrimeField(103)
L103 = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", F103)
L103_FACTORS = ["1", "T^2 + 4*X^2 + 4"]

# Sample points (coefficient tuples over F_11) that OP22 draws at epsilon
# 0.2 for seeds 0-2, in draw order, from before the points were batched.
OP22_POINTS = {
    0: [(7, 5, 6), (3, 1, 7), (5, 7, 0), (2, 4, 4)],
    1: [(0, 3, 2), (10, 6, 9), (8, 0, 1), (5, 3, 4)],
    2: [(5, 10, 0), (0, 6, 1), (8, 4, 1), (2, 1, 6)],
}


def _montecarlo_runs(monkeypatch, inp, p, epsilon, seeds):
    """Formatted output, evaluated points and factorial count per seed."""
    calls = {"factorial": 0, "points": []}
    factorial = linalg.matrix_factorial
    evaluate = local_eval.invariant_factors_at

    def counting_factorial(*args):
        calls["factorial"] += 1
        return factorial(*args)

    def recording_evaluate(inp, ell, points, p=None):
        calls["points"].extend(points)
        return evaluate(inp, ell, points, p)

    monkeypatch.setattr(linalg, "matrix_factorial", counting_factorial)
    monkeypatch.setattr(local_eval, "invariant_factors_at",
                        recording_evaluate)
    out = {}
    for seed in seeds:
        calls["factorial"] = 0
        calls["points"] = []
        params = reconstruct.select_params(inp, epsilon=epsilon, seed=seed)
        got = _fmt(inp.K, reconstruct.reconstruct_montecarlo(inp, p, params))
        out[seed] = (got, calls["points"], calls["factorial"])
    return out


def test_montecarlo_pinned_seed_for_seed(monkeypatch):
    runs = _montecarlo_runs(monkeypatch, OP22, 11, 0.2, range(50))
    for seed, (got, points, _) in runs.items():
        assert got == OP22_FACTORS, seed
        if seed in OP22_POINTS:
            assert points == OP22_POINTS[seed], seed
    for inp in (L103, diffop.companion_of_operator(L103)):
        runs = _montecarlo_runs(monkeypatch, inp, 103, 0.1, range(1, 11))
        for seed, (got, _, _) in runs.items():
            assert got == L103_FACTORS, seed


def test_montecarlo_makes_one_factorial_per_solve(monkeypatch):
    for inp, p, epsilon in ((OP22, 11, 0.2), (L103, 103, 0.1)):
        K = reconstruct.effective_params(
            inp, reconstruct.select_params(inp, epsilon=epsilon)).K
        runs = _montecarlo_runs(monkeypatch, inp, p, epsilon, range(5))
        for seed, (_, points, factorials) in runs.items():
            assert factorials == 1, seed
            assert len(points) == K, seed


def test_montecarlo_pole_exhaustion_fails_cleanly():
    # every degree-1 point of F_3 is a pole of x(x+1)(x+2)
    fA = (F3.zero, F3.from_int(2), F3.zero, F3.one)
    sysv = diffop.DiffSystem(F3, fA, (((F3.one,),),))
    params = ReconParams(D=1, F=1, mode="montecarlo", epsilon=0.5,
                         s=1, K=2, k_sel=2, seed=0)
    with pytest.raises(SelectionFailed):
        reconstruct.reconstruct_montecarlo(sysv, 3, params)


def test_montecarlo_degree_overflow_fails_cleanly():
    # true coefficient has X-degree 2; forcing D = 1 must be detected
    sysv = diffop.DiffSystem(F5, (F5.one,),
                             (((F5.zero, F5.zero, F5.one),),))
    assert _fmt(F5, diffop.naive_invariant_factors(sysv, 5)) == ["T + X^2"]
    params = ReconParams(D=1, F=1, mode="montecarlo", epsilon=0.5,
                         s=1, K=6, k_sel=3, seed=2)
    with pytest.raises(SelectionFailed):
        reconstruct.reconstruct_montecarlo(sysv, 5, params)


def test_verify_divisibility_lemma_random_points(rng):
    checked = 0
    for _ in range(10):
        if rng.random() < 0.5:
            inp = random_operator(F5, rng, rng.randint(0, 2),
                                  rng.randint(1, 2))
            lead = inp.leading
        else:
            inp = random_system(F5, rng, rng.randint(0, 2),
                                rng.randint(1, 2))
            lead = list(inp.f_A)
        a = F5.from_int(rng.randrange(5))
        if polys.eval_at(F5, lead, a) == F5.zero:
            continue
        assert reconstruct.verify_divisibility_lemma(inp, 5, F5, a)
        checked += 1
    assert checked >= 5


def test_verify_divisibility_lemma_engineered_bad_point():
    # A = [[0, x^(2p-1)], [0, 0]]: global factors (1, T^2) but the
    # specialization at 0 is the zero matrix with factors (T, T)
    p = 5
    top = tuple([F5.zero] * (2 * p - 1) + [F5.one])
    sysv = diffop.DiffSystem(
        F5, (F5.one,),
        ((tuple(), top), (tuple(), tuple())))
    glob = _fmt(F5, diffop.naive_invariant_factors(sysv, p))
    assert glob == ["1", "T^2"]
    assert reconstruct.verify_divisibility_lemma(sysv, p, F5, F5.zero)


def test_verify_divisibility_lemma_rejects_poles():
    sysv = diffop.DiffSystem(F5, (F5.zero, F5.one), (((F5.one,),),))
    with pytest.raises(PoleAtPoint):
        reconstruct.verify_divisibility_lemma(sysv, 5, F5, F5.zero)
