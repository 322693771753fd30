import pytest

from pcurvature import (bivar, cli, diffop, fields, linalg, local_eval, polys,
                        reconstruct)
from pcurvature.errors import (CharTooSmall, EpsilonOutOfRange, PoleAtPoint,
                               SelectionFailed)
from pcurvature.reconstruct import ReconParams
from test_diffop import (assert_frozen_record, random_operator,
                         random_system)

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

    # keyword fields, the sample plan defaulting to None
    assert ps == ReconParams(D=6, F=72, mode="deterministic")
    assert ps == (6, 72, "deterministic", None, None, None, None, None)
    assert_frozen_record(ps)
    assert ps != ps._replace(seed=1)


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
    assert type(eff) is ReconParams
    assert eff == pub._replace(D=4, F=24, K=4, k_sel=2)
    assert_frozen_record(eff)

    L = _op(F3, (0, 2), (1,))  # Dx - x
    plan = reconstruct.select_params(L, epsilon=0.2)
    assert (plan.D, plan.F, plan.s, plan.K, plan.k_sel) == (1, 3, 4, 1, 1)


def test_effective_params_systems_pass_through(rng):
    sysv = random_system(F5, rng, 2, 2)
    ps = reconstruct.select_params(sysv)
    assert reconstruct.effective_params(sysv, ps) == ps
    mc = reconstruct.select_params(sysv, epsilon=0.2, seed=3)
    assert reconstruct.effective_params(sysv, mc) == mc


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


def test_montecarlo_refuses_a_deterministic_plan():
    with pytest.raises(ValueError, match="montecarlo"):
        reconstruct.reconstruct_montecarlo(
            OP22, 11, reconstruct.select_params(OP22))


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


def _diag_system(K, top, bottom):
    return diffop.DiffSystem(
        K, (K.one,), ((tuple(K.from_int(c) for c in top), ()),
                      ((), tuple(K.from_int(c) for c in bottom))))


def test_montecarlo_selects_by_prefix_sums_past_a_bad_sample():
    # diag(x^2 - x, 0) at p = 1009 draws K = 12 samples of degree 1 and
    # needs k_sel = 5.  At seed 6 one sample (0 or 1) is bad: it moves
    # degree into the first factor, so no sample attains the coordinatewise
    # minimum of the degree vectors, while 11 good samples remain.  The
    # pin is the naive oracle's output.
    F1009 = fields.PrimeField(1009)
    sysv = _diag_system(F1009, (0, -1, 1), ())
    params = reconstruct.select_params(sysv, epsilon=0.1, seed=6)
    got = _fmt(F1009, reconstruct.reconstruct_montecarlo(sysv, 1009, params))
    assert got == ["1", "T^2 + (X^2 + 1008*X)*T"]


# (p, top, bottom, bad point) of diag(top, bottom): the global factors have
# T-degrees (0, 2), but at the bad point, one of the det driver's
# candidates, the local ones have (1, 1).
BAD_CANDIDATES = [
    (17, (0, 6), (), 0),
    (17, (8, 12), (), 5),
    (23, (2, 22), (10, 13), 6),
    (29, (0, 25, 2), (1,), 26),
]


@pytest.mark.parametrize("p, top, bottom, bad", BAD_CANDIDATES)
def test_deterministic_skips_bad_candidates(p, top, bottom, bad):
    K = fields.PrimeField(p)
    sysv = _diag_system(K, top, bottom)
    local = reconstruct._scaled_local_factors(sysv, K, [bad], p)[0]
    assert [bivar.deg_T(g) for g in local] == [1, 1]
    want = diffop.naive_invariant_factors(sysv, p)
    assert [bivar.deg_T(g) for g in want] == [0, 2]
    assert reconstruct.reconstruct_deterministic(sysv, p) == want


def test_deterministic_builds_no_large_extension(monkeypatch):
    F263, F1019 = fields.PrimeField(263), fields.PrimeField(1019)
    F2003 = fields.PrimeField(2003)
    F25 = cli.make_field(5, 2)
    det_op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", F1019)
    mc_op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", F2003)
    m1 = F263.from_int(-1)
    det_sys = diffop.DiffSystem(F263, (1, 0, 1),
                                (((), (1, 0, 1)), ((m1,), (0, m1))))
    order3 = cli.parse_operator("Dx^3 + -(4 + x^2)*Dx^1 + -(3+x^2)", F25)
    seen, built, muls = [], [], [0]
    find = fields.find_irreducible
    init, mul = fields.ExtensionField.__init__, fields.ExtensionField.mul

    def recording(K, n):
        seen.append(n)
        return find(K, n)

    def recording_init(self, base, modulus):
        init(self, base, modulus)
        built.append(self)

    def counting_mul(self, a, b):
        muls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(fields, "find_irreducible", recording)
    monkeypatch.setattr(fields.ExtensionField, "__init__", recording_init)
    monkeypatch.setattr(fields.ExtensionField, "mul", counting_mul)

    def solve(inp, p, mode):
        seen.clear()
        built.clear()
        muls[0] = 0
        if mode == "det":
            reconstruct.reconstruct_deterministic(inp, p)
        else:
            params = reconstruct.select_params(inp, epsilon=0.1, seed=1)
            reconstruct.reconstruct_montecarlo(inp, p, params)

    # points of F_p run over F_p itself: no extension, not even of degree 1
    for inp, p, mode in ((det_op, 1019, "det"), (det_sys, 263, "det"),
                           (mc_op, 2003, "mc")):
        solve(inp, p, mode)
        assert seen == [1], (p, seen)
        assert (len(built), muls[0]) == (0, 0), (p, mode)
    solve(order3, 5, "det")
    assert seen and max(seen) <= 2, seen
    # the batch's product ring F_25[z]/(m) is built too, but m is reducible
    extensions = [L for L in built if fields.is_irreducible(L.base, L.modulus)]
    assert extensions and max(L.degree for L in extensions) <= 2


def test_bench_solve_classifies_by_cyclic_vectors_and_one_crt_basis(
        monkeypatch):
    # det on the workload operator at p = 1019: each of the 29 corners is
    # cyclic, so no Smith form runs, and the moduli's CRT basis is built
    # once for all coefficients of the factors
    calls = {"smith_form": 0, "crt_basis": 0, "interpolate_crt": 0}
    for module, name in ((linalg, "smith_form"), (polys, "crt_basis"),
                         (polys, "interpolate_crt")):
        def counting(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", fields.PrimeField(1019))
    got = reconstruct.reconstruct_deterministic(op, 1019)
    assert _fmt(op.K, got) == ["1", "T^2 + 4*X^2 + 4"]
    assert calls == {"smith_form": 0, "crt_basis": 1, "interpolate_crt": 0}
