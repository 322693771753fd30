import copy
import random

import pytest

from pcurvature import (bivar, cli, diffop, extension, fields, interp,
                        linalg, local_eval, polys, reconstruct, smith)
from pcurvature.errors import (CharTooSmall, EpsilonOutOfRange,
                               FieldMismatch, PoleAtPoint, SelectionFailed)
from pcurvature.reconstruct import ReconParams
from oracles import (block_sum, evaluate_at_X, sym2_gauss_system,
                     sym2_system, symk_system, verify_divisibility_lemma)
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


def _is_cyclic(local_class):
    """r - 1 ones before the last factor (the factors are monic)."""
    return all(len(g) == 1 for g in local_class[:-1])


class _Record:
    """The draws, the evaluated batches as (points, local classes) pairs
    and the rings of the matrix factorials since the last clear(),
    recorded by wrapping the sampler, the local evaluation and the
    factorial."""

    def __init__(self, monkeypatch):
        self.clear()
        sample = reconstruct._sample_degree_s
        evaluate = local_eval.invariant_factors_at
        factorial = linalg.matrix_factorial

        def recording_sample(*args):
            a = sample(*args)
            self.draws.append(a)
            return a

        def recording_evaluate(inp, ell, points):
            classes = evaluate(inp, ell, points)
            self.batches.append((list(points), classes))
            return classes

        def recording_factorial(ring, *args):
            self.rings.append(ring)
            return factorial(ring, *args)

        monkeypatch.setattr(reconstruct, "_sample_degree_s", recording_sample)
        monkeypatch.setattr(local_eval, "invariant_factors_at",
                            recording_evaluate)
        monkeypatch.setattr(linalg, "matrix_factorial", recording_factorial)

    def clear(self):
        self.draws, self.batches, self.rings = [], [], []

    @property
    def factorials(self):
        return len(self.rings)

    @property
    def certified(self):
        """Whether every local class of the first batch is cyclic."""
        return all(map(_is_cyclic, self.batches[0][1]))

    @property
    def evaluated(self):
        return [a for points, _ in self.batches for a in points]

    @property
    def points(self):
        """The points of each batch."""
        return [points for points, _ in self.batches]


def _fail_the_pass(monkeypatch):
    """Make every local class count as not cyclic, so that the certified
    pass never certifies and the driver's fallback runs."""
    monkeypatch.setattr(reconstruct, "_cyclic", lambda fs: False)


def _montecarlo_runs(monkeypatch, inp, p, epsilon, seeds):
    """Formatted output and a copy of the _Record per seed."""
    record = _Record(monkeypatch)
    out = {}
    for seed in seeds:
        record.clear()
        params = reconstruct.select_params(inp, epsilon=epsilon, seed=seed)
        got = _fmt(inp.K, reconstruct.reconstruct_montecarlo(inp, p, params))
        out[seed] = (got, copy.copy(record))
    return out


def _fallback_system(p):
    """f_A = x^2 + 1 and A~ = diag(x, x) over F_p: factors (T, T), so no
    local class is cyclic."""
    K = fields.PrimeField(p)
    x = (K.zero, K.one)
    return diffop.DiffSystem(K, (K.one, K.zero, K.one), ((x, ()), ((), x)))


def test_montecarlo_pinned_seed_for_seed(monkeypatch):
    # a certified pass draws nothing and evaluates the first D + 1 = 5
    # non-pole points of K: x^2 + x + 1 and x^2 + 1 have no root mod 11 or
    # mod 103, so these are 0, ..., 4
    runs = _montecarlo_runs(monkeypatch, OP22, 11, 0.2, range(50))
    for seed, (got, record) in runs.items():
        assert got == OP22_FACTORS, seed
        assert record.certified, seed
        assert record.draws == [], seed
        assert record.points == [list(range(5))], seed
    for inp in (L103, diffop.companion_of_operator(L103)):
        runs = _montecarlo_runs(monkeypatch, inp, 103, 0.1, range(1, 11))
        for seed, (got, record) in runs.items():
            assert got == L103_FACTORS, seed
            assert record.certified, seed
            assert record.draws == [], seed
            assert record.points == [list(range(5))], seed
    # diag(x, x) has no cyclic class: the pass, then the distinct draws
    # outside it (points of degree 3 here, none of them in the pass)
    sysv = _fallback_system(31)
    want = _fmt(sysv.K, diffop.naive_invariant_factors(sysv, 31))
    runs = _montecarlo_runs(monkeypatch, sysv, 31, 0.1, range(5))
    for seed, (got, record) in runs.items():
        assert got == want, seed
        assert not record.certified, seed
        outside = [a for a in dict.fromkeys(record.draws) if a not in range(5)]
        assert outside and record.points == [list(range(5)), outside], seed
    # past a pass that fails, OP22's draws are the pinned ones, draw for
    # draw, and all of them are evaluated after the pass
    _fail_the_pass(monkeypatch)
    runs = _montecarlo_runs(monkeypatch, OP22, 11, 0.2, OP22_POINTS)
    for seed, (got, record) in runs.items():
        assert got == OP22_FACTORS, seed
        assert record.draws == OP22_POINTS[seed], seed
        assert record.points == [list(range(5)), OP22_POINTS[seed]], seed


def test_montecarlo_makes_one_factorial_per_solve(monkeypatch):
    # one factorial on the D + 1 points of the pass when they are
    # certified, else one more for the draws, with no point evaluated twice
    for inp, p, epsilon in ((OP22, 11, 0.2), (L103, 103, 0.1),
                            (_fallback_system(31), 31, 0.1)):
        plan = reconstruct.effective_params(
            inp, reconstruct.select_params(inp, epsilon=epsilon))
        runs = _montecarlo_runs(monkeypatch, inp, p, epsilon, range(5))
        for seed, (_, record) in runs.items():
            points = record.evaluated
            assert len(set(points)) == len(points), seed
            if record.certified:
                assert record.factorials == 1, seed
                assert len(points) == plan.D + 1, seed
            else:
                assert record.factorials == 2, seed
                assert len(points) <= plan.D + 1 + plan.K, seed


def test_montecarlo_fallback_evaluates_each_distinct_draw_once(monkeypatch):
    # 12 draws from the 31 points of F_31 repeat some; after the pass on
    # 0, ..., 4, the fallback batch takes every distinct draw outside it
    sysv = _fallback_system(31)
    want = diffop.naive_invariant_factors(sysv, 31)
    record = _Record(monkeypatch)
    repeated = 0
    for seed in range(5):
        record.clear()
        params = ReconParams(D=4, F=24, mode="montecarlo", epsilon=0.5,
                             s=1, K=12, k_sel=5, seed=seed)
        assert reconstruct.reconstruct_montecarlo(sysv, 31, params) == want
        distinct = list(dict.fromkeys(record.draws))
        assert len(record.draws) == 12
        assert record.points == [
            list(range(5)), [a for a in distinct if a not in range(5)]], seed
        assert record.factorials == 2
        repeated += len(distinct) < 12
    assert repeated


def test_montecarlo_refuses_a_deterministic_plan():
    with pytest.raises(ValueError, match="montecarlo"):
        reconstruct.reconstruct_montecarlo(
            OP22, 11, reconstruct.select_params(OP22))


def test_montecarlo_pole_exhaustion_fails_cleanly(monkeypatch):
    # every degree-1 point of F_3 is a pole of x(x+1)(x+2); a 1 x 1 class
    # is always cyclic, so the pass (on a point of degree 2) is failed by
    # hand to reach the draws
    fA = (F3.zero, F3.from_int(2), F3.zero, F3.one)
    sysv = diffop.DiffSystem(F3, fA, (((F3.one,),),))
    params = ReconParams(D=1, F=1, mode="montecarlo", epsilon=0.5,
                         s=1, K=2, k_sel=2, seed=0)
    _fail_the_pass(monkeypatch)
    with pytest.raises(SelectionFailed, match="poles"):
        reconstruct.reconstruct_montecarlo(sysv, 3, params)


def test_montecarlo_degree_overflow_fails_cleanly(monkeypatch):
    # true coefficient has X-degree 2; forcing D = 1 must be detected once
    # k_sel = 3 draws are glued (the pass glues D + 1 = 2 points, which
    # cannot see it, so it is failed by hand)
    sysv = diffop.DiffSystem(F5, (F5.one,),
                             (((F5.zero, F5.zero, F5.one),),))
    assert _fmt(F5, diffop.naive_invariant_factors(sysv, 5)) == ["T + X^2"]
    params = ReconParams(D=1, F=1, mode="montecarlo", epsilon=0.5,
                         s=1, K=6, k_sel=3, seed=2)
    _fail_the_pass(monkeypatch)
    with pytest.raises(SelectionFailed, match="degree bound"):
        reconstruct.reconstruct_montecarlo(sysv, 5, params)


def test_verify_divisibility_lemma_random_points(rng):
    checked = 0
    for _ in range(10):
        if rng.random() < 0.5:
            inp = random_operator(F5, rng, rng.randint(0, 2),
                                  rng.randint(1, 2))
            lead = inp.coeffs[-1]
        else:
            inp = random_system(F5, rng, rng.randint(0, 2),
                                rng.randint(1, 2))
            lead = list(inp.f_A)
        a = F5.from_int(rng.randrange(5))
        if polys.eval_at(F5, lead, a) == F5.zero:
            continue
        assert verify_divisibility_lemma(inp, 5, F5, a)
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
    assert verify_divisibility_lemma(sysv, p, F5, F5.zero)


def test_verify_divisibility_lemma_rejects_poles():
    sysv = diffop.DiffSystem(F5, (F5.zero, F5.one), (((F5.one,),),))
    with pytest.raises(PoleAtPoint):
        verify_divisibility_lemma(sysv, 5, F5, F5.zero)


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


def test_characteristic_mismatch_raises():
    # both drivers take p as the characteristic of the input's field
    L = _op(F5, (1,), (1,))
    with pytest.raises(ValueError):
        reconstruct.reconstruct_deterministic(L, 7)
    with pytest.raises(ValueError):
        reconstruct.reconstruct_montecarlo(
            L, 7, reconstruct.select_params(L, epsilon=0.1, seed=1))


@pytest.mark.parametrize("p, top, bottom, bad", BAD_CANDIDATES)
def test_deterministic_skips_bad_candidates(p, top, bottom, bad):
    K = fields.PrimeField(p)
    sysv = _diag_system(K, top, bottom)
    local = reconstruct._scaled_local_factors(sysv, K, [bad])[0]
    assert [bivar.deg_T(g) for g in local] == [1, 1]
    want = diffop.naive_invariant_factors(sysv, p)
    assert [bivar.deg_T(g) for g in want] == [0, 2]
    assert reconstruct.reconstruct_deterministic(sysv, p) == want


@pytest.mark.parametrize("p", [31, 37])
def test_sym2_gauss_matches_the_oracle(p):
    # the application's shape, never cyclic: det's budget runs 126
    # points of degree 2 in one batch, and mc draws 10 of degree 3; both
    # glue the O(p) oracle's factors
    sysv = sym2_gauss_system(fields.PrimeField(p))
    want = diffop.naive_invariant_factors(sysv, p)
    assert [bivar.deg_T(g) for g in want] == [0, 0, 0, 2, 3]
    assert reconstruct.reconstruct_deterministic(sysv, p) == want
    plan = reconstruct.select_params(sysv, epsilon=0.1, seed=1)
    assert reconstruct.reconstruct_montecarlo(sysv, p, plan) == want


def test_repeated_solves_repeat_their_work(monkeypatch):
    # no module keeps state from one solve for the next: a second det
    # solve of sym2 + Gauss at 31 searches its irreducible of degree 2
    # again, and each lift eliminates again (its powers of the point are
    # ell products)
    counts = {"irreducible": 0, "lift": 0, "mul": 0, "lift mul": 0}
    test, lift = fields.is_irreducible, interp.lift_from_extension_value
    mul = extension.ExtensionField.mul

    def counting_test(K, f):
        counts["irreducible"] += 1
        return test(K, f)

    def counting_mul(self, a, b):
        counts["mul"] += 1
        return mul(self, a, b)

    def counting_lift(*args):
        before = counts["mul"]
        out = lift(*args)
        counts["lift"] += 1
        counts["lift mul"] += counts["mul"] - before
        return out

    monkeypatch.setattr(fields, "is_irreducible", counting_test)
    monkeypatch.setattr(extension.ExtensionField, "mul", counting_mul)
    monkeypatch.setattr(interp, "lift_from_extension_value", counting_lift)
    sysv = sym2_gauss_system(fields.PrimeField(31))
    runs = []
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        factors = reconstruct.reconstruct_deterministic(sysv, 31)
        runs.append((factors, dict(counts)))
    assert runs[0] == runs[1]
    assert min(runs[0][1].values()) > 0


def test_symk_system_extends_sym2_and_gauss():
    # Sym^k of the Gauss system from the product rule: Sym^1 is the Gauss
    # system, Sym^2 the hand-written sym2_system, and their block sum
    # the application's input
    K = fields.PrimeField(31)
    quarter = K.inv(K.from_int(4))
    gauss = ((), (0, 1, 30)), ((quarter,), (30, 2))
    assert symk_system(K, 1) == diffop.DiffSystem(K, (0, 1, 30), gauss)
    assert symk_system(K, 2) == sym2_system(K)
    assert block_sum(symk_system(K, 2), symk_system(K, 1)) == (
        sym2_gauss_system(K))
    assert symk_system(K, 5).size == 6


@pytest.mark.parametrize("k, p, degrees", [(3, 31, [0] * 4 + [2, 4]),
                                           (5, 37, [0] * 6 + [2, 6])],
                         ids=["sym3-gauss-31", "sym5-gauss-37"])
def test_symk_gauss_matches_the_oracle(k, p, degrees):
    # Sym^k + Gauss at r = 6 and 8, toward the paper's order and never
    # cyclic: det and mc glue the O(p) oracle's factors
    K = fields.PrimeField(p)
    sysv = block_sum(symk_system(K, k), symk_system(K, 1))
    want = diffop.naive_invariant_factors(sysv, p)
    assert [bivar.deg_T(g) for g in want] == degrees
    assert reconstruct.reconstruct_deterministic(sysv, p) == want
    plan = reconstruct.select_params(sysv, epsilon=0.1, seed=1)
    assert reconstruct.reconstruct_montecarlo(sysv, p, plan) == want


def test_deterministic_builds_no_large_extension(monkeypatch):
    F263, F1019 = fields.PrimeField(263), fields.PrimeField(1019)
    F2003 = fields.PrimeField(2003)
    det_op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", F1019)
    mc_op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", F2003)
    m1 = F263.from_int(-1)
    det_sys = diffop.DiffSystem(F263, (1, 0, 1),
                                (((), (1, 0, 1)), ((m1,), (0, m1))))
    seen, built, muls = [], [], [0]
    find = fields.find_irreducible
    init, mul = extension.ExtensionField.__init__, extension.ExtensionField.mul

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
    monkeypatch.setattr(extension.ExtensionField, "__init__", recording_init)
    monkeypatch.setattr(extension.ExtensionField, "mul", counting_mul)

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


def test_degree_two_batches_build_only_their_point_field(monkeypatch):
    # det on diag(x, x) at p = 11, whose budget evaluates 15 points of
    # degree 2, and mc on sym2 + Gauss at p = 101, which draws 15: each
    # batch runs in value form over the field of its points, and the only
    # ExtensionField built is that field, of the points' degree
    record = _Record(monkeypatch)
    degrees = []
    init = extension.ExtensionField.__init__

    def recording_init(self, base, modulus):
        init(self, base, modulus)
        degrees.append(self.degree)
    monkeypatch.setattr(extension.ExtensionField, "__init__", recording_init)
    sym2_gauss = sym2_gauss_system(fields.PrimeField(101))
    plan = reconstruct.select_params(sym2_gauss, epsilon=0.1, seed=1)
    for solve in (
            lambda: reconstruct.reconstruct_deterministic(
                _fallback_system(11), 11),
            lambda: reconstruct.reconstruct_montecarlo(sym2_gauss, 101,
                                                       plan)):
        record.clear()
        degrees.clear()
        solve()
        assert [R.field.degree for R in record.rings] == [1, 2]
        assert [len(points) for points, _ in record.batches][1] == 15
        assert set(degrees) == {2}
        assert all(type(R) is fields.SplitRing for R in record.rings)


def test_inputs_over_an_extension_field_are_refused(monkeypatch):
    # every input is over F_p: both drivers and the local evaluation
    # refuse an operator over F_25, before any product ring is built
    F25 = extension.ExtensionField(F5, fields.find_irreducible(F5, 2))
    op = cli.parse_operator("Dx^3 + -(4 + x^2)*Dx^1 + -(3+x^2)", F25)
    plan = reconstruct.select_params(op, epsilon=0.1, seed=1)
    built = []
    init = extension.ExtensionField.__init__

    def recording_init(self, base, modulus):
        built.append(modulus)
        init(self, base, modulus)
    monkeypatch.setattr(extension.ExtensionField, "__init__", recording_init)
    monkeypatch.setattr(fields, "SplitRing", lambda *args: built.append(args))
    for solve in (lambda: reconstruct.reconstruct_deterministic(op, 5),
                  lambda: reconstruct.reconstruct_montecarlo(op, 5, plan),
                  lambda: local_eval.invariant_factors_at(op, F25,
                                                          [F25.gen])):
        with pytest.raises(FieldMismatch):
            solve()
    assert built == []


def test_bench_solve_classifies_by_cyclic_vectors_and_one_crt_basis(
        monkeypatch):
    # det on the workload operator at p = 1019: each of the 5 corners it
    # evaluates is cyclic, so no Smith form runs, and the moduli's CRT
    # basis is built once for all coefficients of the factors
    calls = {"smith_form": 0, "crt_basis": 0, "interpolate_crt": 0}
    for module, name in ((smith, "smith_form"), (polys, "crt_basis"),
                         (polys, "interpolate_crt")):
        def counting(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", fields.PrimeField(1019))
    got = reconstruct.reconstruct_deterministic(op, 1019)
    assert _fmt(op.K, got) == ["1", "T^2 + 4*X^2 + 4"]
    assert calls == {"smith_form": 0, "crt_basis": 1, "interpolate_crt": 0}


def test_bench_solves_evaluate_k_sel_certified_points(monkeypatch):
    # the bench's three solves: every local class of the first k_sel = 5
    # points is cyclic, so one batch of 5 points and one factorial serve,
    # where the budget and the sample count are 29 and 12
    text = "(x^2+1)*Dx^2 + x*Dx + 1"
    det_op = cli.parse_operator(text, fields.PrimeField(1019))
    det_sys = diffop.companion_of_operator(
        cli.parse_operator(text, fields.PrimeField(263)))
    mc_op = cli.parse_operator(text, fields.PrimeField(2003))
    record = _Record(monkeypatch)
    solves = [(det_op, 1019, None), (det_sys, 263, None)]
    solves += [(mc_op, 2003, seed) for seed in range(1, 6)]
    for inp, p, seed in solves:
        record.clear()
        if seed is None:
            got = reconstruct.reconstruct_deterministic(inp, p)
        else:
            plan = reconstruct.select_params(inp, epsilon=0.1, seed=seed)
            got = reconstruct.reconstruct_montecarlo(inp, p, plan)
        assert _fmt(inp.K, got) == ["1", "T^2 + 4*X^2 + 4"], (p, seed)
        assert [len(points) for points, _ in record.batches] == [5], (p, seed)
        assert record.factorials == 1, (p, seed)


@pytest.mark.parametrize("p, k, k_sel", [(31, 1, 5), (11, 2, 3)])
def test_deterministic_falls_back_on_non_cyclic_classes(p, k, k_sel,
                                                        monkeypatch):
    # diag(x, x) has no cyclic local class: after the pass on the first 5
    # points of F_p, every point of the budget F + D + 1 = 29 that the
    # pass did not evaluate is evaluated once, in a second factorial
    # (points of degree 2 at p = 11, 15 of them), and k_sel points glue
    sysv = _fallback_system(p)
    record = _Record(monkeypatch)
    moduli = []
    crt_basis = polys.crt_basis

    def recording_basis(K, mods, D):
        moduli.append(len(mods))
        return crt_basis(K, mods, D)

    monkeypatch.setattr(polys, "crt_basis", recording_basis)
    got = reconstruct.reconstruct_deterministic(sysv, p)
    assert got == diffop.naive_invariant_factors(sysv, p)
    n = -(-29 // k)
    first, rest = record.points
    assert first == list(range(5))
    assert len(rest) == (n - 5 if k == 1 else n)
    assert not record.certified
    assert len(set(record.evaluated)) == len(record.evaluated)
    assert record.factorials == 2
    assert moduli == [k_sel]


ORDER3 = "(x^3+x+1)*Dx^3 + x^2*Dx^2 + (x+2)*Dx + x^3"
ORDER3_FACTORS_101 = [
    "1", "1",
    "T^3 + (35*X + 53)*T^2 + (22*X^4 + 10*X^3 + 22*X^2 + 32*X + 10)*T"
    " + 100*X^9 + 44*X^7 + 91*X^6 + 91*X^5 + 74*X^4 + 29*X^3 + 84*X^2"
    " + 30*X + 93"]


def _certified_solves(monkeypatch, inp, p):
    """The formatted factors of det and of mc (epsilon 0.1, seed 1) on
    inp, each after asserting that it draws nothing, builds no
    ExtensionField and makes one factorial, over a SplitRing of the
    D + 1 points of the pass."""
    D = reconstruct.effective_params(inp, reconstruct.select_params(inp)).D
    record = _Record(monkeypatch)
    built = []
    init = extension.ExtensionField.__init__

    def recording_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(extension.ExtensionField, "__init__", recording_init)
    out = []
    for seed in (None, 1):
        record.clear()
        built.clear()
        if seed is None:
            got = reconstruct.reconstruct_deterministic(inp, p)
        else:
            plan = reconstruct.select_params(inp, epsilon=0.1, seed=seed)
            got = reconstruct.reconstruct_montecarlo(inp, p, plan)
        assert record.draws == [] and built == [], seed
        assert [(type(R), R.degree) for R in record.rings] == [
            (fields.SplitRing, D + 1)], seed
        out.append(_fmt(inp.K, got))
    return out


def test_order3_operator_certifies_on_one_split_factorial(monkeypatch):
    # D = 9 and F + D + 1 = 118 > 101: the budget would climb to points of
    # degree 2, but the 10 points of the pass are cyclic; the factors are
    # the ones the budget gave
    inp = cli.parse_operator(ORDER3, fields.PrimeField(101))
    det, mc = _certified_solves(monkeypatch, inp, 101)
    assert det == mc == ORDER3_FACTORS_101


@pytest.mark.parametrize("p", [31, 37])
def test_sym2_certifies_on_one_split_factorial(p, monkeypatch):
    # the symmetric square of the Gauss system: D = 6 and F = 72, so the
    # budget would climb past F_p and mc would draw points of degree 2,
    # but the 7 points of the pass are cyclic
    sysv = sym2_system(fields.PrimeField(p))
    want = _fmt(sysv.K, diffop.naive_invariant_factors(sysv, p))
    assert want == ["1", "1", "T^3"]
    det, mc = _certified_solves(monkeypatch, sysv, p)
    assert det == mc == want


def test_cyclic_local_classes_are_good_points():
    # at each non-pole point of F_p whose local class is cyclic, the
    # global factors at X = a^p are the scaled local ones; bad points of
    # random inputs of order 2 and degree 1 or 2 exist, and are not cyclic
    rng = random.Random(2)
    bad = 0
    for _ in range(500):
        K = rng.choice((F5, F7))
        p, d = K.char, rng.randint(1, 2)
        if rng.random() < 0.5:
            inp = random_operator(K, rng, d, 2)
            sysv = diffop.companion_of_operator(inp)
        else:
            inp = sysv = random_system(K, rng, d, 2)
        glob = diffop.naive_invariant_factors(sysv, p)
        points = [a for a in K.elements() if reconstruct._non_pole(inp, K)(a)]
        if not points:
            continue
        local = reconstruct._scaled_local_factors(inp, K, points)
        for a, fs in zip(points, local):
            ap = K.pow(a, p)
            spec = [evaluate_at_X(K, g, ap, lambda c: c) for g in glob]
            if _is_cyclic(fs):
                assert spec == fs, (inp, a)
            else:
                bad += spec != fs
    assert bad
