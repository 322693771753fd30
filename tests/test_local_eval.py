import pytest

from pcurvature import (diffop, extension, fields, linalg, local_eval, polys,
                        reconstruct, smith)
from pcurvature.errors import CharTooSmall, LeadingCoeffVanishes, PoleAtPoint
from pcurvature.ratfunc import RatFuncField
from test_diffop import (assert_frozen_record, random_operator,
                         random_system)

F3 = fields.PrimeField(3)
F5 = fields.PrimeField(5)
F7 = fields.PrimeField(7)


def naive_local_factors(inp, ell, a, p):
    """Invariant factors of A_p(a), straight from the O(p) recurrence and
    the Smith form."""
    sysv = (diffop.companion_of_operator(inp)
            if isinstance(inp, diffop.DiffOperator) else inp)
    R = RatFuncField(sysv.K)
    Ap = diffop.naive_p_curvature(sysv, p)
    emb = fields.embedding(sysv.K, ell)
    M = [[R.evaluate(e, a, ell, emb) for e in row] for row in Ap]
    return smith.smith_form(ell, smith.char_matrix(ell, M))


def _op(K, *coeffs):
    return diffop.DiffOperator(
        K, tuple(tuple(K.from_int(c) for c in cc) for cc in coeffs))


def test_zero_system_gives_T():
    sysv = diffop.DiffSystem(F5, (F5.one,), ((( ),),))
    got = local_eval.invariant_factors_at(sysv, F5, [F5.zero])
    assert got == [[[F5.zero, F5.one]]]


def test_first_order_pins():
    L = _op(F3, (2,), (1,))  # Dx - 1
    got = local_eval.invariant_factors_at(L, F3, [F3.zero])
    assert got == [[[F3.one, F3.one]]]  # T + 1

    L2 = _op(F3, (0, 2), (1,))  # Dx - x
    got2 = local_eval.invariant_factors_at(L2, F3, [F3.one])
    assert got2 == [[[F3.one, F3.one]]]  # A_p(1) = [[-1]]

    L3 = _op(F5, (0,), (1,))  # Dx
    got3 = local_eval.invariant_factors_at(L3, F5, [F5.from_int(2)])
    assert got3 == [[[F5.zero, F5.one]]]  # T


def test_recurrence_block_shapes(rng):
    sysv = random_system(F5, rng, 2, 2)
    d = sysv.degree
    rec = local_eval.build_B_system(sysv, F5, F5.from_int(_nonpole(sysv)))
    assert rec.size == (d + 1) * 2
    assert rec.corner == 2
    L = random_operator(F5, rng, 2, 2)
    rec2 = local_eval.build_B_operator(L, F5, F5.from_int(_nonpole_op(L)))
    assert rec2.size == L.degree + 2
    assert rec2.corner == 2
    assert_frozen_record(rec2)
    entries, corner = rec2
    assert (len(entries), corner) == (rec2.size, 2)


def _nonpole(sysv):
    K = sysv.K
    for c in range(K.q):
        if polys.eval_at(K, list(sysv.f_A), K.from_int(c)) != K.zero:
            return c
    raise AssertionError("no non-pole point")


def _nonpole_op(L):
    K = L.K
    for c in range(K.q):
        if polys.eval_at(K, L.coeffs[-1], K.from_int(c)) != K.zero:
            return c
    raise AssertionError("no non-pole point")


def test_pole_raises():
    sysv = diffop.DiffSystem(F5, (F5.zero, F5.one), (((F5.one,),),))
    with pytest.raises(PoleAtPoint):
        local_eval.invariant_factors_at(sysv, F5, [F5.zero])


def test_char_too_small_raises():
    L = _op(F3, (1,), (0,), (0,), (1,))  # order 3 at p = 3
    with pytest.raises(CharTooSmall):
        local_eval.invariant_factors_at(L, F3, [F3.zero])


def test_local_factors_match_naive_in_prime_field(rng):
    for p, K in ((5, F5), (7, F7)):
        for _ in range(6):
            if rng.random() < 0.5:
                inp = random_operator(K, rng, rng.randint(0, 2),
                                      rng.randint(1, 2))
                a = K.from_int(_nonpole_op(inp))
            else:
                inp = random_system(K, rng, rng.randint(0, 2),
                                    rng.randint(1, 2))
                a = K.from_int(_nonpole(inp))
            [got] = local_eval.invariant_factors_at(inp, K, [a])
            want = naive_local_factors(inp, K, a, p)
            assert got == want


def test_local_factors_match_naive_in_extension(rng):
    ell = extension.ExtensionField(F5, fields.find_irreducible(F5, 2))
    a = ell.gen
    for _ in range(6):
        if rng.random() < 0.5:
            inp = random_operator(F5, rng, rng.randint(0, 2),
                                  rng.randint(1, 2))
            lead = [ell.embed(c) for c in inp.coeffs[-1]]
        else:
            inp = random_system(F5, rng, rng.randint(0, 2),
                                rng.randint(1, 2))
            lead = [ell.embed(c) for c in inp.f_A]
        if polys.eval_at(ell, lead, a) == ell.zero:
            continue
        [got] = local_eval.invariant_factors_at(inp, ell, [a])
        want = naive_local_factors(inp, ell, a, 5)
        assert got == want


def test_operator_and_companion_system_paths_agree(rng):
    for _ in range(8):
        L = random_operator(F7, rng, rng.randint(0, 2), rng.randint(1, 2))
        a = F7.from_int(_nonpole_op(L))
        via_op = local_eval.invariant_factors_at(L, F7, [a])
        via_sys = local_eval.invariant_factors_at(
            diffop.companion_of_operator(L), F7, [a])
        assert via_op == via_sys


def _leading_of(inp):
    return inp.f_A if isinstance(inp, diffop.DiffSystem) else inp.coeffs[-1]


def _nonpoles(inp, ell, rng, s, count):
    """count random points of degree exactly s in ell, none a pole."""
    emb = fields.embedding(inp.K, ell)
    lead = [emb(c) for c in _leading_of(inp)]
    out = []
    while len(out) < count:
        a = ell.random_elem(rng)
        if (len(fields.frobenius_orbit(ell, a, inp.K.q)) == s
                and polys.eval_at(ell, lead, a) != ell.zero):
            out.append(a)
    return out


@pytest.mark.parametrize("s", [1, 2, 3])
def test_batch_matches_per_point_calls(rng, s):
    # at p = 89 the factorial's 8 giant steps go through a subproduct tree
    K = fields.PrimeField(89)
    ell = extension.ExtensionField(K, fields.find_irreducible(K, s))
    q = K.q
    for inp in (random_operator(K, rng, 2, 2), random_system(K, rng, 1, 2)):
        a, b, c = _nonpoles(inp, ell, rng, s, 3)
        batches = [[a, b, c], [a, b, a, a], [b, c, b]]
        if s > 1:
            batches.append([a, ell.pow(a, q), b, ell.pow(b, q * q)])
        # single points run on the batch engine too: hold the first point
        # of each batch against the O(p) oracle
        naive = {x: naive_local_factors(inp, ell, x, 89) for x in (a, b)}
        for pts in batches:
            single = [local_eval.invariant_factors_at(inp, ell, [x])[0]
                      for x in pts]
            assert local_eval.invariant_factors_at(inp, ell, pts) == single
            assert single[0] == naive[pts[0]]


def test_batch_in_the_prime_field_matches_naive(rng):
    for inp in (random_operator(F7, rng, 2, 2), random_system(F7, rng, 1, 2)):
        pts = [x for x in (F7.from_int(c) for c in range(7))
               if polys.eval_at(F7, _leading_of(inp), x) != F7.zero]
        got = local_eval.invariant_factors_at(inp, F7, pts + pts[:1])
        assert got == [naive_local_factors(inp, F7, x, 7)
                       for x in pts + pts[:1]]


def test_pole_inside_a_batch_raises_the_one_point_error():
    # a_r = x(x - 1) vanishes at 0 and 1; f_A likewise for the system
    F49 = extension.ExtensionField(F7, fields.find_irreducible(F7, 2))
    lead = (F7.zero, F7.from_int(-1), F7.one)
    L = diffop.DiffOperator(F7, ((F7.one,), lead))
    sysv = diffop.DiffSystem(F7, lead, (((F7.one,),),))
    poles = ((L, LeadingCoeffVanishes), (sysv, PoleAtPoint))
    # order 3 over F_3 with a_3 = x: p <= r comes before the pole at 0
    L3 = _op(F3, (1,), (0,), (0,), (0, 1))
    small = ((L3, CharTooSmall),
             (diffop.companion_of_operator(L3), CharTooSmall))
    # a point of degree 2 in the batch, then batches of F_7 and F_3 (split)
    for ell, pts, pole, cases in (
            (F49, [F49.gen, F49.one, F49.from_int(3)], F49.one, poles),
            (F7, [F7.from_int(2), F7.one, F7.from_int(3)], F7.one, poles),
            (F3, [F3.one, F3.zero, F3.from_int(2)], F3.zero, small)):
        for inp, err in cases:
            with pytest.raises(err):
                local_eval.invariant_factors_at(inp, ell, [pole])
            with pytest.raises(err):
                local_eval.invariant_factors_at(inp, ell, pts)


def test_split_batch_is_never_reduced_mod_the_modulus(monkeypatch, rng):
    # points of F_89, F_89^1 and F_89^2, some repeated, run in value form
    # over their own field ell: no ring of the batch is built as an
    # ExtensionField, so no product is reduced by (z - a_1)...(z - a_n),
    # and only ell reduces products, its own and the batch's
    K = fields.PrimeField(89)
    inputs = (random_operator(K, rng, 2, 2), random_system(K, rng, 1, 2))
    init = extension.ExtensionField.__init__
    reducers = [getattr(extension.ExtensionField, name)
                for name in ("reduce", "reduce_blocks")]
    for ell in (K, extension.ExtensionField(K, fields.find_irreducible(K, 1)),
                extension.ExtensionField(K, fields.find_irreducible(K, 2))):
        batches = [_nonpoles(inp, ell, rng, ell.degree, 3) for inp in inputs]
        batches = [pts + pts[::2] for pts in batches]
        single = [[local_eval.invariant_factors_at(inp, ell, [x])[0]
                   for x in pts] for inp, pts in zip(inputs, batches)]
        built = []

        def recording(self, *args):
            built.append(args)
            init(self, *args)
        monkeypatch.setattr(extension.ExtensionField, "__init__", recording)
        for reduce in reducers:
            def only_in_ell(self, c, reduce=reduce):
                assert self == ell, "reduced a product of the batch ring"
                return reduce(self, c)
            monkeypatch.setattr(extension.ExtensionField, reduce.__name__,
                                only_in_ell)
        for inp, pts, want in zip(inputs, batches, single):
            assert local_eval.invariant_factors_at(inp, ell, pts) == want
        monkeypatch.undo()
        assert built == [], ell


def test_empty_batch_is_refused():
    with pytest.raises(ValueError):
        local_eval.invariant_factors_at(_op(F5, (1,), (1,)), F5, [])


def _c07_operator(K):
    """(x^2 + 1) Dx^2 + x Dx + 1, the operator of acceptance criterion 7."""
    return diffop.DiffOperator(K, ((K.one,), (K.zero, K.one),
                                   (K.one, K.zero, K.one)))


def _factorial_calls(p, name, monkeypatch):
    """Calls of linalg.<name> in one local evaluation of the c07 operator."""
    K = fields.PrimeField(p)
    op = _c07_operator(K)
    calls = [0]
    fn = getattr(linalg, name)

    def counting(*args):
        calls[0] += 1
        return fn(*args)
    monkeypatch.setattr(linalg, name, counting)
    local_eval.invariant_factors_at(op, K, [K.from_int(2)])
    monkeypatch.undo()
    return calls[0]


def test_baby_steps_double_and_leave_few_factors(monkeypatch):
    # log2(s) polynomial-matrix products at p = 10007 (s = 64), and one
    # leftover evaluation (one _chain_at call) per set bit of p mod s at
    # p = 1019 (s = 16, 1019 mod 16 = 11: three)
    s = linalg.baby_step_length(10007)
    products = _factorial_calls(10007, "matpoly_mul", monkeypatch)
    assert products == s.bit_length() - 1, (s, products)
    leftover = 1019 % linalg.baby_step_length(1019)
    calls = _factorial_calls(1019, "_chain_at", monkeypatch)
    assert calls == leftover.bit_count() == 3


def _value_count(monkeypatch, run):
    """Values the split ring's kernels unpack or produce (the chain of the
    giant steps its degree per output entry of each step), plus the
    multiply-adds of the multipoint evaluation's direct step (a row's
    length per row and point), while run() runs."""
    count = [0]
    unpack_bytes, chain = fields._unpack_bytes, fields.SplitRing.chain
    rows_at = fields.SplitRing.rows_at

    def unpacking(buf, slot):
        count[0] += len(buf) // slot
        return unpack_bytes(buf, slot)

    def producing(self, pattern, steps, acc):
        steps = list(steps)
        count[0] += self.degree * len(steps) * len(pattern) * len(acc[0])
        return chain(self, pattern, steps, acc)

    def direct(self, cols, points):
        count[0] += len(cols) * len(cols[0]) * len(points)
        return rows_at(self, cols, points)
    monkeypatch.setattr(fields, "_unpack_bytes", unpacking)
    monkeypatch.setattr(fields.SplitRing, "chain", producing)
    monkeypatch.setattr(fields.SplitRing, "rows_at", direct)
    try:
        run()
    finally:
        monkeypatch.undo()
    return count[0]


def _split_batch_count(p, monkeypatch):
    """_value_count of one batch of eight points of F_p on the c07
    operator."""
    K = fields.PrimeField(p)
    op = _c07_operator(K)
    return _value_count(monkeypatch, lambda: local_eval.invariant_factors_at(
        op, K, [K.from_int(a) for a in range(2, 10)]))


def _one_point_count(p, monkeypatch):
    """_value_count of one point of F_p on the c07 operator."""
    K = fields.PrimeField(p)
    op = _c07_operator(K)
    return _value_count(monkeypatch, lambda: local_eval.invariant_factors_at(
        op, K, [K.from_int(2)]))


def test_one_point_count_grows_like_sqrt_p(monkeypatch):
    # a single point runs on its one-root split ring, whose baby steps,
    # multipoint evaluation and giant steps are counted in values;
    # quadrupling p doubles sqrt(p), and a linear algorithm would give 4x
    small = _one_point_count(10007, monkeypatch)
    large = _one_point_count(40009, monkeypatch)
    assert _one_point_count(10007, monkeypatch) == small
    assert large <= 2.5 * small, (small, large)


def test_split_batch_count_grows_like_sqrt_p(monkeypatch):
    # baby steps, multipoint evaluation and giant steps of the batched
    # factorial, counted in values; a linear algorithm would give 4x
    small = _split_batch_count(10007, monkeypatch)
    large = _split_batch_count(40009, monkeypatch)
    assert large <= 2.5 * small, (small, large)


def _driver_counts(p, monkeypatch):
    """_value_count of the det and the mc driver (seed 7) on the c07
    operator over F_p."""
    K = fields.PrimeField(p)
    op = _c07_operator(K)
    plan = reconstruct.select_params(op, epsilon=0.1, seed=7)
    return (_value_count(monkeypatch, lambda: (
                reconstruct.reconstruct_deterministic(op, p))),
            _value_count(monkeypatch, lambda: (
                reconstruct.reconstruct_montecarlo(op, p, plan))))


def test_whole_driver_count_grows_like_sqrt_p(monkeypatch):
    # both drivers end to end, with no clock: 4x p doubles sqrt(p), and a
    # linear algorithm would give 4x.  Each evaluates one batch of its
    # k_sel = 5 certified points, and both read 2.16x
    small = _driver_counts(65539, monkeypatch)
    large = _driver_counts(262147, monkeypatch)
    for driver, a, b in zip(("det", "mc"), small, large):
        assert b <= 2.5 * a, (driver, a, b)
