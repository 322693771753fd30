import pytest

from pcurvature import diffop, fields, linalg, local_eval, polys
from pcurvature.errors import CharTooSmall, LeadingCoeffVanishes, PoleAtPoint
from pcurvature.ratfunc import RatFuncField
from oracles import CountingPrimeField
from test_diffop import random_operator, random_system

F3 = fields.PrimeField(3)
F5 = fields.PrimeField(5)
F7 = fields.PrimeField(7)


def naive_local_factors(inp, ell, a, p):
    """Invariant factors of A_p(a), straight from the O(p) recurrence."""
    sysv = (diffop.companion_of_operator(inp)
            if isinstance(inp, diffop.DiffOperator) else inp)
    R = RatFuncField(sysv.K)
    Ap = diffop.naive_p_curvature(sysv, p)
    emb = fields.embedding(sysv.K, ell)
    M = [[R.evaluate(e, a, ell, emb) for e in row] for row in Ap]
    return linalg.invariant_factors_of(ell, M)


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


def _nonpole(sysv):
    K = sysv.K
    for c in range(K.q):
        if polys.eval_at(K, list(sysv.f_A), K.from_int(c)) != K.zero:
            return c
    raise AssertionError("no non-pole point")


def _nonpole_op(L):
    K = L.K
    for c in range(K.q):
        if polys.eval_at(K, L.leading, K.from_int(c)) != K.zero:
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


def test_characteristic_mismatch_raises():
    L = _op(F5, (1,), (1,))
    with pytest.raises(ValueError):
        local_eval.invariant_factors_at(L, F5, [F5.zero], p=7)


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
            [got] = local_eval.invariant_factors_at(inp, K, [a], p)
            want = naive_local_factors(inp, K, a, p)
            assert got == want


def test_local_factors_match_naive_in_extension(rng):
    ell = fields.ExtensionField(F5, fields.find_irreducible(F5, 2))
    a = ell.gen
    for _ in range(6):
        if rng.random() < 0.5:
            inp = random_operator(F5, rng, rng.randint(0, 2),
                                  rng.randint(1, 2))
            lead = [ell.embed(c) for c in inp.leading]
        else:
            inp = random_system(F5, rng, rng.randint(0, 2),
                                rng.randint(1, 2))
            lead = [ell.embed(c) for c in inp.f_A]
        if polys.eval_at(ell, lead, a) == ell.zero:
            continue
        [got] = local_eval.invariant_factors_at(inp, ell, [a], 5)
        want = naive_local_factors(inp, ell, a, 5)
        assert got == want


def test_operator_and_companion_system_paths_agree(rng):
    for _ in range(8):
        L = random_operator(F7, rng, rng.randint(0, 2), rng.randint(1, 2))
        a = F7.from_int(_nonpole_op(L))
        via_op = local_eval.invariant_factors_at(L, F7, [a], 7)
        via_sys = local_eval.invariant_factors_at(
            diffop.companion_of_operator(L), F7, [a], 7)
        assert via_op == via_sys


def _leading_of(inp):
    return list(inp.f_A) if isinstance(inp, diffop.DiffSystem) else inp.leading


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
    ell = fields.ExtensionField(K, fields.find_irreducible(K, s))
    q = K.q
    for inp in (random_operator(K, rng, 2, 2), random_system(K, rng, 1, 2)):
        a, b, c = _nonpoles(inp, ell, rng, s, 3)
        batches = [[a, b, c], [a, b, a, a], [b, c, b]]
        if s > 1:
            batches.append([a, ell.pow(a, q), b, ell.pow(b, q * q)])
        for pts in batches:
            single = [local_eval.invariant_factors_at(inp, ell, [x])[0]
                      for x in pts]
            assert local_eval.invariant_factors_at(inp, ell, pts) == single


def test_batch_in_the_prime_field_matches_naive(rng):
    for inp in (random_operator(F7, rng, 2, 2), random_system(F7, rng, 1, 2)):
        pts = [x for x in (F7.from_int(c) for c in range(7))
               if polys.eval_at(F7, _leading_of(inp), x) != F7.zero]
        got = local_eval.invariant_factors_at(inp, F7, pts + pts[:1], 7)
        assert got == [naive_local_factors(inp, F7, x, 7)
                       for x in pts + pts[:1]]


def test_batch_over_an_extension_base(rng):
    # inputs over F_9, points in F_81: the product ring has base F_9
    F9 = fields.ExtensionField(F3, fields.find_irreducible(F3, 2))
    ell = fields.ExtensionField(F9, fields.find_irreducible(F9, 2))
    for inp in (random_operator(F9, rng, 1, 2), random_system(F9, rng, 1, 2)):
        a, b = _nonpoles(inp, ell, rng, 2, 2)
        for pts in ([a, b], [a, ell.pow(a, 9), b, b]):
            single = [local_eval.invariant_factors_at(inp, ell, [x])[0]
                      for x in pts]
            assert local_eval.invariant_factors_at(inp, ell, pts) == single
            assert single[0] == naive_local_factors(inp, ell, a, 3)


def test_pole_inside_a_batch_raises_the_one_point_error():
    # a_r = x(x - 1) vanishes at 0 and 1; f_A likewise for the system
    ell = fields.ExtensionField(F7, fields.find_irreducible(F7, 2))
    lead = (F7.zero, F7.from_int(-1), F7.one)
    L = diffop.DiffOperator(F7, ((F7.one,), lead))
    sysv = diffop.DiffSystem(F7, lead, (((F7.one,),),))
    pts = [ell.gen, ell.one, ell.from_int(3)]
    for inp, err in ((L, LeadingCoeffVanishes), (sysv, PoleAtPoint)):
        with pytest.raises(err):
            local_eval.invariant_factors_at(inp, ell, [ell.one])
        with pytest.raises(err):
            local_eval.invariant_factors_at(inp, ell, pts)


def test_empty_batch_is_refused():
    with pytest.raises(ValueError):
        local_eval.invariant_factors_at(_op(F5, (1,), (1,)), F5, [])


def _op_count(p):
    """Field operations of one local evaluation of the c07 operator."""
    K = CountingPrimeField(p)
    op = diffop.DiffOperator(K, ((K.one,), (K.zero, K.one),
                                 (K.one, K.zero, K.one)))
    K.ops = 0
    local_eval.invariant_factors_at(op, K, [K.from_int(2)], p)
    return K.ops


def test_operation_count_grows_like_sqrt_p():
    # quadrupling p doubles sqrt(p); a linear algorithm would give 4x
    small, large = _op_count(10007), _op_count(40009)
    assert _op_count(10007) == small
    assert large <= 2.5 * small, (small, large)
