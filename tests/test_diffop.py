import random

import pytest

from pcurvature import (bivar, diffop, extension, fields, linalg, local_eval,
                        polys)
from pcurvature.errors import ZeroLeadingCoefficient
from pcurvature.ratfunc import RatFuncField

F3 = fields.PrimeField(3)
F5 = fields.PrimeField(5)
F7 = fields.PrimeField(7)
F11 = fields.PrimeField(11)


def _op(K, *coeffs):
    return diffop.DiffOperator(
        K, tuple(tuple(K.from_int(c) for c in cc) for cc in coeffs))


def _fmt(K, factors):
    return [bivar.format_bivar(K, f) for f in factors]


def random_system(K, rng, d, r):
    while True:
        f = [K.from_int(rng.randrange(K.q)) for _ in range(d + 1)]
        if polys.trim(K, f):
            break
    A = [[[K.from_int(rng.randrange(K.q)) for _ in range(d + 1)]
          for _ in range(r)] for _ in range(r)]
    return diffop.DiffSystem(K, tuple(f),
                             tuple(tuple(tuple(e) for e in row) for row in A))


def random_operator(K, rng, d, r):
    while True:
        cc = [[K.from_int(rng.randrange(K.q)) for _ in range(d + 1)]
              for _ in range(r + 1)]
        if polys.trim(K, cc[-1]):
            return diffop.DiffOperator(
                K, tuple(tuple(c) for c in cc))


def assert_frozen_record(rec, hashable=True):
    """rec is an immutable named tuple: no field can be assigned, no other
    attribute added, and a rebuild from its keyword fields is equal to it
    (with the same hash), so equality and hashing go by the fields."""
    copy = type(rec)(**rec._asdict())
    assert copy == rec
    assert tuple(copy) == tuple(getattr(rec, f) for f in rec._fields)
    if hashable:
        assert hash(copy) == hash(rec)
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = None


def test_operator_validation():
    with pytest.raises(ZeroLeadingCoefficient):
        _op(F5, (1,))  # order 0
    with pytest.raises(ZeroLeadingCoefficient):
        _op(F5, (1,), (0,))  # zero leading coefficient
    L = _op(F5, (0, 1), (2,), (1, 0, 3))
    assert L.order == 2
    assert L.degree == 2
    assert L.bidegree == (2, 2)
    assert list(L.coeffs[-1]) == [F5.one, F5.zero, F5.from_int(3)]

    assert_frozen_record(L)
    K, coeffs = L
    # keyword construction trims trailing zeros, as positional does
    padded = coeffs[:-1] + (coeffs[-1] + (F5.zero,),)
    assert diffop.DiffOperator(K=K, coeffs=padded) == L
    assert L != L._replace(coeffs=coeffs[:-1] + ((F5.one,),))
    with pytest.raises(ZeroLeadingCoefficient):
        L._replace(coeffs=coeffs[:-1] + ((F5.zero,),))
    with pytest.raises(ZeroLeadingCoefficient):
        L._replace(coeffs=coeffs[-1:])


def test_system_validation():
    with pytest.raises(ZeroLeadingCoefficient):
        diffop.DiffSystem(F5, (F5.zero,), (((F5.one,),),))
    with pytest.raises(ValueError):
        diffop.DiffSystem(F5, (F5.one,), (((F5.one,), (F5.one,)),))
    with pytest.raises(ValueError):
        diffop.DiffSystem(F5, (F5.one,), ())

    S = diffop.DiffSystem(K=F5, f_A=(F5.one, F5.zero),
                          A_tilde=(((F5.zero, F5.one, F5.zero),),))
    assert S.f_A == (F5.one,) and S.A_tilde == (((F5.zero, F5.one),),)
    assert_frozen_record(S)
    K, f_A, A_tilde = S
    assert S != S._replace(f_A=(F5.from_int(2),))
    with pytest.raises(ZeroLeadingCoefficient):
        S._replace(f_A=(F5.zero,))
    with pytest.raises(ValueError):
        S._replace(A_tilde=A_tilde + A_tilde)


def test_companion_of_operator_shape():
    # x*Dx^2 + Dx + 1: f_A = x, superdiagonal x, last row (-1, -1)
    L = _op(F5, (1,), (1,), (0, 1))
    sysv = diffop.companion_of_operator(L)
    assert list(sysv.f_A) == [F5.zero, F5.one]
    assert sysv.size == 2
    assert [list(e) for e in sysv.A_tilde[0]] == [[], [F5.zero, F5.one]]
    assert [list(e) for e in sysv.A_tilde[1]] == [[F5.from_int(4)],
                                                  [F5.from_int(4)]]


def test_naive_p_curvature_of_constant_system():
    # Y' = cY has A_p = (-1)^p c^p = -c^p in odd characteristic
    c = F7.from_int(2)
    sysv = diffop.DiffSystem(F7, (F7.one,), (((c,),),))
    R = RatFuncField(F7)
    Ap = diffop.naive_p_curvature(sysv, 7)
    want = R.neg(R.from_int(2 ** 7))
    assert Ap[0][0] == want


def _rational_p_curvature(sysv, p):
    """A_1 = -A, A_(i+1) = A_i' - A A_i over F_q(x) itself, with a gcd in
    every operation: the recurrence as defined."""
    K = sysv.K
    R = RatFuncField(K)

    def derivative(r):
        a, b = list(r[0]), list(r[1])
        num = polys.sub(K, polys.mul(K, polys.derivative(K, a), b),
                        polys.mul(K, a, polys.derivative(K, b)))
        return R.div(R.from_poly(num), R.from_poly(polys.mul(K, b, b)))
    den = R.from_poly(list(sysv.f_A))
    A = [[R.div(R.from_poly(list(e)), den) for e in row]
         for row in sysv.A_tilde]
    Ai = [[R.neg(e) for e in row] for row in A]
    for _ in range(p - 1):
        Ai = [[R.sub(derivative(Ai[i][j]), R.dot(A[i], [r[j] for r in Ai]))
               for j in range(len(A))] for i in range(len(A))]
    return Ai


def test_naive_p_curvature_matches_the_rational_recurrence(rng):
    # the recurrence on cleared numerators, divided by f_A^p at the end,
    # gives the same reduced fractions at every step count p
    F9 = extension.ExtensionField(F3, fields.find_irreducible(F3, 2))
    for K, p in ((F5, 5), (F7, 7), (F11, 11), (F9, 3)):
        for d, r in ((1, 1), (2, 2), (1, 3)):
            sysv = random_system(K, rng, d, r)
            assert (diffop.naive_p_curvature(sysv, p)
                    == _rational_p_curvature(sysv, p)), (K, d, r)


def test_oracle_shares_no_shortcut_with_the_local_classes(monkeypatch):
    # the oracle's invariant factors come from the Smith form of T - A_p,
    # never from the Krylov decomposition of linalg.invariant_factors_of
    def refused(K, A):
        raise AssertionError("the oracle called invariant_factors_of")
    monkeypatch.setattr(linalg, "invariant_factors_of", refused)
    L = _op(F11, (1, 0, 1), (1,), (1, 1, 1))
    got = diffop.naive_invariant_factors(diffop.companion_of_operator(L), 11)
    assert _fmt(F11, got) == ["1", "T^2 + 9*T + X^4 + 10*X^2 + 9*X + 10"]


def test_micro_instance_factors():
    # the three classical first-order pins
    L1 = _op(F3, (0, 2), (1,))           # Dx - x
    s1 = diffop.companion_of_operator(L1)
    assert _fmt(F3, diffop.naive_invariant_factors(s1, 3)) == ["T + X"]

    L2 = _op(F3, (2,), (1,))             # Dx - 1
    s2 = diffop.companion_of_operator(L2)
    assert _fmt(F3, diffop.naive_invariant_factors(s2, 3)) == ["T + 1"]

    L3 = _op(F3, (0,), (1,))             # Dx
    s3 = diffop.companion_of_operator(L3)
    assert _fmt(F3, diffop.naive_invariant_factors(s3, 3)) == ["T"]


def test_naive_oracle_refuses_a_wrong_characteristic():
    # p = 6 over F_3 gave T + 2*X, and p = 7 over F_5 gave T + 2, with no
    # error; over F_9 the characteristic is 3
    for K, p, coeffs in ((F3, 6, (0, 2)), (F5, 7, (2,))):
        sysv = diffop.companion_of_operator(_op(K, coeffs, (1,)))
        with pytest.raises(ValueError):
            diffop.naive_invariant_factors(sysv, p)
        with pytest.raises(ValueError):
            diffop.naive_p_curvature(sysv, p)
    F9 = extension.ExtensionField(F3, fields.find_irreducible(F3, 2))
    s9 = diffop.companion_of_operator(_op(F9, (0, 2), (1,)))  # Dx - x
    assert _fmt(F9, diffop.naive_invariant_factors(s9, 3)) == ["T + X"]


def test_second_order_operator_pin():
    # (x^2+x+1) Dx^2 + Dx + (x^2+1) over F_11
    L = _op(F11, (1, 0, 1), (1,), (1, 1, 1))
    sysv = diffop.companion_of_operator(L)
    got = _fmt(F11, diffop.naive_invariant_factors(sysv, 11))
    assert got == ["1", "T^2 + 9*T + X^4 + 10*X^2 + 9*X + 10"]


def test_naive_factors_are_monic_descending_chain(rng):
    R = RatFuncField(F5)
    for _ in range(5):
        sysv = random_system(F5, rng, 2, 2)
        facs = diffop.naive_invariant_factors(sysv, 5)
        assert len(facs) == 2
        for f in facs:
            assert f[-1] == [F5.one]
        # compressed product degree in T equals the system size
        assert sum(bivar.deg_T(f) for f in facs) == 2


def test_theta_rewrite_structure(rng):
    # coefficients after recentering: d + o + 1 of them, theta-degree
    # <= d, the top one the constant C_o(a), low ones vanishing at 0.  An
    # operator has 1 x 1 coefficients and o = r; a system is f_A I d - A~,
    # r x r coefficients with o = 1 and top coefficient f_A(a) I
    for _ in range(10):
        d, r = rng.randint(0, 3), rng.randint(1, 3)
        a = F7.from_int(rng.randrange(7))
        L = random_operator(F7, rng, d, r)
        sysv = random_system(F7, rng, d, r)
        f = [[sysv.f_A if j == k else () for k in range(r)]
             for j in range(r)]
        minus_A = [[polys.neg(F7, e) for e in row] for row in sysv.A_tilde]
        for coeffs, d_eff, lead in (
                ([[[c]] for c in L.coeffs], L.degree, L.coeffs[-1]),
                ([minus_A, f], sysv.degree, sysv.f_A)):
            m, o = len(coeffs[0]), len(coeffs) - 1
            b = local_eval._theta_rewrite(F7, F7, coeffs, a)
            assert len(b) == d_eff + o + 1
            assert all(len(be) == m and all(
                len(row) == m and all(polys.deg(e) <= d_eff for e in row)
                for row in be) for be in b)
            lead_at_a = polys.eval_at(F7, lead, a)
            top = [lead_at_a] if lead_at_a != F7.zero else []
            assert b[d_eff + o] == [[top if j == k else [] for k in range(m)]
                                    for j in range(m)]
            for e in range(d_eff):
                assert all(not x or x[0] == F7.zero
                           for row in b[e] for x in row)
