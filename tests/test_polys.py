import random

import pytest
from hypothesis import given, strategies as st

from pcurvature import fields, interp, polys
from pcurvature.errors import (InsufficientModuli, ModuliNotCoprime,
                               NoSolutionWithinBound, NotAGenerator)
from oracles import int_polyadd, int_polymul

F13 = fields.PrimeField(13)
F3 = fields.PrimeField(3)
F9 = fields.ExtensionField(F3, fields.find_irreducible(F3, 2))

int_polys = st.lists(st.integers(0, 12), max_size=8)
small_polys = st.lists(st.integers(0, 12), min_size=1, max_size=6)


def _lift(K, ints):
    return polys.trim(K, [K.from_int(c) for c in ints])


def test_trim_and_degree_edges():
    assert polys.trim(F13, [0, 0, 0]) == []
    assert polys.deg([]) == -1
    assert polys.trim(F13, [F13.zero, F13.zero]) == []
    assert polys.deg([F13.one, F13.one]) == 1


@given(int_polys, int_polys)
def test_add_matches_integer_oracle(f, g):
    got = polys.add(F13, _lift(F13, f), _lift(F13, g))
    assert got == int_polyadd(f, g, 13)


@given(int_polys, int_polys)
def test_mul_matches_integer_oracle(f, g):
    got = polys.mul(F13, _lift(F13, f), _lift(F13, g))
    assert got == int_polymul(f, g, 13)


@given(st.lists(st.integers(0, 8), max_size=7),
       st.lists(st.integers(0, 8), max_size=7))
def test_extension_mul_matches_schoolbook(f, g):
    fe = polys.trim(F9, [F9.elem(c) for c in f])
    ge = polys.trim(F9, [F9.elem(c) for c in g])
    got = polys.mul(F9, fe, ge)
    want = polys.mul_schoolbook(F9, fe, ge)
    assert got == want


@given(int_polys, small_polys)
def test_quorem_division_identity(f, g):
    fe, ge = _lift(F13, f), _lift(F13, g)
    if not ge:
        return
    q, r = polys.quorem(F13, fe, ge)
    assert polys.deg(r) < polys.deg(ge)
    back = polys.add(F13, polys.mul(F13, q, ge), r)
    assert back == fe


@given(int_polys, int_polys)
def test_xgcd_bezout_identity(f, g):
    fe, ge = _lift(F13, f), _lift(F13, g)
    d, u, v = polys.xgcd(F13, fe, ge)
    lhs = polys.add(F13, polys.mul(F13, u, fe), polys.mul(F13, v, ge))
    assert lhs == d
    if d:
        assert d[-1] == F13.one
        assert polys.divides(F13, d, fe)
        assert polys.divides(F13, d, ge)


@given(int_polys, int_polys)
def test_derivative_product_rule(f, g):
    fe, ge = _lift(F13, f), _lift(F13, g)
    lhs = polys.derivative(F13, polys.mul(F13, fe, ge))
    rhs = polys.add(F13,
                    polys.mul(F13, polys.derivative(F13, fe), ge),
                    polys.mul(F13, fe, polys.derivative(F13, ge)))
    assert lhs == rhs


@given(int_polys, st.integers(0, 12))
def test_eval_matches_horner(f, a):
    fe = _lift(F13, f)
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % 13
    assert polys.eval_at(F13, fe, F13.from_int(a)) == F13.from_int(acc % 13)


@given(int_polys, st.integers(0, 12))
def test_taylor_shift_round_trip(f, a):
    fe = _lift(F13, f)
    ae = F13.from_int(a)
    shifted = polys.taylor_shift(F13, fe, ae)
    back = polys.taylor_shift(F13, shifted, F13.neg(ae))
    assert back == fe
    # f(x + a) at 0 is f(a)
    at0 = shifted[0] if shifted else F13.zero
    assert at0 == polys.eval_at(F13, fe, ae)


@given(int_polys, st.integers(0, 5))
def test_poly_pow_matches_repeated_mul(f, e):
    fe = _lift(F13, f)
    acc = polys.one(F13)
    for _ in range(e):
        acc = polys.mul(F13, acc, fe)
    assert polys.poly_pow(F13, fe, e) == acc


@given(int_polys, st.integers(0, 30), small_polys)
def test_pow_mod_matches_plain_power(f, e, m):
    fe, me = _lift(F13, f), _lift(F13, m)
    if polys.deg(me) < 1:
        return
    me = polys.monic(F13, me)
    got = polys.pow_mod(F13, fe, e, me)
    want = polys.rem(F13, polys.poly_pow(F13, fe, e), me)
    assert got == want


@given(st.lists(st.integers(0, 12), min_size=1, max_size=8), st.integers(1, 6))
def test_series_inverse(f, n):
    fe = [F13.from_int(c) for c in f]
    if fe[0] == F13.zero:
        return
    inv = polys.series_inv(F13, fe, n)
    prod = polys.mul(F13, polys.trim(F13, fe), inv)
    assert prod[0] == F13.one
    assert all(c == F13.zero for c in prod[1:n])


def test_multipoint_eval_matches_pointwise(rng):
    pts = [F13.from_int(i) for i in range(13)]
    for _ in range(5):
        f = [F13.from_int(rng.randrange(13)) for _ in range(20)]
        tree = polys.SubproductTree(F13, pts)
        got = tree.evaluate(polys.trim(F13, f))
        want = [polys.eval_at(F13, polys.trim(F13, f), a) for a in pts]
        assert got == want


def test_format_poly_pins():
    assert polys.format_poly(F13, []) == "0"
    assert polys.format_poly(F13, [F13.from_int(1)]) == "1"
    f = [F13.from_int(2), F13.zero, F13.one]
    assert polys.format_poly(F13, f) == "x^2 + 2"
    assert polys.format_poly(F13, f, var="X") == "X^2 + 2"


def test_interpolate_crt_recovers_polynomial(rng):
    for _ in range(20):
        c = [F13.from_int(rng.randrange(13)) for _ in range(4)]
        c = polys.trim(F13, c)
        pts = rng.sample(range(13), 5)
        residues = []
        for a in pts:
            m = [F13.neg(F13.from_int(a)), F13.one]
            residues.append((m, polys.rem(F13, c, m)))
        got = polys.interpolate_crt(F13, residues, 4)
        assert got == c


def test_interpolate_crt_insufficient_moduli():
    m = [F13.zero, F13.one]
    with pytest.raises(InsufficientModuli):
        polys.interpolate_crt(F13, [(m, [F13.one])], 3)


def test_interpolate_crt_shared_factor():
    m = [F13.zero, F13.one]
    m2 = [F13.zero, F13.zero, F13.one]
    with pytest.raises(ModuliNotCoprime):
        polys.interpolate_crt(F13, [(m, []), (m2, [])], 1)


def test_power_basis_lift_round_trip(rng):
    ell = fields.ExtensionField(F3, fields.find_irreducible(F3, 4))
    a = ell.gen
    ap = ell.pow(a, 3)
    for _ in range(10):
        c = polys.trim(F3, [F3.from_int(rng.randrange(3)) for _ in range(4)])
        v = polys.eval_at(ell, [ell.embed(x) for x in c], ap)
        got = interp.lift_from_extension_value(ell, ap, v, 3)
        assert got == c


def test_power_basis_lift_respects_bound():
    ell = fields.ExtensionField(F3, fields.find_irreducible(F3, 4))
    a = ell.gen
    c = [F3.zero, F3.zero, F3.zero, F3.one]
    v = polys.eval_at(ell, [ell.embed(x) for x in c], a)
    with pytest.raises(NoSolutionWithinBound):
        interp.lift_from_extension_value(ell, a, v, 2)


def test_power_basis_rejects_non_generator():
    ell = fields.ExtensionField(F3, fields.find_irreducible(F3, 4))
    with pytest.raises(NotAGenerator):
        interp.power_basis_solver(ell, ell.one)


def test_power_basis_cache_is_bounded():
    ell = fields.ExtensionField(F13, fields.find_irreducible(F13, 2))
    solver = interp.power_basis_solver
    size = solver.cache_info().maxsize
    # a + b*u with b != 0 generates F_169; more of them than the cache holds
    points = [(F13.from_int(a), F13.from_int(b))
              for b in range(1, 13) for a in range(13)][:size + 10]
    solver.cache_clear()
    for ap in points:
        assert interp.lift_from_extension_value(ell, ap, ap, 1) == [
            F13.zero, F13.one]
    assert solver.cache_info().currsize <= size
    hits = solver.cache_info().hits
    for _ in range(3):
        interp.lift_from_extension_value(ell, points[-1], points[-1], 1)
    assert solver.cache_info().hits == hits + 3


def test_irreducible_cache_is_bounded():
    search = fields._seeded_irreducible
    size = search.cache_info().maxsize
    primes = [n for n in range(2, 1000) if fields.is_prime(n)][:size + 10]
    search.cache_clear()
    for p in primes:
        f = fields.find_irreducible(fields.PrimeField(p), 2)
        assert fields.is_irreducible(fields.PrimeField(p), f)
    assert search.cache_info().currsize <= size
    K = fields.PrimeField(primes[-1])
    hits = search.cache_info().hits
    first = fields.find_irreducible(K, 2)
    first.append(K.one)  # callers get a fresh list every time
    assert fields.find_irreducible(K, 2) == first[:-1]
    assert search.cache_info().hits == hits + 2


class _LoggedField(fields.PrimeField):
    """F_p that records the length of every polymul product."""

    def __init__(self, p):
        super().__init__(p)
        self.product_lengths = []

    def polymul(self, f, g):
        self.product_lengths.append(len(f) + len(g) - 1)
        return super().polymul(f, g)


def _power_of_x_plus_2(K, name, e):
    """(x + 2)^e by one of the three square-and-multiply loops."""
    # a reducible modulus is fine here: powers only multiply, and degree 48
    # stays above every power computed, so nothing is ever reduced
    m = [K.one] + [K.zero] * 47 + [K.one]
    base = [K.from_int(2), K.one]
    if name == "poly_pow":
        return polys.poly_pow(K, base, e)
    if name == "pow_mod":
        return polys.pow_mod(K, base, e, m)
    L = fields.ExtensionField(K, m)
    return polys.trim(K, list(L.pow(L._pad(base), e)))


@pytest.mark.parametrize("name", ["poly_pow", "pow_mod", "ExtensionField.pow"])
def test_square_and_multiply_stops_at_top_bit(name):
    K = _LoggedField(3)
    expect = [K.one]
    for e in range(41):
        K.product_lengths.clear()
        assert _power_of_x_plus_2(K, name, e) == expect, e
        # the longest product is the result itself, never a square beyond
        assert max(K.product_lengths, default=0) <= len(expect), e
        expect = polys.mul_schoolbook(K, expect, [K.from_int(2), K.one])
