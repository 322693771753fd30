import gc
import random

import pytest
from hypothesis import given, strategies as st

from pcurvature import extension, fields, interp, polys
from pcurvature.errors import (FieldMismatch, InsufficientModuli,
                               ModuliNotCoprime, NoSolutionWithinBound,
                               NotAGenerator)
from oracles import divides, int_polyadd, int_polymul

F13 = fields.PrimeField(13)
F3 = fields.PrimeField(3)
F9 = extension.ExtensionField(F3, fields.find_irreducible(F3, 2))

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
        assert divides(F13, d, fe)
        assert divides(F13, d, ge)


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


def _residues(K, f, m):
    """f mod m as the tuple of deg m residues of fields.QuotientRing."""
    r = polys.rem(K, f, m)
    return tuple(r + [K.zero] * (len(m) - 1 - len(r)))


@given(int_polys, st.integers(0, 30), small_polys)
def test_pow_mod_matches_plain_power(f, e, m):
    # powers modulo m as products reduced in fields.QuotientRing
    fe, me = _lift(F13, f), _lift(F13, m)
    if polys.deg(me) < 1:
        return
    me = polys.monic(F13, me)
    R = fields.QuotientRing(F13, me)
    a, got = _residues(F13, fe, me), R.one
    for _ in range(e):
        got = R.reduce(F13.polymul(got, a))
    assert got == _residues(F13, polys.poly_pow(F13, fe, e), me)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=8), st.integers(1, 6))
def test_series_inverse(f, n):
    fe = [F13.from_int(c) for c in f]
    if fe[0] == F13.zero:
        return
    inv = polys.series_inv(F13, fe, n)
    prod = polys.mul(F13, polys.trim(F13, fe), inv)
    assert prod[0] == F13.one
    assert all(c == F13.zero for c in prod[1:n])


@pytest.mark.parametrize("dm", [23, 24])
def test_reduction_and_series_inverse_match_division(dm):
    # a product of two reduced operands reduces by fields.QuotientRing's
    # rows, and a quotient of any length k comes from the inverse of the
    # reversed modulus to k terms (series_inv), as a node of a subproduct
    # tree divides, even for inputs longer than twice the modulus
    K = fields.PrimeField(1019)
    rng = random.Random(dm)
    m = [K.random_elem(rng) for _ in range(dm)] + [K.one]
    R = fields.QuotientRing(K, m)
    for _ in range(4):
        a, b = ([K.random_elem(rng) for _ in range(dm)] for _ in range(2))
        assert R.reduce(K.polymul(a, b)) == _residues(
            K, polys.mul(K, a, b), m)
    for length in (dm + 3, 2 * dm + 1, 5 * dm, 3 * dm):
        f = [K.random_elem(rng) for _ in range(length - 1)] + [K.one]
        k = length - dm
        inv = polys.series_inv(K, m[::-1], k)
        assert polys.mul(K, m[::-1], inv)[:k] == [K.one] + [K.zero] * (k - 1)
        quo = polys.mul(K, f[::-1][:k], inv)[:k]
        quo = quo + [K.zero] * (k - len(quo))
        assert polys.trim(K, quo[::-1]) == polys.quorem(K, f, m)[0]


def test_multipoint_eval_matches_pointwise(rng):
    # F_13 as the one-root split ring that a single point of it runs on
    S13 = fields.SplitRing(F13, [0])
    pts = range(13)
    for _ in range(5):
        f = polys.trim(S13, [S13.from_int(rng.randrange(13))
                             for _ in range(20)])
        tree = polys.SubproductTree(S13, pts)
        got = tree.evaluate(S13.rows_of([[f]]))
        want = [polys.eval_at(S13, f, S13.from_int(a)) for a in pts]
        # one list per point, of one value per polynomial
        assert got == [[w] for w in want]


def test_evaluate_leaves_no_reference_cycle():
    # the values are freed with the last reference to them, not at the
    # next cyclic collection: an evaluate, a divided node included, makes
    # no garbage that only the collector finds
    S = fields.SplitRing(fields.PrimeField(1019), range(1, 4))
    tree = polys.SubproductTree(S, range(0, 300, 3))
    rows = S.rows_of([[[S.from_int(j + 1) for j in range(150)]]])
    gc.collect()
    gc.disable()
    try:
        tree.evaluate(rows)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def tree_values(tree, fs):
    """tree.evaluate of the polynomials fs, which gives one list per
    point, read back as one list per polynomial.  The tree takes them as
    the one row of a MatrixRows, read back by its entries, which leave out
    (and so give all zeros for) a zero polynomial."""
    L = tree.K
    rows = L.rows_of([fs])
    out = [[L.zero] * len(tree.points) for _ in fs]
    at = tree.evaluate(rows)
    assert len(at) == len(tree.points)
    for j, vals in enumerate(at):
        assert len(vals) == len(rows.entries)
        for e, v in zip(rows.entries, vals):
            out[e][j] = v
    return out


_TREE_RINGS = {
    "split ring over F_1019": lambda: fields.SplitRing(
        fields.PrimeField(1019), range(1, 4)),
    # F_1019 as the one-root split ring that a single point of it runs on
    "F_1019": lambda: fields.SplitRing(fields.PrimeField(1019), [0]),
}


@pytest.mark.parametrize("ring", sorted(_TREE_RINGS))
@pytest.mark.parametrize("count, divisors", [
    pytest.param(count, sizes, id=f"{count}-{len(sizes)}")
    for count, sizes in ((31, []), (32, []), (33, [33]),
                         (100, [100, 64, 36]))])
def test_tree_builds_only_the_nodes_it_divides_by(count, divisors, ring,
                                                  monkeypatch):
    # on any ring, the descent evaluates every node of at most
    # BASE_CASE points directly, and a larger node divides, and is built,
    # only when its input is longer than its degree: none before
    # evaluate, none for an input of fewer than 33 coefficients, and one
    # series inverse of its reversed product for each larger node an
    # input of 2 * count coefficients reaches (100 = 64 + 36 points)
    built = []
    series_inv = polys.series_inv

    def recording(K, f, n):
        built.append(len(f) - 1)
        return series_inv(K, f, n)
    monkeypatch.setattr(polys, "series_inv", recording)
    L = _TREE_RINGS[ring]()
    pts = range(0, 3 * count, 3)
    tree = polys.SubproductTree(L, pts)
    for length, sizes in ((32, []), (2 * count, divisors)):
        f = [L.from_int(j * j + 1) for j in range(length)]
        assert tree_values(tree, [f]) == [[
            polys.eval_at(L, f, L.from_int(a)) for a in pts]]
        assert built == sizes


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


def _incremental_crt(K, residues):
    """Chinese remaindering one modulus at a time, each step with an
    extended Euclid of the product so far against the next modulus: the
    reference for crt_basis and crt_combine."""
    (m_acc, v), *rest = residues
    c_acc = polys.rem(K, v, m_acc)
    for m_i, v_i in rest:
        _, u, _ = polys.xgcd(K, m_acc, m_i)
        t = polys.rem(K, polys.mul(K, polys.sub(
            K, polys.rem(K, v_i, m_i), c_acc), u), m_i)
        c_acc = polys.add(K, c_acc, polys.mul(K, m_acc, t))
        m_acc = polys.mul(K, m_acc, m_i)
    return c_acc


def _coprime_moduli(K, rng, count):
    moduli = []
    while len(moduli) < count:
        m = [K.from_int(rng.randrange(K.q))
             for _ in range(rng.randint(1, 3))] + [K.one]
        if all(len(polys.gcd(K, m, n)) == 1 for n in moduli):
            moduli.append(m)
    return moduli


def test_crt_basis_and_combine_match_the_incremental_crt(rng):
    # moduli of degree 1 to 3, values of any length; one basis serves
    # every list of values, and interpolate_crt is basis plus combine
    for _ in range(40):
        moduli = _coprime_moduli(F13, rng, rng.randint(1, 5))
        bound = sum(len(m) - 1 for m in moduli) - 1
        basis = polys.crt_basis(F13, moduli, bound)
        for _ in range(4):
            values = [_lift(F13, [rng.randrange(13)
                                  for _ in range(rng.randrange(6))])
                      for _ in moduli]
            want = _incremental_crt(F13, list(zip(moduli, values)))
            assert polys.crt_combine(F13, basis, values) == want
            assert polys.interpolate_crt(
                F13, zip(moduli, values), bound) == want


def test_crt_basis_raises_as_interpolate_crt_does():
    x = [F13.zero, F13.one]
    x1 = [F13.from_int(-1), F13.one]
    with pytest.raises(InsufficientModuli):
        polys.crt_basis(F13, [x, x1], 2)
    # the shared factor is named as the gcd with the product so far: a
    # linear modulus that repeats, or a factor of a later quadratic
    for moduli, factor in (([x, x1, x1], "x + 12"),
                           ([x, x1, polys.mul(F13, x1, x1)], "x + 12"),
                           ([x1, polys.mul(F13, x, x1)], "x + 12"),
                           ([x, [F13.one, F13.one, F13.one], x], "x")):
        with pytest.raises(ModuliNotCoprime) as err:
            polys.crt_basis(F13, moduli, 1)
        assert str(err.value) == "moduli share the factor " + factor
        with pytest.raises(ModuliNotCoprime) as err:
            polys.interpolate_crt(F13, [(m, []) for m in moduli], 1)
        assert str(err.value) == "moduli share the factor " + factor


def test_power_basis_lift_round_trip(rng):
    # each lift is one k x k elimination over F_3, at k = 2, 3 and 4
    for k in (2, 3, 4):
        ell = extension.ExtensionField(F3, fields.find_irreducible(F3, k))
        ap = ell.pow(ell.gen, 3)
        for _ in range(10):
            c = polys.trim(F3, [F3.from_int(rng.randrange(3))
                                for _ in range(k)])
            v = polys.eval_at(ell, [ell.embed(x) for x in c], ap)
            got = interp.lift_from_extension_value(F3, ell, ap, v, k - 1)
            assert got == c, k


def test_power_basis_lift_respects_bound():
    ell = extension.ExtensionField(F3, fields.find_irreducible(F3, 4))
    a = ell.gen
    c = [F3.zero, F3.zero, F3.zero, F3.one]
    v = polys.eval_at(ell, [ell.embed(x) for x in c], a)
    with pytest.raises(NoSolutionWithinBound):
        interp.lift_from_extension_value(F3, ell, a, v, 2)


@pytest.mark.parametrize("K", [fields.PrimeField(101)], ids=["F_101"])
def test_lift_over_the_base_field_itself(K):
    # at points of degree 1 the lift is over K itself: the value, as a
    # constant, as through the extension of K of degree 1
    E = extension.ExtensionField(K, fields.find_irreducible(K, 1))
    rng = random.Random(4)
    for _ in range(10):
        a, v = K.random_elem(rng), K.random_elem(rng)
        got = interp.lift_from_extension_value(K, K, a, v, 0)
        assert got == polys.trim(K, [v])
        assert got == interp.lift_from_extension_value(
            K, E, E.embed(a), E.embed(v), 0)
    for L, a, v in ((K, K.one, K.one), (E, E.one, E.one)):
        with pytest.raises(NoSolutionWithinBound):
            interp.lift_from_extension_value(K, L, a, v, -1)
    with pytest.raises(FieldMismatch):
        interp.lift_from_extension_value(fields.PrimeField(7), E, E.one,
                                         E.one, 0)


def test_power_basis_rejects_non_generator():
    # 1 and b = a^10, which lies in the subfield F_9 of F_81, do not span
    # F_81: the lift refuses them, even for a value that is a polynomial
    # in b of degree below 4
    ell = extension.ExtensionField(F3, fields.find_irreducible(F3, 4))
    b = ell.pow(ell.gen, 10)
    for ap, v in ((ell.one, ell.one), (b, b), (b, ell.gen)):
        with pytest.raises(NotAGenerator):
            interp.lift_from_extension_value(F3, ell, ap, v, 3)


class _LoggedField(fields.PrimeField):
    """F_p that records the length of every polymul product."""

    def __init__(self, p):
        super().__init__(p)
        self.product_lengths = []

    def polymul(self, f, g):
        self.product_lengths.append(len(f) + len(g) - 1)
        return super().polymul(f, g)


def _power_of_x_plus_2(K, L, name, e):
    """(x + 2)^e by one of the two square-and-multiply loops: poly_pow
    over K, or ExtensionField.pow in L."""
    base = [K.from_int(2), K.one]
    if name == "poly_pow":
        return polys.poly_pow(K, base, e)
    return polys.trim(K, list(L.pow(L._pad(base), e)))


@pytest.mark.parametrize("name", ["poly_pow", "ExtensionField.pow"])
def test_square_and_multiply_stops_at_top_bit(name):
    K = _LoggedField(3)
    # degree 48 stays above every power computed, so nothing is reduced
    L = extension.ExtensionField(
        K, fields.find_irreducible(fields.PrimeField(3), 48))
    expect = [K.one]
    for e in range(41):
        K.product_lengths.clear()
        assert _power_of_x_plus_2(K, L, name, e) == expect, e
        # the longest product is the result itself, never a square beyond
        assert max(K.product_lengths, default=0) <= len(expect), e
        expect = polys.mul_schoolbook(K, expect, [K.from_int(2), K.one])
