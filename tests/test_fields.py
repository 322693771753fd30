import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import pcurvature
from pcurvature import extension, fields, polys
from pcurvature.errors import FieldMismatch, NonPrime, NotAGenerator

F13 = fields.PrimeField(13)
F5 = fields.PrimeField(5)
F9 = extension.ExtensionField(fields.PrimeField(3),
                           fields.find_irreducible(fields.PrimeField(3), 2))

elems13 = st.integers(0, 12).map(F13.from_int)
elems9 = st.integers(0, 8).map(F9.elem)


def test_prime_field_rejects_composites():
    with pytest.raises(NonPrime):
        fields.PrimeField(4)
    with pytest.raises(NonPrime):
        fields.PrimeField(1)


def test_is_prime_small_values():
    primes = {n for n in range(2, 200) if fields.is_prime(n)}
    sieve = set()
    for n in range(2, 200):
        if all(n % d for d in range(2, n)):
            sieve.add(n)
    assert primes == sieve


@given(elems13, elems13, elems13)
def test_prime_field_ring_axioms(a, b, c):
    K = F13
    assert K.add(a, b) == K.add(b, a)
    assert K.mul(a, b) == K.mul(b, a)
    assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.add(a, K.neg(a)) == K.zero
    assert K.sub(a, b) == K.add(a, K.neg(b))


@given(elems9, elems9, elems9)
def test_extension_field_ring_axioms(a, b, c):
    K = F9
    assert K.add(a, b) == K.add(b, a)
    assert K.mul(a, b) == K.mul(b, a)
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.add(a, K.neg(a)) == K.zero


@given(elems9)
def test_extension_field_inverses(a):
    if a == F9.zero:
        return
    assert F9.mul(a, F9.inv(a)) == F9.one


@given(elems13, st.integers(0, 40))
def test_pow_matches_repeated_multiplication(a, e):
    acc = F13.one
    for _ in range(e):
        acc = F13.mul(acc, a)
    assert F13.pow(a, e) == acc


def test_extension_has_q_distinct_elements():
    seen = {tuple(a) if isinstance(a, (list, tuple)) else a
            for a in F9.elements()}
    assert len(seen) == 9


def test_frobenius_fixes_prime_subfield():
    for n in range(3):
        c = F9.embed(F9.base.from_int(n))
        assert F9.pow(c, 3) == c


def _has_root(K, f):
    return any(_eval_int_poly(K, f, a) == K.zero for a in K.elements())


def _eval_int_poly(K, f, a):
    acc = K.zero
    for c in reversed(f):
        acc = K.add(K.mul(acc, a), c)
    return acc


@pytest.mark.parametrize("n", [2, 3])
def test_find_irreducible_low_degree_has_no_roots(n):
    # degree 2 and 3: irreducible over F_q iff rootless
    f = fields.find_irreducible(F5, n)
    assert len(f) == n + 1
    assert f[-1] == F5.one
    assert not _has_root(F5, f)


def _int_rem(f, g, p):
    """Remainder of integer coefficient lists mod p; g monic."""
    r = [x % p for x in f]
    dg = len(g) - 1
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            return r
        lead = r[-1]
        shift = len(r) - 1 - dg
        for i, gi in enumerate(g):
            r[shift + i] = (r[shift + i] - lead * gi) % p


def test_find_irreducible_degree_four_no_small_factors():
    f = fields.find_irreducible(F5, 4)
    assert not _has_root(F5, f)
    # trial division by every monic quadratic, with plain int arithmetic
    for b in range(5):
        for c in range(5):
            assert _int_rem(list(f), [c, b, 1], 5), \
                f"divisible by x^2 + {b}x + {c}"


def test_frobenius_orbit_of_generator_has_full_degree():
    L = extension.ExtensionField(F5, fields.find_irreducible(F5, 3))
    orbit = fields.frobenius_orbit(L, L.gen, 5)
    assert len(orbit) == 3
    assert len({tuple(b) for b in orbit}) == 3


def test_minimal_polynomial_is_product_over_orbit():
    L = extension.ExtensionField(F5, fields.find_irreducible(F5, 3))
    rng = random.Random(5)
    for _ in range(10):
        a = L.random_elem(rng)
        orbit = fields.frobenius_orbit(L, a, 5)
        m = fields.minimal_polynomial(L, a, 5)
        assert len(m) == len(orbit) + 1
        assert m[-1] == F5.one
        # multiply out (u - b) over the orbit inside L, then project
        prod = [L.one]
        for b in orbit:
            nxt = [L.zero] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i + 1] = L.add(nxt[i + 1], c)
                nxt[i] = L.add(nxt[i], L.mul(L.neg(b), c))
            prod = nxt
        assert [L.project(c) for c in prod] == list(m)


def test_are_conjugate_matches_orbit_membership():
    L = F9
    for i in range(9):
        a = L.elem(i)
        orbit = {tuple(b) for b in fields.frobenius_orbit(L, a, 3)}
        for j in range(9):
            b = L.elem(j)
            assert fields.are_conjugate(L, a, b, 3) == (tuple(b) in orbit)


@pytest.mark.parametrize("K", [fields.PrimeField(101)], ids=["F_101"])
def test_degree_one_forms_match_a_degree_one_extension(K):
    # over K itself (points of degree 1) the minimal polynomial is z - a
    # and the orbit is [a], as over the extension of K of degree 1
    E = extension.ExtensionField(K, fields.find_irreducible(K, 1))
    rng = random.Random(7)
    elems = [K.zero, K.one] + [K.random_elem(rng) for _ in range(12)]
    for a in elems:
        assert fields.frobenius_orbit(K, a, K.q) == [a]
        m = fields.minimal_polynomial(K, a, K.q)
        assert m == fields.minimal_polynomial(E, E.embed(a), K.q)
        assert m == [K.neg(a), K.one]
        for b in elems:
            conj = fields.are_conjugate(K, a, b, K.q)
            assert conj == fields.are_conjugate(E, E.embed(a), E.embed(b),
                                                K.q)
            assert conj == (a == b)
    with pytest.raises(FieldMismatch):
        fields.minimal_polynomial(K, K.one, K.char ** 3)


def _general_product(L, a, b):
    """a * b as convolutions reduced by the modulus of the point field,
    value by value, with no shortcut."""
    ell = getattr(L, "field", L)
    k = ell.degree
    return sum((ell.reduce(ell.mul_unreduced(a[i:i + k], b[i:i + k]))
                for i in range(0, len(a), k)), ())


def _product_ring_13():
    # the points 1, 2 and a root u of u^2 + 2 over F_13, in value form
    # over F_169 = F_13[u]/(u^2 + 2): the ring F_13 x F_13 x F_169 that
    # F_13[u]/((u - 1)(u - 2)(u^2 + 2)) is
    ell = extension.ExtensionField(F13, [2, 0, 1])
    return fields.SplitRing(ell, [ell.one, ell.from_int(2), ell.gen])


_CONSTANT_RINGS = {
    "F_101^25": lambda: extension.ExtensionField(
        fields.PrimeField(101),
        fields.find_irreducible(fields.PrimeField(101), 25)),
    "product ring over F_13": _product_ring_13,
    "F_9 over F_3": lambda: F9,
}


@pytest.mark.parametrize("ring", sorted(_CONSTANT_RINGS))
def test_mul_by_base_constant_matches_general_product(ring):
    L = _CONSTANT_RINGS[ring]()
    rng = random.Random(11)
    consts = [L.zero, L.one] + [L.embed(L.base.random_elem(rng))
                                for _ in range(6)]
    for _ in range(20):
        b = L.random_elem(rng)
        for c in consts + [b]:
            want = _general_product(L, c, b)
            assert L.mul(c, b) == want
            assert L.mul(b, c) == want


def test_embedding_identity_and_constant():
    emb = fields.embedding(F5, F5)
    assert emb(F5.from_int(3)) == F5.from_int(3)
    L = extension.ExtensionField(F5, fields.find_irreducible(F5, 2))
    emb2 = fields.embedding(F5, L)
    assert emb2(F5.one) == L.one
    with pytest.raises(FieldMismatch):
        fields.embedding(F13, L)


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _gauss_count(q, n):
    """Monic irreducibles of degree n over F_q."""
    return sum(_mobius(d) * q ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("K, top", [(fields.PrimeField(2), 10),
                                    (fields.PrimeField(3), 6), (F5, 4)],
                         ids=["F2", "F3", "F5"])
def test_is_irreducible_matches_gauss_count(K, top):
    # every monic candidate of each degree, so each irreducible runs Ben-Or's
    # gcds up to i = n // 2, 5 at F_2's degree 10
    elems = list(K.elements())
    for n in range(1, top + 1):
        count = sum(
            fields.is_irreducible(K, list(low) + [K.one])
            for low in itertools.product(elems, repeat=n))
        assert count == _gauss_count(K.q, n), n


def _shift(K, g):
    """g(u + 1), by Horner's rule."""
    h = []
    for c in reversed(g):
        h = polys.add(K, polys.mul(K, h, [K.one, K.one]), [c])
    return h


@pytest.mark.parametrize("p", [2, 263, 10**9 + 7])
def test_is_irreducible_at_the_last_gcd(p):
    # Ben-Or's last gcd is at i = n // 2: g^2 and g h have a factor of that
    # degree and none below it.  h = g(u + 1) is irreducible, and another
    # factor than g unless the shift fixes g, as it does u^2 + u + 1, the
    # one irreducible quadratic over F_2.  At 10^9 + 7 the ring's slots
    # are wider than a machine word
    K = fields.PrimeField(p)
    rng = random.Random(p)
    for n in range(2, 9):
        g = fields.find_irreducible(K, n // 2)
        h = fields.find_irreducible(K, n - n // 2)
        if h == g:
            h = _shift(K, g)
        linear = [K.random_elem(rng), K.one]
        for f in (polys.mul(K, g, g), polys.mul(K, g, h),
                  polys.mul(K, fields.find_irreducible(K, n - 1), linear)):
            assert len(f) - 1 in (n - 1, n)
            assert not fields.is_irreducible(K, f), (n, f)
        assert fields.is_irreducible(K, fields.find_irreducible(K, n)), n


def _find_in_fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(pcurvature.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout


def test_find_irreducible_is_reproducible():
    code = ("from pcurvature import fields\n"
            "for p, n in ((263, 25), (5, 4), (3, 1)):\n"
            "    print(fields.find_irreducible(fields.PrimeField(p), n))\n")
    first = _find_in_fresh_interpreter(code)
    assert first == _find_in_fresh_interpreter(code)
    here = fields.find_irreducible(fields.PrimeField(263), 25)
    here.append(1)  # each call searches afresh and returns its own list
    again = fields.find_irreducible(fields.PrimeField(263), 25)
    assert again == here[:-1]
    assert first.splitlines()[0] == str(again)


@pytest.mark.parametrize("p", [263, 1019, 10007, 40009])
def test_find_irreducible_tries_about_n_candidates(p, monkeypatch):
    # the enumeration this replaced made 268 calls at p = 263 and 1062 at
    # p = 1019, since no binomial of degree 25 is irreducible there
    n = 25
    calls = []
    test = fields.is_irreducible

    def counted(K, f):
        calls.append(f)
        return test(K, f)

    monkeypatch.setattr(fields, "is_irreducible", counted)
    f = fields.find_irreducible(fields.PrimeField(p), n)
    assert len(f) == n + 1 and f[-1] == 1
    assert 1 <= len(calls) <= 8 * n
    assert calls[-1] == f


@pytest.mark.parametrize("modulus", [
    fields.find_irreducible(F5, 1), [2, 1], fields.find_irreducible(F5, 2),
    fields.find_irreducible(F5, 3), fields.find_irreducible(F5, 4)])
def test_gen_is_a_root_of_the_modulus(modulus):
    L = extension.ExtensionField(F5, modulus)
    assert polys.eval_at(L, [L.embed(c) for c in modulus], L.gen) == L.zero


def test_squarefree_modulus_gives_the_product_ring():
    # F_13[u]/((u - 1)(u - 2)(u^2 + 2)) is F_13 x F_13 x F_169, kept as its
    # value form over F_169 = F_13[u]/(u^2 + 2) at 1, 2 and u: the value at
    # each point is a ring map, and inv refuses zero divisors
    K = F13
    ell = extension.ExtensionField(K, [K.from_int(2), K.zero, K.one])
    R = fields.SplitRing(ell, [ell.one, ell.from_int(2), ell.gen])
    rng = random.Random(3)
    for _ in range(50):
        a, b = R.random_elem(rng), R.random_elem(rng)
        for i in range(0, 6, 2):
            def at(x):
                return x[i:i + 2]
            assert at(R.mul(a, b)) == ell.mul(at(a), at(b))
            assert at(R.add(a, b)) == ell.add(at(a), at(b))
        if all(a[i:i + 2] != ell.zero for i in range(0, 6, 2)):
            assert R.mul(a, R.inv(a)) == R.one
    with pytest.raises(ZeroDivisionError):
        R.inv(R.sub(R.gen, R.one))
    # a product of zero divisors is 0, so polynomial products stay trimmed
    a, b = R.sub(R.gen, R.one), R.sub(R.gen, R.from_int(2))
    c = R.add(R.mul(R.gen, R.gen), R.from_int(2))
    assert polys.mul(R, [a], [R.mul(b, c)]) == []
    assert polys.mul(R, [R.one, a], [R.one, R.mul(b, c)]) == [
        R.one, R.add(a, R.mul(b, c))]
    assert polys.mul(R, [a] * 5, [R.one] * 4 + [R.mul(b, c)]) == polys.mul(
        R, [a] * 5, [R.one] * 4)
    with pytest.raises(ZeroDivisionError):
        R.inv(R.add(R.mul(R.gen, R.gen), R.from_int(2)))


@pytest.mark.parametrize("n", [1, 2, 5, 12, 22, 25, 73])
def test_reduction_on_ints_matches_polynomial_remainder(n):
    # any monic modulus: random ones are mostly reducible
    rng = random.Random(n)
    K = fields.PrimeField(2003)
    m = [K.random_elem(rng) for _ in range(n)] + [K.one]
    R = fields.QuotientRing(K, m)
    for _ in range(20):
        # a full-length input reaches the top row, u^(2n-2) mod S
        for length in (2 * n - 1, rng.randint(0, 2 * n - 1)):
            c = polys.trim(K, [K.random_elem(rng) for _ in range(length)])
            want = tuple(polys.rem(K, c, m) + [K.zero] * n)[:n]
            assert R.reduce(c) == want
            # any ints that are congruent mod p reduce alike
            assert R.reduce([x + 2003 * rng.randrange(-9, 10**9)
                             for x in c]) == want


@pytest.mark.parametrize("p", [2, 263, 10**9 + 7])
def test_quotient_ring_reduces_products_as_division_does(p):
    # random monic moduli of degree 1 to 80, reducible ones (a product of
    # two, or a zero constant term) among them; at 10^9 + 7 the slots are
    # wider than a machine word
    K = fields.PrimeField(p)
    rng = random.Random(p)

    def monic(n):
        return [K.random_elem(rng) for _ in range(n)] + [K.one]
    for trial in range(24):
        n = rng.randint(1, 80)
        m = monic(n)
        if trial % 3 == 1 and n > 1:
            d = rng.randint(1, n - 1)
            m = polys.mul(K, monic(d), monic(n - d))
        elif trial % 3 == 2:
            m[0] = K.zero
        R = fields.QuotientRing(K, m)
        assert R.degree == n
        for a, b in ((R.zero, monic(n - 1)), ([p - 1] * n, [p - 1] * n),
                     ([K.random_elem(rng) for _ in range(n)],
                      [K.random_elem(rng) for _ in range(n)])):
            want = polys.rem(K, polys.mul(K, polys.trim(K, list(a)),
                                          polys.trim(K, list(b))), m)
            assert R.reduce(K.polymul(a, b)) == tuple(
                want + [K.zero] * (n - len(want))), (n, m)


@pytest.mark.parametrize("p", [263, 40009])
def test_is_irreducible_at_degree_25(p):
    K = fields.PrimeField(p)
    assert fields.is_irreducible(K, fields.find_irreducible(K, 25))
    f = polys.mul(K, fields.find_irreducible(K, 12),
                  fields.find_irreducible(K, 13))
    assert len(f) == 26 and not fields.is_irreducible(K, f)


def test_extension_refuses_a_reducible_modulus():
    K = F13
    m = polys.mul(K, [K.neg(K.one), K.one], [K.from_int(-2), K.one])
    with pytest.raises(ValueError):
        extension.ExtensionField(K, m)


def test_irreducible_search_refuses_a_non_prime_base():
    for call in (lambda: fields.find_irreducible(F9, 2),
                 lambda: fields.is_irreducible(F9, [F9.one, F9.zero, F9.one])):
        with pytest.raises(FieldMismatch):
            call()


@pytest.mark.parametrize("p", [2, 1019, 10**9 + 7])
def test_kronecker_product_matches_schoolbook(p):
    # slots of 1, 4 and more than 8 bytes; all p - 1 is the widest sum
    K = fields.PrimeField(p)
    rng = random.Random(p)
    for la, lb in ((16, 16), (16, 41), (130, 17), (300, 300)):
        for f, g in (([rng.randrange(p) for _ in range(la - 1)] + [1],
                      [rng.randrange(p) for _ in range(lb - 1)] + [p - 1]),
                     ([p - 1] * la, [p - 1] * lb)):
            assert K.polymul(f, g) == polys.mul_schoolbook(K, f, g)


@pytest.mark.parametrize("p", [2, 263, 2**64 + 13])
def test_pack_and_unpack_round_trip(p):
    # every slot width that holds p - 1 up to 9 bytes, and 17: word widths
    # unpack through arrays, the others slot by slot; at 2^64 + 13 a
    # residue is wider than a machine word, so its column is a list
    rng = random.Random(p)
    for slot in [w for w in range(1, 10) if 256 ** w > p - 1] + [17]:
        xs = [rng.randrange(p) for _ in range(11)] + [p - 1, 0]
        column = fields._column(xs, p)
        for seq in ([], xs, tuple(xs), column):
            packed = fields._pack(seq, slot, p)
            assert packed == sum(x << (8 * slot * i)
                                 for i, x in enumerate(seq)), (slot, seq)
            assert list(fields._unpack([packed], slot, len(seq))) == list(seq)
        # several integers read end to end, each to its first count slots
        packed = [fields._pack(xs, slot, p), 0, fields._pack(xs[:3], slot, p)]
        assert list(fields._unpack(packed, slot, len(xs))) == (
            xs + [0] * len(xs) + xs[:3] + [0] * (len(xs) - 3))


_F1019 = fields.PrimeField(1019)
_FWIDE = fields.PrimeField(10**9 + 7)


def _value_form(K, modulus, with_zero=False):
    """The value-form ring over K[u]/(modulus) at u, after 0 if asked."""
    ell = extension.ExtensionField(K, modulus)
    return fields.SplitRing(ell, [ell.zero] * with_zero + [ell.gen])


@pytest.mark.parametrize("ring", [
    lambda: fields.SplitRing(_F1019, range(1, 30)),
    lambda: fields.SplitRing(_FWIDE, [2, 3, 5]),
    lambda: _value_form(_F1019, fields.find_irreducible(_F1019, 3)),
    lambda: _value_form(fields.PrimeField(7), [1, 0, 1], with_zero=True),
    lambda: _value_form(_FWIDE, [1, 0, 1])],
    ids=["split29", "split-wide", "ext3", "ext-product-ring", "ext-wide"])
def test_packed_polymul_multiplies_directly(ring, monkeypatch):
    # a product of two polynomials over a batch ring is one chain step and
    # builds no row form: short factors, long ones ((16, 16) and (20, 33),
    # many pairs per output row), and a ring of several points, F_7 x F_49
    # at 0 and u for u^2 + 1 = 0 among them, whose top coefficient
    # vanishes all match the schoolbook
    R = ring()
    for name in ("rows_of", "matrix_of", "matpoly_mul"):
        monkeypatch.setattr(type(R), name, None)
    rng = random.Random(7)
    k = R.field.degree
    if R.degree > k:
        # zero at the first point, and zero at every other one
        zero_top = (0,) * k + R.one[k:]
        other_top = R.one[:k] + (0,) * (R.degree - k)
    else:
        zero_top = other_top = R.gen
    for lf, lg in ((1, 1), (2, 3), (3, 3), (5, 17), (16, 16), (20, 33)):
        f = [R.random_elem(rng) for _ in range(lf - 1)] + [zero_top]
        g = [R.random_elem(rng) for _ in range(lg - 1)] + [other_top]
        for a, b in ((f, g), (polys.trim(R, g[:-1] + [R.one]), f)):
            want = polys.mul_schoolbook(R, a, b)
            assert R.polymul(a, b) == want, (lf, lg)
