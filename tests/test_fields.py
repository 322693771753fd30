import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import pcurvature
from pcurvature import fields, polys
from pcurvature.errors import FieldMismatch, NonPrime, NotAGenerator

F13 = fields.PrimeField(13)
F5 = fields.PrimeField(5)
F9 = fields.ExtensionField(fields.PrimeField(3),
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
    L = fields.ExtensionField(F5, fields.find_irreducible(F5, 3))
    orbit = fields.frobenius_orbit(L, L.gen, 5)
    assert len(orbit) == 3
    assert len({tuple(b) for b in orbit}) == 3


def test_minimal_polynomial_is_product_over_orbit():
    L = fields.ExtensionField(F5, fields.find_irreducible(F5, 3))
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


def test_embedding_identity_and_constant():
    emb = fields.embedding(F5, F5)
    assert emb(F5.from_int(3)) == F5.from_int(3)
    L = fields.ExtensionField(F5, fields.find_irreducible(F5, 2))
    emb2 = fields.embedding(F5, L)
    assert emb2(F5.one) == L.one
    with pytest.raises(FieldMismatch):
        fields.embedding(F13, L)


def _mobius(n):
    out = 1
    for t in fields._prime_factors(n):
        if (n // t) % t == 0:
            return 0
        out = -out
    return out


def _gauss_count(q, n):
    """Monic irreducibles of degree n over F_q."""
    return sum(_mobius(d) * q ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("K, top", [(fields.PrimeField(2), 10),
                                    (fields.PrimeField(3), 6), (F5, 4),
                                    (F9, 3)], ids=["F2", "F3", "F5", "F9"])
def test_is_irreducible_matches_gauss_count(K, top):
    # F_2 reaches degrees 8 and 10, where Rabin's gcd at n/t (4 and 5) is
    # not already one of the degree <= 3 screens
    elems = list(K.elements())
    for n in range(1, top + 1):
        count = sum(
            fields.is_irreducible(K, list(low) + [K.one])
            for low in itertools.product(elems, repeat=n))
        assert count == _gauss_count(K.q, n), n


def _find_in_fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(pcurvature.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout


def test_find_irreducible_is_reproducible():
    code = ("from pcurvature import fields\n"
            "for p, n in ((263, 25), (5, 4), (3, 1)):\n"
            "    print(fields.find_irreducible(fields.PrimeField(p), n))\n"
            "L = fields.ExtensionField(fields.PrimeField(3), [2, 2, 1])\n"
            "print(fields.find_irreducible(L, 3))\n")
    first = _find_in_fresh_interpreter(code)
    assert first == _find_in_fresh_interpreter(code)
    here = fields.find_irreducible(fields.PrimeField(263), 25)
    fields._seeded_irreducible.cache_clear()
    again = fields.find_irreducible(fields.PrimeField(263), 25)
    assert again == here
    assert first.splitlines()[0] == str(here)


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
    fields._seeded_irreducible.cache_clear()
    f = fields.find_irreducible(fields.PrimeField(p), n)
    assert len(f) == n + 1 and f[-1] == 1
    assert 1 <= len(calls) <= 8 * n
    assert calls[-1] == f


@pytest.mark.parametrize("modulus", [
    fields.find_irreducible(F5, 1), [2, 1], fields.find_irreducible(F5, 2),
    fields.find_irreducible(F5, 3), fields.find_irreducible(F5, 4)])
def test_gen_is_a_root_of_the_modulus(modulus):
    L = fields.ExtensionField(F5, modulus)
    assert polys.eval_at(L, [L.embed(c) for c in modulus], L.gen) == L.zero


def test_squarefree_modulus_gives_the_product_ring():
    # F_13[u]/((u - 1)(u - 2)(u^2 + 2)) is F_13 x F_13 x F_169: reducing
    # modulo each factor is a ring map, and inv refuses zero divisors
    K = F13
    factors = [[K.neg(K.one), K.one], [K.from_int(-2), K.one],
               [K.from_int(2), K.zero, K.one]]
    m = [K.one]
    for f in factors:
        m = polys.mul(K, m, f)
    R = fields.ExtensionField(K, m)
    rng = random.Random(3)
    for _ in range(50):
        a, b = R.random_elem(rng), R.random_elem(rng)
        for f in factors:
            def red(x):
                return polys.rem(K, polys.trim(K, list(x)), f)
            assert red(R.mul(a, b)) == polys.rem(
                K, polys.mul(K, red(a), red(b)), f)
            assert red(R.add(a, b)) == polys.add(K, red(a), red(b))
        if all(polys.rem(K, polys.trim(K, list(a)), f) for f in factors):
            assert R.mul(a, R.inv(a)) == R.one
    with pytest.raises(ZeroDivisionError):
        R.inv(R.sub(R.gen, R.one))
    with pytest.raises(ZeroDivisionError):
        R.inv(R.add(R.mul(R.gen, R.gen), R.from_int(2)))


@pytest.mark.parametrize("n", [1, 2, 5, 12, 22])
def test_reduction_on_ints_matches_polynomial_remainder(n):
    rng = random.Random(n)
    K = fields.PrimeField(2003)
    m = [K.random_elem(rng) for _ in range(n)] + [K.one]
    R = fields.ExtensionField(K, m)
    for _ in range(20):
        c = polys.trim(K, [K.random_elem(rng) for _ in range(2 * n - 1)])
        want = polys.rem(K, c, m)
        assert R.reduce_product(c) == tuple(want + [K.zero] * (n - len(want)))
