import functools
import random

import pytest
from hypothesis import given, strategies as st

from pcurvature import (cli, diffop, extension, fields, linalg, local_eval,
                        polys, reconstruct, smith)
from pcurvature.errors import NotSquare
from oracles import (CountingPrimeField, divides, matmul_schoolbook,
                     matpoly_mul_schoolbook, matrix_factorial_sequential,
                     rank_profile)
from test_polys import tree_values

F5 = fields.PrimeField(5)
F101 = fields.PrimeField(101)
# F_5 and F_101 as the one-root split rings that a single point of each
# runs on: the factorial and the chain run on packed rings only
S5 = fields.SplitRing(F5, [0])
S101 = fields.SplitRing(F101, [0])

mat3 = st.lists(
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
    min_size=3, max_size=3,
).map(lambda M: [[F5.from_int(c) for c in row] for row in M])


class _PolyRing:
    """polys functions bound to one field, for the cofactor oracle."""

    def __init__(self, K):
        self.K = K

    def add(self, f, g):
        return polys.add(self.K, f, g)

    def sub(self, f, g):
        return polys.sub(self.K, f, g)

    def mul(self, f, g):
        return polys.mul(self.K, f, g)

    def neg(self, f):
        return polys.neg(self.K, f)


def _charpoly_cofactor(K, M):
    n = len(M)
    TM = [[polys.sub(K, [K.zero, K.one] if i == j else [], [M[i][j]])
           for j in range(n)] for i in range(n)]
    return _det(_PolyRing(K), TM)


def _det(R, M):
    if len(M) == 1:
        return M[0][0]
    acc = []
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = R.mul(M[0][j], _det(R, minor))
        acc = R.add(acc, R.neg(term) if j % 2 else term)
    return acc


def _companion(K, f):
    n = len(f) - 1
    C = [[K.zero] * n for _ in range(n)]
    for i in range(n - 1):
        C[i][i + 1] = K.one
    for j in range(n):
        C[n - 1][j] = K.neg(f[j])
    return C


def _split(M):
    """A matrix over F_5 as one over S5."""
    return [[S5.embed(c) for c in row] for row in M]


@given(mat3, mat3)
def test_matmul_matches_schoolbook(A, B):
    A, B = _split(A), _split(B)
    assert linalg.matmul(S5, A, B) == matmul_schoolbook(S5, A, B)


def test_matmul_dimension_check():
    with pytest.raises(Exception):
        linalg.matmul(S5, [[S5.one]], [[S5.one], [S5.one]])


@pytest.mark.parametrize("p", [5, 13, 101, 997])
def test_wilson_factorial(p):
    # (p-1)! = -1 mod p, as the product of the 1x1 matrices [u+1]
    K = fields.SplitRing(fields.PrimeField(p), [0])
    B = [[[K.one, K.one]]]
    got = linalg.matrix_factorial(K, B, p - 1)
    assert got == [[K.from_int(p - 1)]]


@pytest.mark.parametrize("count", [0, 1, 2, 15, 16, 50, 97, 100])
def test_matrix_factorial_matches_sequential(count, rng):
    B = [[polys.trim(S101, [S101.from_int(rng.randrange(101))
                            for _ in range(3)])
          for _ in range(2)] for _ in range(2)]
    got = linalg.matrix_factorial(S101, B, count)
    want = matrix_factorial_sequential(S101, B, count, polys.eval_at)
    assert got == want


def _polymat(L, rng, rows, cols, longest):
    """A rows x cols matrix of polynomials over L of random lengths up to
    `longest`, about one entry in five zero."""
    def entry():
        if rng.random() < 0.2:
            return []
        return polys.trim(L, [L.random_elem(rng)
                              for _ in range(rng.randint(1, longest))])
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _extension_of(K, degree):
    return extension.ExtensionField(K, fields.find_irreducible(K, degree))


def _extension(p, degree):
    """The ring that the point u of F_p[u]/(f) runs on, for a seeded
    irreducible f of that degree: the value form of F_p^degree at one
    point."""
    ell = _extension_of(fields.PrimeField(p), degree)
    return fields.SplitRing(ell, [ell.gen])


def _product_ring():
    # the points 1, 2 and a root u of u^2 + 2 over F_13, in value form
    # over F_169 = F_13[u]/(u^2 + 2): the ring F_13 x F_13 x F_169 that
    # F_13[u]/((u - 1)(u - 2)(u^2 + 2)) is, as the Monte Carlo driver
    # could draw them
    ell = extension.ExtensionField(fields.PrimeField(13), [2, 0, 1])
    return fields.SplitRing(ell, [ell.one, ell.from_int(2), ell.gen])


def _split_ring():
    # F_101[z]/((z - 0)(z - 3)(z - 17)(z - 55)(z - 100)) in value form, as
    # a batch of points of F_101 gets it
    return fields.SplitRing(F101, [0, 3, 17, 55, 100])


# a prime above 2^64, whose residues do not fit a machine integer: the
# packed rings keep their columns as lists
_P65 = 2 ** 64 + 13

_RINGS = {
    "F_101^1": lambda: _extension(101, 1),
    "F_101^3": lambda: _extension(101, 3),
    "F_263^25": lambda: _extension(263, 25),
    "product ring over F_13": _product_ring,
    "split ring over F_101": _split_ring,
    "F_(2^64+13)^2": lambda: _extension(_P65, 2),
    "split ring over F_(2^64+13)": lambda: fields.SplitRing(
        fields.PrimeField(_P65), [0, 5, _P65 - 1]),
    "F_101": lambda: S101,
}


def _matpoly_mul(L, A, B):
    """linalg.matpoly_mul of nested lists, through the row form that it
    takes and returns."""
    return L.matrix_of(linalg.matpoly_mul(L, L.rows_of(A), L.rows_of(B)))


@pytest.mark.parametrize("ring", sorted(_RINGS))
@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (3, 1, 2), (6, 6, 6)])
def test_matpoly_mul_matches_schoolbook(ring, shape, rng):
    L = _RINGS[ring]()
    rows, inner, cols = shape
    for longest in (1, 3, 9):
        A = _polymat(L, rng, rows, inner, longest)
        B = _polymat(L, rng, inner, cols, rng.randint(1, 9))
        assert _matpoly_mul(L, A, B) == matpoly_mul_schoolbook(L, A, B)


def test_matpoly_mul_worst_case_fills_every_slot(monkeypatch):
    # every coefficient p - 1: each slot holds the full sum of its products,
    # which is wider than a machine word, and at this size dropping the
    # inner dimension from the slot width makes the slot one byte short
    p = 1000000007
    K = fields.PrimeField(p)
    top = K.from_int(-1)
    slots = []
    unpack_bytes = fields._unpack_bytes

    def recording(buf, slot):
        slots.append(slot)
        return unpack_bytes(buf, slot)
    monkeypatch.setattr(fields, "_unpack_bytes", recording)
    # the slots at k = 1 have no factor for the point field's degree, so
    # its entries are longer
    for L, length in ((_extension(p, 3), 4),
                      (fields.SplitRing(K, [1, 2, p - 1]), 8)):
        full = [tuple([top] * 3)] * length
        A = [[full] * 4 for _ in range(2)]
        B = [[full] * 3 for _ in range(4)]
        slots.clear()
        assert _matpoly_mul(L, A, B) == matpoly_mul_schoolbook(L, A, B)
        assert max(slots) > 8


def test_matpoly_mul_kernel_needs_a_prime_base():
    # a point field is F_p or an extension of it: F_81 over F_9 is refused
    F9 = _extension_of(fields.PrimeField(3), 2)
    with pytest.raises(TypeError):
        extension.ExtensionField(F9, [F9.gen, F9.zero, F9.one])


@pytest.mark.parametrize("ring", [F101, _extension_of(F101, 2)], ids=str)
def test_factorial_refuses_a_ring_that_is_not_a_batch_ring(ring,
                                                            monkeypatch):
    # a field is not a batch ring: a typed error before any work
    monkeypatch.setattr(linalg, "baby_step_length", None)
    monkeypatch.setattr(linalg, "identity", None)
    one, zero = ring.one, ring.zero
    with pytest.raises(TypeError):
        linalg.matrix_factorial(ring, [[[one, one]]], 100)
    with pytest.raises(TypeError):
        linalg.matmul(ring, [[one, zero]], [[one], [one]])


def test_matpoly_mul_reduces_once_per_output_coefficient(monkeypatch, rng):
    L = _extension(263, 25)
    A = [[[L.random_elem(rng) for _ in range(5)] for _ in range(6)]
         for _ in range(4)]
    B = [[[L.random_elem(rng) for _ in range(5)] for _ in range(3)]
         for _ in range(6)]
    calls = []
    reduce_blocks = extension.ExtensionField.reduce_blocks

    def counting(self, vals):
        # blocks of 2k - 1 slots, one per output coefficient reduced
        calls.append(len(vals) // (2 * self.degree - 1))
        return reduce_blocks(self, vals)
    monkeypatch.setattr(extension.ExtensionField, "reduce_blocks", counting)
    out = _matpoly_mul(L, A, B)
    length = max(len(e) for row in out for e in row)
    assert length == 9
    # one product at a time would reduce 4 * 3 * 6 * 9 times; a row of
    # the product at a time keeps the values of 3 entries alive, not 12
    assert 0 < sum(calls) <= 4 * 3 * length
    assert calls == [3 * length] * 4


_PACKED = ["F_101^1", "F_101^3", "F_263^25", "product ring over F_13",
           "split ring over F_101", "F_(2^64+13)^2",
           "split ring over F_(2^64+13)"]

_MULTIPOINT_RINGS = {f"F_{p}^{n}": functools.partial(_extension, p, n)
                     for p in (101, 263) for n in (1, 12, 25)}
_MULTIPOINT_RINGS["product ring over F_13"] = _product_ring
_MULTIPOINT_RINGS["split ring over F_101"] = _split_ring


def _horner_coords(L, f, a):
    """f(a) for a in F_p, which acts on each u-coordinate alone: one
    Horner evaluation over F_p per coordinate."""
    p, out = L.char, []
    for k in range(L.degree):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c[k]) % p
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("ring", sorted(_MULTIPOINT_RINGS))
def test_packed_multipoint_matches_pointwise(ring, rng):
    L = _MULTIPOINT_RINGS[ring]()
    p = L.base.p
    # odd counts carry nodes up the tree; over F_13, 31 points repeat;
    # from 33 points on, nodes above the base case divide before the
    # direct evaluation below it
    for count in (1, 2, 7, 8, 9, 31, 33, 64, 100, 257):
        xs = [rng.randrange(p) for _ in range(count)]
        tree = polys.SubproductTree(L, xs)
        # long (first, so that later entries reuse node inverses of more
        # precision than they need), zero, constant, zero coefficients
        # inside, and short (fewer coefficients than points) entries,
        # alone and all in one call
        zero_inside = [L.random_elem(rng), L.zero, L.zero, L.one]
        fs = [polys.trim(L, f) for f in (
            [L.random_elem(rng) for _ in range(2 * count + 3)],
            [], [L.random_elem(rng)], zero_inside,
            [L.random_elem(rng) for _ in range(max(count - 1, 1))])]
        want = [[_horner_coords(L, f, a) for a in xs] for f in fs]
        assert tree_values(tree, fs) == want
        for f, w in zip(fs, want):
            assert tree_values(tree, [f]) == [w]


def test_packed_multipoint_worst_case_is_wider_than_a_machine_word(
        monkeypatch, rng):
    # every coefficient p - 1, at 64 points: the root divides and its
    # children evaluate its length-64 remainder directly.  The slots of
    # both hold more than 8 bytes, and at this size leaving the quotient
    # length k out of the quotient's slot width, or the row length out of
    # the direct step's, makes them too narrow
    p = 1000000007
    L = _extension(p, 3)
    f = [tuple([p - 1] * 3)] * 128
    xs = [rng.randrange(p) for _ in range(64)]
    slots = {}
    unpack = fields._unpack

    def kernel(name):
        method = getattr(fields.SplitRing, name)

        def recording(self, *args):
            def unpacking(x, slot, count):
                slots.setdefault(name, []).append(slot)
                return unpack(x, slot, count)
            monkeypatch.setattr(fields, "_unpack", unpacking)
            try:
                return method(self, *args)
            finally:
                monkeypatch.setattr(fields, "_unpack", unpack)
        monkeypatch.setattr(fields.SplitRing, name, recording)
    kernel("rows_rem")
    kernel("rows_at")
    got = tree_values(polys.SubproductTree(L, xs), [f])
    assert min(max(slots["rows_rem"]), max(slots["rows_at"])) > 8
    assert got == [[polys.eval_at(L, f, L.from_int(x)) for x in xs]]


def test_rows_rem_second_product_is_wider_than_a_machine_word(
        monkeypatch, rng):
    # rows Q m + R over F_p, with every coefficient of Q equal to p - 1
    # and m monic with its lower coefficients 1: the reduced quotient
    # slots and -m both hold p - 1, so a slot of the second product sums
    # min(k, d) = 24 products of (p - 1)^2, more than 8 bytes, and
    # leaving min(k, d) out of its width makes it too narrow
    p = 1000000007
    K = fields.PrimeField(p)
    L = fields.SplitRing(K, [1, 2, 3])
    d = k = 24
    m = [1] * (d + 1)
    Qm = polys.mul(K, [p - 1] * k, m)
    rows = [polys.add(K, Qm, [rng.randrange(p) for _ in range(d)])
            for _ in range(5)]
    assert {len(row) for row in rows} == {d + k}
    cols = [fields._column([row[i] for row in rows], p)
            for i in range(d + k)]
    slots = []
    unpack = fields._unpack

    def recording(x, slot, count):
        slots.append(slot)
        return unpack(x, slot, count)
    inverse = polys.series_inv(K, m[::-1], k)
    monkeypatch.setattr(fields, "_unpack", recording)
    got = L.rows_rem(cols, m, inverse)
    monkeypatch.undo()
    assert len(slots) == 2 and min(slots) > 8
    assert [polys.trim(K, [col[r] for col in got])
            for r in range(len(rows))] == [polys.rem(K, row, m)
                                           for row in rows]


def _packed_multipoint_cost(count, monkeypatch):
    """Base-field operations, slots unpacked and the direct step's
    multiply-adds (a row's length per row and point) of one packed
    evaluation of a polynomial of length 2*count at count points."""
    K = CountingPrimeField(10007)
    ell = extension.ExtensionField(K, fields.find_irreducible(K, 4))
    L = fields.SplitRing(ell, [ell.gen])
    rng = random.Random(count)
    f = [L.random_elem(rng) for _ in range(2 * count)]
    cost = [0]
    unpack, rows_at = fields._unpack, fields.SplitRing.rows_at

    def counting(x, slot, n):
        cost[0] += n
        return unpack(x, slot, n)

    def direct(self, cols, points):
        cost[0] += len(cols) * len(cols[0]) * len(points)
        return rows_at(self, cols, points)
    monkeypatch.setattr(fields, "_unpack", counting)
    monkeypatch.setattr(fields.SplitRing, "rows_at", direct)
    K.ops = 0
    tree_values(polys.SubproductTree(L, range(0, 37 * count, 37)), [f])
    monkeypatch.undo()
    return K.ops + cost[0]


def test_packed_multipoint_cost_grows_quasi_linearly(monkeypatch):
    # 4x the points and degree: a quadratic method gives 16x, and so does
    # evaluating every point directly; the tree measured 4.55x and 4.49x
    # (a log factor over linear)
    small = _packed_multipoint_cost(32, monkeypatch)
    middle = _packed_multipoint_cost(128, monkeypatch)
    large = _packed_multipoint_cost(512, monkeypatch)
    assert middle <= 6 * small, (small, middle)
    assert large <= 6 * middle, (middle, large)


@pytest.mark.parametrize("ring", _PACKED)
@pytest.mark.parametrize("count", [15, 16, 64, 100])
def test_matrix_factorial_over_packed_rings_matches_sequential(
        ring, count, rng, monkeypatch):
    # every entry of the baby-step product goes down one tree together:
    # one evaluate call per factorial, not one per entry
    L = _RINGS[ring]()
    B = [[polys.trim(L, [L.random_elem(rng) for _ in range(3)])
          for _ in range(2)] for _ in range(2)]
    calls = []
    evaluate = polys.SubproductTree.evaluate

    def counting(self, fs):
        calls.append(len(fs.entries))
        at = evaluate(self, fs)
        # one list per point, of one value per entry: the giant steps'
        # layout
        assert len(at) == len(self.points)
        assert {len(vals) for vals in at} == {len(fs.entries)}
        return at
    monkeypatch.setattr(polys.SubproductTree, "evaluate", counting)
    got = linalg.matrix_factorial(L, B, count)
    monkeypatch.undo()
    assert calls == ([4] if count >= 16 else [])
    assert got == matrix_factorial_sequential(L, B, count, polys.eval_at)


@pytest.mark.parametrize("ring", ["split ring over F_101", "F_101^3"])
def test_matrix_factorial_evaluates_a_node_at_a_time(ring, rng,
                                                     monkeypatch):
    # count = 4000: s = 32, g = 125, and P_s of degree-1 B has entries of
    # 33 coefficients, which no node of 64 points or more divides, so the
    # giant steps take the values of 64 points at a time, each point once
    L = _RINGS[ring]()
    B = [[[L.random_elem(rng), L.one] for _ in range(2)] for _ in range(2)]
    trees = []
    evaluate = polys.SubproductTree.evaluate
    monkeypatch.setattr(polys.SubproductTree, "evaluate",
                        lambda self, fs: trees.append(self.points)
                        or evaluate(self, fs))
    got = linalg.matrix_factorial(L, B, 4000)
    monkeypatch.undo()
    assert [len(points) for points in trees] == [64, 61]
    assert [a for points in trees for a in points] == list(
        range(0, 4000 - 4000 % 32, 32))
    assert got == matrix_factorial_sequential(L, B, 4000, polys.eval_at)


@pytest.mark.parametrize("ring", sorted(_RINGS))
@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 100])
def test_matrix_factorial_times_right_columns(ring, count, rng):
    # the giant steps and leftover factors multiply N x N by N x r
    L = _RINGS[ring]()
    B = [[polys.trim(L, [L.random_elem(rng) for _ in range(3)])
          for _ in range(3)] for _ in range(3)]
    right = [[L.random_elem(rng) for _ in range(2)] for _ in range(3)]
    full = matrix_factorial_sequential(L, B, count, polys.eval_at)
    got = linalg.matrix_factorial(L, B, count, right)
    assert got == matmul_schoolbook(L, full, right)


_LONG_ENTRY_RINGS = {
    "split ring over F_17": lambda: fields.SplitRing(
        fields.PrimeField(17), [0, 5, 16]),
    "F_17^3": lambda: _extension(17, 3),
    "F_9": lambda: _extension(3, 2),
}


@pytest.mark.parametrize("ring", sorted(_LONG_ENTRY_RINGS))
def test_matrix_factorial_of_entries_longer_than_p(ring, rng, monkeypatch):
    # at count 100, s = 4: the doubling shifts entries of length 19 > 17,
    # where the factorials of the convolution are not all units
    L = _LONG_ENTRY_RINGS[ring]()
    lengths = []
    taylor_shift = polys.taylor_shift

    def recording(K, f, a):
        lengths.append(len(f))
        return taylor_shift(K, f, a)
    monkeypatch.setattr(polys, "taylor_shift", recording)
    for _ in range(5):
        B = [[[L.random_elem(rng) for _ in range(9)] + [L.one]
              for _ in range(2)] for _ in range(2)]
        got = linalg.matrix_factorial(L, B, 100)
        assert got == matrix_factorial_sequential(L, B, 100, polys.eval_at)
    assert max(lengths) > L.char


def _det_sys_batch():
    """Ring, recurrence matrix and corner of det-sys's batch: the 29 points
    1 ... 29 of F_263 of det's budget F + D + 1 (all evaluated when its
    first 5 points are not all cyclic), as local_eval builds them for the
    companion system of the workload operator (x^2 + 1) Dx^2 + x Dx + 1."""
    K = fields.PrimeField(263)
    ring = fields.SplitRing(K, range(1, 30))
    x2p1 = (K.one, K.zero, K.one)
    inp = diffop.DiffSystem(K, x2p1, (((), x2p1),
                                      ((K.neg(K.one),), (K.zero,
                                                         K.neg(K.one)))))
    rec = local_eval.build_B_system(inp, ring, ring.gen)
    return ring, rec.entries, rec.corner


def test_baby_step_length_is_the_largest_power_of_two_square(monkeypatch):
    # the picks at sym2 + Gauss's det prime 31, the bench's primes (det-sys
    # 263, det-op 1019, mc-op 2003), c07's 10007 and the ladder's ends
    picks = {31: 4, 263: 16, 1019: 16, 2003: 32, 10007: 64, 65539: 256,
             2 ** 24 + 43: 4096}
    assert {count: linalg.baby_step_length(count)
            for count in picks} == picks
    for count in range(16, 5000):
        s = linalg.baby_step_length(count)
        assert s.bit_count() == 1 and s * s <= count < 4 * s * s, count
    # no clock: det-sys's factorial (N = 6, r = 2, count = 263, s = 16)
    # takes log2(s) = 4 products and one leftover evaluation per set bit
    # of 263 mod 16 = 7, three in all
    ring, B, r = _det_sys_batch()
    assert (len(B), len(ring.gen), r) == (6, 29, 2)
    calls = {"matpoly_mul": 0, "_chain_at": 0}
    for name in calls:
        fn = getattr(linalg, name)

        def counting(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(linalg, name, counting)
    n = len(B)
    right = [row[n - r:] for row in linalg.identity(ring, n)]
    linalg.matrix_factorial(ring, B, 263, right)
    assert calls == {"matpoly_mul": 4, "_chain_at": 3}


@pytest.mark.parametrize("ring", sorted(_RINGS))
@pytest.mark.parametrize("s, count", [(16, 111), (8, 23), (1, 16)])
def test_matrix_factorial_leftovers_as_chain_prefixes(ring, s, count, rng,
                                                      monkeypatch):
    # at a forced s the leftover factors go as evaluations of P_8, P_4, P_2
    # and B, of P_4, P_2 and B, and not at all
    L = _RINGS[ring]()
    B = [[polys.trim(L, [L.random_elem(rng) for _ in range(3)])
          for _ in range(2)] for _ in range(2)]
    monkeypatch.setattr(linalg, "baby_step_length", lambda *args: s)
    got = linalg.matrix_factorial(L, B, count)
    assert got == matrix_factorial_sequential(L, B, count, polys.eval_at)


@pytest.mark.parametrize("s", [1, 2, 4, 16, 32, 64, 128])
def test_leftover_parts_are_chain_prefixes(s):
    # every t < s splits into distinct prefixes s >> j of the doubling
    # chain, largest first: its set bits
    prefixes = {s >> j for j in range(1, s.bit_length())}
    for t in range(s):
        parts = linalg._leftover_parts(t)
        assert sum(parts) == t
        assert set(parts) <= prefixes
        assert parts == sorted(set(parts), reverse=True)


@pytest.mark.parametrize("ring", sorted(_RINGS))
def test_taylor_shift_matches_halves(ring, rng):
    # packed rings shift a whole matrix by an F_p constant in one kernel
    # (shift_rows), as long as its entries are no longer than p; every
    # other shift takes the halves algorithm
    L = _RINGS[ring]()
    for length in (2, 5, 9, 14, 40):
        f = [L.random_elem(rng) for _ in range(length - 1)] + [L.one]
        # a zero entry and entries of unequal length
        M = [[f, [], polys.trim(L, f[:length // 2])],
             [[L.one], f[1:], f]]
        c = rng.randrange(1, L.char)
        for a in (L.from_int(c), L.random_elem(rng)):
            want = polys._shift_by_halves(L, f, a)
            assert polys.taylor_shift(L, f, a) == want
            if a == L.from_int(c) and length <= L.char:
                got = L.shift_rows(L.rows_of(M), c)
                assert L.matrix_of(got) == [
                    [polys._shift_by_halves(L, e, a) for e in row]
                    for row in M]


def test_packed_taylor_shift_worst_case_is_wider_than_a_machine_word(
        monkeypatch):
    # every coefficient p - 1: a slot sums 20 products of residues, more
    # than 8 bytes, and without the length in the slot width it overflows
    p = 1000000007
    K = fields.PrimeField(p)
    slots = []
    unpack_bytes = fields._unpack_bytes

    def recording(buf, slot):
        slots.append(slot)
        return unpack_bytes(buf, slot)
    for L in (_extension(p, 3), fields.SplitRing(K, [1, 2, p - 1])):
        f = [tuple([p - 1] * 3)] * 20
        # a zero entry and a shorter one beside the full ones
        M = [[f, []], [f[:7], f]]
        for c in (1, 12345, p - 1):
            a = L.from_int(c)
            want = [[polys._shift_by_halves(L, e, a) for e in row]
                    for row in M]
            rows = L.rows_of(M)
            slots.clear()
            monkeypatch.setattr(fields, "_unpack_bytes", recording)
            got = L.shift_rows(rows, c)
            monkeypatch.undo()
            assert L.matrix_of(got) == want
            assert slots and max(slots) > 8


def test_baby_steps_shift_each_matrix_once(monkeypatch):
    # det-sys's batch: one whole-matrix shift per doubling, and no shift
    # of a single entry
    ring, B, r = _det_sys_batch()
    s = linalg.baby_step_length(263)
    calls, singles = [], []
    shift_rows = fields.SplitRing.shift_rows
    taylor_shift = polys.taylor_shift

    def counting(self, R, c):
        calls.append(len(R.entries))
        return shift_rows(self, R, c)

    def single(K, f, a):
        singles.append(len(f))
        return taylor_shift(K, f, a)
    monkeypatch.setattr(fields.SplitRing, "shift_rows", counting)
    monkeypatch.setattr(polys, "taylor_shift", single)
    n = len(B)
    right = [row[n - r:] for row in linalg.identity(ring, n)]
    linalg.matrix_factorial(ring, B, 263, right)
    assert len(calls) == s.bit_length() - 1, s
    assert singles == []
    # the per-entry kernels are gone, and a packed ring's polys.taylor_shift
    # by a constant takes the halves algorithm
    assert not hasattr(extension.ExtensionField, "coords_shift")
    assert not hasattr(fields.SplitRing, "_split")
    halves = []
    monkeypatch.setattr(polys, "_shift_by_halves",
                        lambda K, f, a: halves.append(len(f)) or f)
    taylor_shift(ring, [ring.one] * 3, ring.from_int(5))
    assert halves == [3]


@pytest.mark.parametrize("ring", _PACKED)
@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (6, 6, 6)])
def test_matmul_over_packed_rings_matches_schoolbook(ring, shape, rng):
    L = _RINGS[ring]()
    rows, inner, cols = shape

    def mat(r, c):
        return [[L.zero if rng.random() < 0.2 else L.random_elem(rng)
                 for _ in range(c)] for _ in range(r)]
    A, B = mat(rows, inner), mat(inner, cols)
    assert linalg.matmul(L, A, B) == matmul_schoolbook(L, A, B)


def test_packed_matmul_of_zero_divisors(monkeypatch):
    L = _product_ring()
    u = L.gen
    a = L.sub(u, L.one)
    # (u - 1) * b is the modulus, so zero
    b = L.mul(L.sub(u, L.from_int(2)), L.add(L.mul(u, u), L.from_int(2)))
    A = [[a, a], [b, L.one]]
    B = [[b, a], [b, L.zero]]
    # the giant steps must not count as polynomial products
    monkeypatch.setattr(linalg, "matpoly_mul", None)
    got = linalg.matmul(L, A, B)
    assert got == matmul_schoolbook(L, A, B)
    assert got[0][0] == L.zero and a != L.zero and b != L.zero


@pytest.mark.parametrize("ring", [
    "split ring over F_101", "product ring over F_13", "F_(2^64+13)^2",
    "F_101"])
@pytest.mark.parametrize("r", [1, 4])
def test_chain_matches_repeated_schoolbook_products(ring, r, rng):
    # 4 x 4 steps whose row 1 and column 2 are zero, the rest of the
    # pattern at random, times 4 x r, for 1 to 5 steps
    L = _RINGS[ring]()
    N = 4
    cells = [(i, k) for i in range(N) for k in range(N)
             if i != 1 and k != 2 and rng.random() < 0.7]
    pattern = [[] for _ in range(N)]
    for q, (i, k) in enumerate(cells):
        pattern[i].append((k, q))
    acc = [[L.random_elem(rng) for _ in range(r)] for _ in range(N)]
    for g in range(1, 6):
        steps = [[L.random_elem(rng) for _ in cells] for _ in range(g)]
        want = acc
        for vals in steps:
            M = [[L.zero] * N for _ in range(N)]
            for (i, k), v in zip(cells, vals):
                M[i][k] = v
            want = matmul_schoolbook(L, M, want)
        assert L.chain(pattern, steps, acc) == want
    # no pair at all: every step is zero
    zero = [[L.zero] * r for _ in range(N)]
    assert L.chain([[] for _ in range(N)], [[]], acc) == zero


def test_det_solve_chains_the_giant_steps(monkeypatch):
    # det-op's solve: its one factorial (s = 16, g = 63, entries of P_s
    # shorter than 32) evaluates P_s at the giant-step points in order,
    # each once, one tree per base case of 32 points, and neither the
    # giant steps nor the leftover runs go through linalg.matmul
    K = fields.PrimeField(1019)
    op = cli.parse_operator("(x^2+1)*Dx^2 + x*Dx + 1", K)
    calls = {"matrix_factorial": 0, "matmul": 0}
    trees = []

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)
    counting(linalg, "matrix_factorial")
    counting(linalg, "matmul")
    evaluate = polys.SubproductTree.evaluate
    monkeypatch.setattr(polys.SubproductTree, "evaluate",
                        lambda self, fs: trees.append(self.points)
                        or evaluate(self, fs))
    reconstruct.reconstruct_deterministic(op, 1019)
    monkeypatch.undo()
    assert calls == {"matrix_factorial": 1, "matmul": 0}
    assert [len(points) for points in trees] == [32, 31]
    assert [a for points in trees for a in points] == list(
        range(0, 63 * 16, 16))


def test_matrix_factorial_requires_square():
    with pytest.raises(NotSquare):
        linalg.matrix_factorial(S5, [[[S5.one]], [[S5.one]]], 3)


def test_invariant_factors_zero_matrix():
    Z = [[F5.zero, F5.zero], [F5.zero, F5.zero]]
    T = [F5.zero, F5.one]
    assert linalg.invariant_factors_of(F5, Z) == [T, T]


def test_invariant_factors_single_jordan_block():
    N = [[F5.zero, F5.one], [F5.zero, F5.zero]]
    assert linalg.invariant_factors_of(F5, N) == [
        [F5.one], [F5.zero, F5.zero, F5.one]]


def test_invariant_factors_of_companion_matrix(rng):
    for _ in range(10):
        f = [F5.from_int(rng.randrange(5)) for _ in range(4)] + [F5.one]
        C = _companion(F5, f)
        facs = linalg.invariant_factors_of(F5, C)
        assert facs == [[F5.one]] * 3 + [f]


F2, F7 = fields.PrimeField(2), fields.PrimeField(7)
F49 = extension.ExtensionField(F7, fields.find_irreducible(F7, 2))


def _smith_factors(K, A):
    return smith.smith_form(K, smith.char_matrix(K, A))


def _counting_smith(monkeypatch):
    # invariant_factors_of looks smith_form up on the smith module
    calls = []
    smith_form = smith.smith_form

    def counting(K, M):
        calls.append(M)
        return smith_form(K, M)
    monkeypatch.setattr(smith, "smith_form", counting)
    return calls


def _block_sum(K, *blocks):
    n = sum(map(len, blocks))
    out, at = [[K.zero] * n for _ in range(n)], 0
    for blk in blocks:
        for i, row in enumerate(blk):
            out[at + i][at:at + len(row)] = row
        at += len(blk)
    return out


def _jordan(K, a, n):
    return [[a if i == j else K.one if j == i + 1 else K.zero
             for j in range(n)] for i in range(n)]


def _jordan_sum(K, r, rng):
    # blocks of sizes summing to r over at most two eigenvalues, so the
    # eigenvalues repeat
    eigen = [K.elem(rng.randrange(K.q)) for _ in range(2)]
    blocks, left = [], r
    while left:
        n = rng.randint(1, left)
        blocks.append(_jordan(K, rng.choice(eigen), n))
        left -= n
    return _block_sum(K, *blocks)


def _conjugate(K, A, rng):
    """U A U^-1 for a random invertible U."""
    r = len(A)
    while True:
        U = [[K.elem(rng.randrange(K.q)) for _ in range(r)]
             for _ in range(r)]
        if smith.LinearSolver(K, U).rank == r:
            return matmul_schoolbook(K, U, matmul_schoolbook(
                K, A, _inverse(K, U)))


def _class_test_matrices(K, r, rng):
    """(kind, A, B) with B similar to A, whose Smith form is the
    reference: B is A, except for a conjugated Jordan sum, where it is
    the Jordan sum itself.  The Smith form of T*I - A takes up to
    seconds on some dense random matrices from r = 11 on (minutes over
    F_49), so the dense random case stops at r = 10; the conjugated
    Jordan sums are dense at every size."""
    def rand(keep):
        return [[K.elem(rng.randrange(K.q)) if keep(i, j) else K.zero
                 for j in range(r)] for i in range(r)]
    c = K.elem(rng.randrange(K.q))
    mats = [("sparse", rand(lambda i, j: rng.random() < 0.25)),
            ("strictly upper", rand(
                lambda i, j: j > i and rng.random() < 0.4)),
            ("scalar", [[c if i == j else K.zero for j in range(r)]
                        for i in range(r)]),
            ("zero", [[K.zero] * r for _ in range(r)])]
    if r <= 10:
        mats.append(("dense", rand(lambda i, j: True)))
    for kind, A in mats:
        yield kind, A, A
    if r:
        J = _jordan_sum(K, r, rng)
        yield "conjugated Jordan sum", _conjugate(K, J, rng), J


@pytest.mark.parametrize("K", [F2, F5, F7, F49], ids=str)
def test_invariant_factors_by_cyclic_vector_match_smith_form(K, rng):
    # the one class routine against the Smith form of T*I - A, at every
    # size 0 to 12: random dense and sparse matrices, strictly upper ones
    # (nilpotent, often with several Jordan blocks), scalar and zero
    # matrices, and Jordan sums with repeated eigenvalues in a random basis
    for r in [r for r in range(13) for _ in range(2)]:
        for kind, A, B in _class_test_matrices(K, r, rng):
            assert (linalg.invariant_factors_of(K, A)
                    == _smith_factors(K, B)), (kind, A)


@pytest.mark.parametrize("K", [F5, F49], ids=str)
def test_invariant_factors_of_derogatory_matrices(K, monkeypatch):
    # no vector is cyclic, so every one of these has a Krylov relation
    # matrix of two blocks or more for the Smith form
    a, b = K.from_int(2), K.from_int(3)
    f = [K.from_int(1), K.from_int(4), K.one]   # a square-free quadratic
    g = polys.mul(K, f, [K.neg(b), K.one])
    cases = [
        _block_sum(K, [[a]], [[a]], [[a]]),                # scalar
        _block_sum(K, _jordan(K, a, 2), _jordan(K, a, 1)),
        _block_sum(K, _jordan(K, a, 2), _jordan(K, a, 2)),
        _block_sum(K, _jordan(K, a, 3), [[a]]),
        _block_sum(K, _companion(K, f), _companion(K, g)),  # shared factor f
    ]
    calls = _counting_smith(monkeypatch)
    for A in cases:
        got = linalg.invariant_factors_of(K, A)
        assert sum(1 for e in got if len(e) > 1) > 1, got
        assert got == _smith_factors(K, A)
    # one Smith form per matrix from the class routine, one from
    # _smith_factors, and none for a cyclic matrix
    assert len(calls) == 2 * len(cases)
    assert linalg.invariant_factors_of(K, _companion(K, g)) == [
        [K.one], [K.one], g]
    assert len(calls) == 2 * len(cases)


def test_one_krylov_decomposition_per_class(monkeypatch):
    # companion(f) + companion(g) at r = 6 with f | g: one Krylov vector
    # per dimension of each of its m = 2 blocks, at most r + m products
    # by A, and one Smith form of the 2 x 2 relation matrix, whose
    # diagonal degrees sum to r
    K = F5
    f = [K.from_int(1), K.from_int(4), K.one]
    g = polys.mul(K, polys.mul(K, f, [K.from_int(3), K.one]),
                  [K.from_int(2), K.one])
    A = _block_sum(K, _companion(K, f), _companion(K, g))
    r = len(A)
    products = [0]
    matvec = linalg.matvec

    def counting(*args):
        products[0] += 1
        return matvec(*args)
    monkeypatch.setattr(linalg, "matvec", counting)
    calls = _counting_smith(monkeypatch)
    got = linalg.invariant_factors_of(K, A)
    monkeypatch.undo()
    assert got == [[K.one]] * 4 + [f, g] == _smith_factors(K, A)
    assert products[0] <= r + 2
    [M] = calls
    assert len(M) == 2 and all(len(row) == 2 for row in M)
    assert sum(len(polys.trim(K, M[i][i])) - 1 for i in range(2)) == r


@given(mat3)
def test_invariant_factor_product_is_charpoly(M):
    facs = linalg.invariant_factors_of(F5, M)
    prod = [F5.one]
    for f in facs:
        prod = polys.mul(F5, prod, f)
    assert prod == _charpoly_cofactor(F5, M)
    # ascending divisibility chain
    for a, b in zip(facs, facs[1:]):
        assert divides(F5, a, b)


@given(mat3, st.integers(0, 10 ** 6))
def test_invariant_factors_similarity_invariant(M, seed):
    rng = random.Random(seed)
    while True:
        U = [[F5.from_int(rng.randrange(5)) for _ in range(3)]
             for _ in range(3)]
        if smith.LinearSolver(F5, U).rank == 3:
            break
    Uinv = _inverse(F5, U)
    conj = matmul_schoolbook(F5, U, matmul_schoolbook(F5, M, Uinv))
    assert (linalg.invariant_factors_of(F5, conj)
            == linalg.invariant_factors_of(F5, M))


def _inverse(K, U):
    n = len(U)
    solver = smith.LinearSolver(K, U)
    cols = []
    for j in range(n):
        e = [K.one if i == j else K.zero for i in range(n)]
        cols.append(solver.solve(e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def test_linear_solver_solves_consistent_systems(rng):
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = [[F5.from_int(rng.randrange(5)) for _ in range(n)]
             for _ in range(m)]
        x = [F5.from_int(rng.randrange(5)) for _ in range(n)]
        v = linalg.matvec(F5, M, x)
        got = smith.LinearSolver(F5, M).solve(v)
        assert got is not None
        assert linalg.matvec(F5, M, got) == v


def test_linear_solver_detects_inconsistency():
    M = [[F5.one, F5.zero], [F5.one, F5.zero]]
    v = [F5.one, F5.from_int(2)]
    assert smith.LinearSolver(F5, M).solve(v) is None


def test_kernel_dims_match_valuations_of_invariant_factors(rng):
    # dim ker N^e = 4 - rank(N^e) = sum_j min(e, v_j), with v_j the T-adic
    # valuations; the ranks come from the independent oracle
    for _ in range(30):
        N = [[F5.from_int(rng.randrange(5)) if j > i else F5.zero
              for j in range(4)] for i in range(4)]
        facs = linalg.invariant_factors_of(F5, N)
        vals = []
        for f in facs:
            v = 0
            while v < len(f) and f[v] == F5.zero:
                v += 1
            vals.append(v)
        ranks = rank_profile(F5, N)
        for e in range(5):
            got = 4 - ranks[min(e, len(ranks) - 1)]
            assert got == sum(min(e, v) for v in vals)


def test_rank_profile_pins():
    M = [[F5.zero] * 3 for _ in range(3)]
    M[1][2] = F5.one
    assert rank_profile(F5, M) == (3, 1, 0)
    I2 = linalg.identity(F5, 2)
    assert rank_profile(F5, I2) == (2,)


@given(mat3)
def test_rank_profile_differences_nonincreasing(M):
    ranks = rank_profile(F5, M)
    diffs = [a - b for a, b in zip(ranks, ranks[1:])]
    assert all(d >= 0 for d in diffs)
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))
