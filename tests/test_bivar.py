import pytest
from hypothesis import given, strategies as st

from pcurvature import bivar, fields, linalg, polys
from pcurvature.errors import NotInXp

F5 = fields.PrimeField(5)

mat3 = st.lists(
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
    min_size=3, max_size=3,
).map(lambda M: [[F5.from_int(c) for c in row] for row in M])


def test_trim_and_degrees():
    # deg_T counts T-coefficients, including ones that are zero in X
    assert bivar.deg_T([[F5.one], [F5.one]]) == 1
    assert bivar.deg_T([[F5.zero, F5.one]]) == 0
    assert bivar.deg_T([[], [F5.one]]) == 1


@given(mat3, st.integers(1, 4))
def test_scale_similarity_matches_scaled_matrix(M, c):
    # the invariant factors of c*M are the twisted factors of M
    ce = F5.from_int(c)
    scaled = [[F5.mul(ce, a) for a in row] for row in M]
    want = linalg.invariant_factors_of(F5, scaled)
    got = [bivar.scale_similarity(F5, f, ce)
           for f in linalg.invariant_factors_of(F5, M)]
    assert got == want


def test_scale_similarity_pin():
    # T^2 + 3T + 2 under c = 2: T^2 + 2*3 T + 4*2
    f = [F5.from_int(2), F5.from_int(3), F5.one]
    got = bivar.scale_similarity(F5, f, F5.from_int(2))
    assert got == [F5.from_int(3), F5.from_int(1), F5.one]


def test_compress_expand_round_trip():
    p = 5
    f = [F5.zero] * 10 + [F5.from_int(3)]
    f[0] = F5.one
    f[5] = F5.from_int(2)
    g = bivar.compress_xp(F5, f, p)
    assert g == [F5.one, F5.from_int(2), F5.from_int(3)]
    back = [F5.zero] * len(f)
    back[::p] = g  # substitute X = x^p
    assert back == f


def test_compress_rejects_stray_exponents():
    f = [F5.zero, F5.one]
    with pytest.raises(NotInXp):
        bivar.compress_xp(F5, f, 5)


def test_evaluate_at_X():
    # T^2 + (X+1)T + 2X at X = 3: T^2 + 4T + 6
    bp = [[F5.zero, F5.from_int(2)], [F5.one, F5.one], [F5.one]]
    got = bivar.evaluate_at_X(F5, F5, bp, F5.from_int(3), lambda c: c)
    assert got == [F5.from_int(1), F5.from_int(4), F5.one]


def test_format_bivar_pins():
    assert bivar.format_bivar(F5, []) == "0"
    assert bivar.format_bivar(F5, [[F5.one]]) == "1"
    assert bivar.format_bivar(F5, [[], [F5.one]]) == "T"
    bp = [[F5.zero, F5.one], [F5.one, F5.one], [F5.one]]
    assert bivar.format_bivar(F5, bp) == "T^2 + (X + 1)*T + X"
    bp2 = [[F5.from_int(2)], [F5.from_int(3)], [F5.one]]
    assert bivar.format_bivar(F5, bp2) == "T^2 + 3*T + 2"
