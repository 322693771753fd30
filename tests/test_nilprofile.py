import pytest
from hypothesis import given, strategies as st

from pcurvature import fields, nilprofile
from oracles import rank_profile

F5 = fields.PrimeField(5)

T = [0, 1]
T2 = [0, 0, 1]
ONE = [1]


def test_rank_profile_type_trims_and_validates():
    assert nilprofile.RankProfile((5, 2, 0, 0)).ranks == (5, 2, 0)
    assert nilprofile.RankProfile((3,)).ranks == (3,)
    with pytest.raises(ValueError):
        nilprofile.RankProfile((2, 3))
    with pytest.raises(ValueError):
        # differences 1, 2 increase
        nilprofile.RankProfile((4, 3, 1, 0))


def test_profile_pins():
    assert nilprofile.profile_from_invariant_factors([T, T]).ranks == (2, 0)
    got = nilprofile.profile_from_invariant_factors([ONE, T, T2])
    assert got.ranks == (3, 1, 0)
    # bivariate encoding: coefficients are X-polynomials
    t2_bivar = [[], [], [[1]]]
    assert nilprofile.profile_from_invariant_factors([t2_bivar]).ranks \
        == (2, 1, 0)
    # no nilpotent part at all
    got2 = nilprofile.profile_from_invariant_factors([[1, 1]])
    assert got2.ranks == (0,)


def test_profile_with_explicit_zero():
    facs = [[F5.zero, F5.one], [F5.zero, F5.zero, F5.one]]
    got = nilprofile.profile_from_invariant_factors(facs, zero=F5.zero)
    assert got.ranks == (3, 1, 0)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_profile_invariants_from_random_valuations(vals):
    facs = [[0] * v + [1] for v in sorted(vals)]
    ranks = nilprofile.profile_from_invariant_factors(facs).ranks
    assert ranks[0] == sum(vals)
    assert ranks[-1] == 0
    assert len(ranks) == max(vals) + 1 if any(vals) else len(ranks) == 1


def _companion(K, f):
    n = len(f) - 1
    C = [[K.zero] * n for _ in range(n)]
    for i in range(n - 1):
        C[i][i + 1] = K.one
    for j in range(n):
        C[n - 1][j] = K.neg(f[j])
    return C


def test_profile_matches_rank_profile_of_companion_realization(rng):
    # rank(M^m) = (dim - dim of the 0-eigenspace) + nilpotent-part rank
    done = 0
    while done < 30:
        k = rng.randint(1, 4)
        vals = sorted(rng.randint(0, 3) for _ in range(k))
        extra = [rng.randint(0, 2) for _ in range(k)]
        facs, dim = [], 0
        for v, e in zip(vals, extra):
            unit = [F5.from_int(rng.randint(1, 4)) for _ in range(e)] \
                + [F5.one]
            facs.append([F5.zero] * v + unit)
            dim += v + e
        if dim == 0:
            continue
        blocks = [_companion(F5, f) for f in facs if len(f) > 1]
        n = sum(len(b) for b in blocks)
        M = [[F5.zero] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, x in enumerate(row):
                    M[off + i][off + j] = x
            off += len(b)
        rp = rank_profile(F5, M)
        shift = dim - sum(vals)
        got = nilprofile.profile_from_invariant_factors(
            facs, zero=F5.zero).ranks
        want = []
        m = 0
        while True:
            r = rp[m] if m < len(rp) else rp[-1]
            want.append(r - shift)
            if want[-1] == 0:
                break
            m += 1
        assert got == tuple(want)
        done += 1


def test_sym_power_rank_pins():
    assert nilprofile.sym_power_rank(2, 5) == 15
    assert nilprofile.sym_power_rank(2, 0) == 0
    assert nilprofile.sym_power_rank(3, 2) == 4
    with pytest.raises(ValueError):
        nilprofile.sym_power_rank(1, 3)
    with pytest.raises(ValueError):
        nilprofile.sym_power_rank(2, -1)


def test_feasibility_regression_from_application():
    profile = nilprofile.RankProfile((23, 17, 11, 6, 3, 0))
    hyp = nilprofile.FactorizationHypothesis(23, 2)
    res = nilprofile.feasibility_check(profile, hyp)
    assert not res.feasible
    assert res.witness is None
    forced = {tr.forced_profile for tr in res.trace if tr.forced_profile}
    assert (6, 5, 4, 3, 2, 0) in forced
    reasons = {tr.reason for tr in res.trace
               if tr.forced_profile == (6, 5, 4, 3, 2, 0)}
    assert any("increasing differences" in r for r in reasons)
    # every candidate (n, base size) gets an explanation
    assert {(tr.n, tr.base_size) for tr in res.trace} \
        == {(2, 6), (5, 3), (20, 2)}


def test_feasibility_finds_honest_witness():
    # ranks of Sym^2 of a nilpotent Jordan J_3: base profile (3, 2, 1, 0)
    ranks = tuple(nilprofile.sym_power_rank(2, b) for b in (3, 2, 1, 0))
    profile = nilprofile.RankProfile(ranks)
    hyp = nilprofile.FactorizationHypothesis(ranks[0], 0)
    res = nilprofile.feasibility_check(profile, hyp)
    assert res.feasible
    assert res.witness == (2, (3, 2, 1, 0))


def test_feasibility_dimension_mismatch_trace():
    profile = nilprofile.RankProfile((7, 3, 0))
    hyp = nilprofile.FactorizationHypothesis(7, 0, sym_power_candidates=(4,),
                                             base_size_candidates=(1,))
    res = nilprofile.feasibility_check(profile, hyp)
    assert not res.feasible
    assert res.trace
