import pytest
from hypothesis import given, settings, strategies as st

from avoidance import pairset as ps
from avoidance.pairset import (
    IntervalWord, KeyParams, MaximalityTieError, PairSet, a_max,
    all_full_pair_sets, all_partial_pair_sets, fill_interval, full_extensions,
    is_r_maximal, is_r_minimal, key_params, lex_compare, maximal_point,
    restrict, run_suite, verify_key_params,
)

from oracles import ref_is_r_maximal, ref_maximal_points


def w(bits: str) -> IntervalWord:
    return IntervalWord(tuple(int(c) for c in bits))


def test_pair_set_validation():
    with pytest.raises(ps.PairSetError):
        PairSet.of(6, [0])          # not a power of two
    with pytest.raises(ps.PairSetError):
        PairSet.of(4, [])           # empty
    with pytest.raises(ps.PairSetError):
        PairSet.of(4, [0, 2])       # both of an opposite pair
    with pytest.raises(ps.PairSetError):
        PairSet.of(4, [4])          # out of range
    a = PairSet.of(8, [0, 1, 7])
    assert a.free_pairs() == [2]
    assert not a.is_full()
    assert PairSet.of(4, [1, 2]).is_full()


def test_lex_compare_examples():
    assert lex_compare(w("1100"), w("1001")) > 0
    assert lex_compare(w("0011"), w("0011")) == 0
    assert lex_compare(w("0110"), w("1000")) < 0
    with pytest.raises(ps.PairSetError):
        lex_compare(w("10"), w("100"))
    assert w("1100") > w("1011")        # rich comparisons agree


def test_superset_word_compares_geq():
    # on a fixed interval, a superset's word never loses
    m = 8
    for a in all_partial_pair_sets(m):
        bigger = a_max(a)
        for x in (0, 3):
            assert not restrict(a, x, 4) > restrict(bigger, x, 4, m=m)


def test_restrict_examples():
    a = PairSet.of(4, [0, 1])
    assert str(restrict(a, 0, 4)) == "1100"
    assert str(restrict(a, 2, 4)) == "0011"
    assert str(restrict(a, 3, 2)) == "01"
    with pytest.raises(ps.PairSetError):
        restrict(a, 0, 5)
    with pytest.raises(ps.PairSetError):
        restrict({0, 1}, 0, 2)      # plain set without m


def test_opposite_shift_property_full_sets():
    # complement of a full pair set = the set shifted by m/2, so its word
    # at x is the bitwise NOT of the original's word at x
    m = 8
    board = set(range(m))
    for a in all_full_pair_sets(m):
        comp = frozenset(board - a.members)
        for x in range(m):
            got = restrict(comp, x, m, m=m)
            swapped = restrict(a.members, (x + m // 2) % m, m, m=m)
            assert got == swapped
            flipped = tuple(1 - b for b in restrict(a, x, m).bits)
            assert got.bits == flipped


def test_is_r_maximal_matches_oracle():
    m = 8
    for a in all_partial_pair_sets(m):
        for x in range(m):
            for r in (1, 2, 4, 8):
                assert is_r_maximal(a, x, r) == ref_is_r_maximal(a.members, m, x, r)


def test_r_maximal_downward():
    # an r-maximal point is r'-maximal for every r' <= r
    m = 8
    for a in all_partial_pair_sets(m):
        for x in range(m):
            if is_r_maximal(a, x, m):
                assert all(is_r_maximal(a, x, r) for r in range(1, m))


def test_composition_of_maximal_windows():
    # x r-maximal and x+r r'-maximal imply x (r+r')-maximal, any subset
    m = 8
    for bits in range(1, 1 << m):
        members = {i for i in range(m) if (bits >> i) & 1}
        for x in range(m):
            for r in range(1, m):
                if not is_r_maximal(members, x, r, m=m):
                    continue
                for rp in range(1, m - r + 1):
                    if is_r_maximal(members, (x + r) % m, rp, m=m):
                        assert is_r_maximal(members, x, r + rp, m=m)


def test_maximal_point_examples():
    assert maximal_point(PairSet.of(4, [0, 1])) == 0
    assert maximal_point(PairSet.of(4, [0, 3])) == 3
    for m in (4, 8):
        for a in all_partial_pair_sets(m):
            assert [maximal_point(a)] == ref_maximal_points(a.members, m)
    with pytest.raises(MaximalityTieError):
        maximal_point({0, 2}, m=4)   # periodic set, not a pair set


def test_complement_shifts_maximal_point():
    for m in (4, 8, 16):
        board = set(range(m))
        for a in all_full_pair_sets(m):
            comp = board - a.members
            assert maximal_point(comp, m=m) == (maximal_point(a) + m // 2) % m


def test_a_max_examples():
    assert a_max(PairSet.of(4, [0])) == {0, 1, 3}
    full = PairSet.of(8, [0, 1, 2, 3])
    assert a_max(full) == full.members
    for a in all_partial_pair_sets(8):
        maximal_point(a_max(a), m=8)   # unique, or this raises


def test_fill_interval_examples():
    a = PairSet.of(4, [0])
    assert fill_interval(a, 1, 1).members == {0, 1}
    assert fill_interval(a, 2, 1).members == {0}   # 2 is opposite to 0
    for b in all_partial_pair_sets(8):
        filled = fill_interval(fill_interval(b, 0, 4), 4, 4)
        assert filled.is_full()
    with pytest.raises(ps.PairSetError):
        fill_interval(a, 0, 3)      # longer than m/2


def test_mask_fills_and_window_maxima_match_the_set_versions():
    # the earliest-latest suite works on masks; hold its helpers to the
    # PairSet operations it replaced
    m, mp = 8, 2
    for a in all_partial_pair_sets(m):
        for y in range(m):
            upper = fill_interval(a, y, mp)
            lower = fill_interval(upper, (y - mp) % m, mp)
            got_upper = ps._fill_mask(m, a.mask, ps._interval_mask(m, y, mp))
            got_lower = ps._fill_mask(m, got_upper, ps._interval_mask(m, y - mp, mp))
            assert (got_upper, got_lower) == (upper.mask, lower.mask)
        amax = a_max(a)
        amax_mask = sum(1 << x for x in amax)
        assert amax_mask == a.mask | ps._free_mask(m, a.mask)
        assert ps._r_maximal_points(m, amax_mask, mp) == \
            [x for x in range(m) if is_r_maximal(amax, x, mp, m=m)]


def test_earliest_latest_keeps_the_tie_check(monkeypatch):
    monkeypatch.setattr(ps, "_max_point_info", lambda m, mask: (0, False))
    with pytest.raises(MaximalityTieError):
        ps.verify_earliest_latest(4)


def test_full_extensions_count():
    a = PairSet.of(8, [0])
    assert len(list(full_extensions(a))) == 2 ** 3


def test_key_params_spec_case():
    a = PairSet.of(4, [0])
    kp = key_params(a)
    assert verify_key_params(a, kp)
    # the documented alternative parameters are also valid
    assert verify_key_params(a, KeyParams(0, 3, 3, 1))


def test_key_params_full_set_is_pinned():
    a = PairSet.of(8, [1, 2, 4, 7])
    kp = key_params(a)
    assert kp.s == 0 and kp.t == maximal_point(a)
    assert verify_key_params(a, kp)


def test_verify_key_params_degenerate_s():
    a = PairSet.of(8, [0, 1])
    # s = m makes the first window the whole circle: vacuously fine;
    # the second window has negative width and must fail
    assert not verify_key_params(a, KeyParams(8, 0, 0, 0))


def test_verify_key_params_rejects_corrupted_t():
    found = False
    for a in all_partial_pair_sets(8):
        if len(a.free_pairs()) < 2:
            continue
        good = key_params(a)
        bad = KeyParams(good.s, (good.t + 1) % 8, good.z1, good.z2)
        if not verify_key_params(a, bad):
            found = True
            break
    assert found


def test_opposite_flip_full_sets():
    # x r-maximal iff x + m/2 r-minimal, for full pair sets
    m = 8
    for a in all_full_pair_sets(m):
        for x in range(m):
            for r in (1, 2, 3, 4, 8):
                assert is_r_maximal(a, x, r) == is_r_minimal(a, (x + m // 2) % m, r)


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("name", sorted(ps.SUITES))
def test_suites_small(m, name):
    report = run_suite(name, m)
    assert report.passed, report.failures[:3]
    assert report.checked > 0


def test_run_suite_rejects_unknown():
    with pytest.raises(ps.PairSetError):
        run_suite("no-such-suite", 8)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255),
       st.integers(min_value=1, max_value=8))
def test_lex_order_matches_string_order(x, y, r):
    u = IntervalWord(tuple((x >> i) & 1 for i in range(r)))
    v = IntervalWord(tuple((y >> i) & 1 for i in range(r)))
    assert (u < v) == (str(u) < str(v))
    assert (u == v) == (str(u) == str(v))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=3).map(lambda a: 1 << (a + 1)),
       st.data())
def test_key_params_random_cases_verify(m, data):
    half = m // 2
    members = set()
    for p in range(half):
        side = data.draw(st.sampled_from((None, 0, 1)))
        if side is not None:
            members.add(p + side * half)
    if not members:
        members = {0}
    a = PairSet.of(m, members)
    assert verify_key_params(a, key_params(a))
