import random

import pytest
from hypothesis import given, settings, strategies as st

from avoidance import pairset as ps
from avoidance.core import iter_bits, mask_of, set_of
from avoidance.pairset import (
    KeyParams, MaximalityTieError, extension_masks, key_params, key_params_hold,
    maximal_point, partial_masks, run_suite,
)

from oracles import (brute_key_params, ref_earliest_latest_count, ref_fill, ref_free_points,
                     ref_is_r_maximal, ref_max_starts, ref_maximal_points, ref_windows,
                     word_string)


def _rotate(m: int, mask: int, k: int) -> int:
    """``mask`` with bit x moved to bit x - k mod m."""
    return (mask >> k | mask << (m - k)) & ((1 << m) - 1)


def test_opposite_shift_property_full_sets():
    # the complement of a full pair set is the set shifted by m/2, so its
    # greatest windows start m/2 away from the set's own
    m = 8
    ring = (1 << m) - 1
    for a in extension_masks(m, 0):
        assert ring ^ a == _rotate(m, a, m // 2)
        for r in range(1, m + 1):
            assert ps._max_starts(m, ring ^ a, r) == _rotate(m, ps._max_starts(m, a, r), m // 2)


def test_is_r_maximal_matches_oracle():
    m = 8
    for a in partial_masks(m):
        for r in (1, 2, 4, 8):
            assert ps._max_starts(m, a, r) == mask_of(
                x for x in range(m) if ref_is_r_maximal(set_of(a), m, x, r))


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_max_starts_matches_the_word_route_on_every_mask(m):
    rs = range(1, m + 1) if m <= 8 else (4, 16)
    for mask in range(1 << m):
        for r in rs:
            assert ps._max_starts(m, mask, r) == ref_max_starts(m, mask, r), (mask, r)


@pytest.mark.parametrize("m", [32, 64, 128])
def test_max_starts_matches_the_word_route_on_seeded_masks(m):
    # dense masks leave one candidate within a few offsets; sparse ones
    # (three draws AND-ed) narrow deep into the window
    rng = random.Random(m)
    for i in range(300):
        mask = rng.getrandbits(m)
        if i % 2:
            mask &= rng.getrandbits(m) & rng.getrandbits(m)
        for r in (1, 2, m // 4, m // 2 + 1, m):
            assert ps._max_starts(m, mask, r) == ref_max_starts(m, mask, r), (hex(mask), r)


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
def test_max_starts_ties_on_mask_0_and_periodic_masks(m):
    full = (1 << m) - 1
    assert all(ps._max_starts(m, 0, r) == full for r in range(1, m + 1))
    rng = random.Random(m)
    p = 1
    while p < m:
        # a mask of period p: the greatest rotations come in classes mod p
        for unit in rng.sample(range(1, 1 << p), min(40, (1 << p) - 1)):
            mask = sum(unit << k * p for k in range(m // p))
            got = ps._max_starts(m, mask, m)
            assert got == ref_max_starts(m, mask, m), hex(mask)
            assert got == ((got >> p) | (got << (m - p))) & full and got.bit_count() >= m // p
            with pytest.raises(MaximalityTieError):
                maximal_point(m, mask)
        p *= 2


def test_r_maximal_downward():
    # an r-maximal point is r'-maximal for every r' <= r
    m = 8
    for a in partial_masks(m):
        top = ps._max_starts(m, a, m)
        assert all(top & ~ps._max_starts(m, a, r) == 0 for r in range(1, m))


def test_composition_of_maximal_windows():
    # x r-maximal and x+r r'-maximal imply x (r+r')-maximal, any subset
    m = 8
    for a in range(1, 1 << m):
        tops = {r: ps._max_starts(m, a, r) for r in range(1, m + 1)}
        for r in range(1, m):
            for x in iter_bits(tops[r]):
                for rp in range(1, m - r + 1):
                    if tops[rp] >> (x + r) % m & 1:
                        assert tops[r + rp] >> x & 1


def test_maximal_point_examples():
    assert maximal_point(4, 0b0011) == 0
    assert maximal_point(4, 0b1001) == 3
    for m in (4, 8):
        for a in partial_masks(m):
            assert [maximal_point(m, a)] == ref_maximal_points(set_of(a), m)
    with pytest.raises(MaximalityTieError):
        maximal_point(4, 0b0101)    # periodic set, not a pair set


def test_kernel_at_m2_answers_with_the_point_of_a_one_point_word():
    # the pair board's mirror strategy is the bin-board one at m = 2, where
    # a bin holding one point is its own maximum and key-lemma window
    assert maximal_point(2, 0b01) == 0 and maximal_point(2, 0b10) == 1
    for p in (0, 1):
        assert key_params(2, 1 << p) == KeyParams(s=0, t=p, z1=p, z2=p)
    for w in (0b00, 0b11):
        with pytest.raises(MaximalityTieError):
            maximal_point(2, w)
        with pytest.raises(MaximalityTieError):
            key_params(2, w)


def test_complement_shifts_maximal_point():
    for m in (4, 8, 16):
        for a in extension_masks(m, 0):
            comp = ((1 << m) - 1) ^ a
            assert maximal_point(m, comp) == (maximal_point(m, a) + m // 2) % m


def test_a_max_examples():
    assert 0b0001 | ps._free_mask(4, 0b0001) == 0b1011
    assert ps._free_mask(8, 0b1111) == 0
    for a in partial_masks(8):
        maximal_point(8, a | ps._free_mask(8, a))   # unique, or this raises


def test_fill_interval_examples():
    assert ps._fill_mask(4, 0b0001, ps._interval_mask(4, 1, 1)) == 0b0011
    assert ps._fill_mask(4, 0b0001, ps._interval_mask(4, 2, 1)) == 0b0001  # 2 is opposite 0
    for b in partial_masks(8):
        filled = ps._fill_mask(8, b, ps._interval_mask(8, 0, 4))
        filled = ps._fill_mask(8, filled, ps._interval_mask(8, 4, 4))
        assert filled.bit_count() == 4 and ps._free_mask(8, filled) == 0


def test_mask_fills_and_window_maxima_match_the_set_versions():
    # the earliest-latest suite works on masks; hold its helpers to the
    # frozenset oracles
    m, mp = 8, 2
    for a in partial_masks(m):
        members = set_of(a)
        for y in range(m):
            upper = ref_fill(members, m, y, mp)
            lower = ref_fill(upper, m, (y - mp) % m, mp)
            got_upper = ps._fill_mask(m, a, ps._interval_mask(m, y, mp))
            got_lower = ps._fill_mask(m, got_upper, ps._interval_mask(m, y - mp, mp))
            assert (got_upper, got_lower) == (mask_of(upper), mask_of(lower))
        amax = members | ref_free_points(members, m)
        amax_mask = mask_of(amax)
        assert amax_mask == a | ps._free_mask(m, a)
        assert ps._max_starts(m, amax_mask, mp) == \
            mask_of(x for x in range(m) if ref_is_r_maximal(amax, m, x, mp))


def test_earliest_latest_keeps_the_tie_check(monkeypatch):
    ps.verify_earliest_latest(4)  # a table filled before the patch is emptied
    monkeypatch.setattr(ps, "_max_starts", lambda m, mask, r: (1 << m) - 1)
    with pytest.raises(MaximalityTieError):
        ps.verify_earliest_latest(4)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_table_completion_maxima_match_the_extension_route(m):
    # one table lookup per completion, against maximal_point on each mask
    # extension_masks builds
    for a in (0, *partial_masks(m)):
        want = 0
        for e in extension_masks(m, a):
            want |= 1 << maximal_point(m, e)
        assert ps._completion_maxima(m, a) == want


@pytest.mark.parametrize("m", [4, 8, 16])
def test_half_interval_fills_are_full_pair_sets(m):
    # earliest-latest's xp and key_params's max_of read the table at the
    # fill of a half interval [y, y + m/2); key_params fills a rotation of
    # its pair set, which is again among the partial masks
    for a in partial_masks(m):
        for y in range(m):
            fill = ps._fill_mask(m, a, ps._interval_mask(m, y, m // 2))
            assert ps._free_mask(m, fill) == 0 and fill.bit_count() == m // 2


def _tie_on_full_pair_sets(monkeypatch):
    """Make _max_starts report a tie of the whole ring on every full pair
    set only, so the tie can reach a suite through the table alone."""
    real = ps._max_starts

    def starts(m, mask, r):
        if mask.bit_count() == m // 2 and not ps._free_mask(m, mask):
            return (1 << m) - 1
        return real(m, mask, r)

    monkeypatch.setattr(ps, "_max_starts", starts)


def test_key_lemma_keeps_the_tie_check_of_the_table(monkeypatch):
    ps.verify_key_lemma(4)  # a table filled before the patch is emptied
    _tie_on_full_pair_sets(monkeypatch)
    with pytest.raises(MaximalityTieError):
        ps.verify_key_lemma(4)
    with pytest.raises(MaximalityTieError):
        ps.verify_earliest_latest(4)


def test_table_is_filled_on_demand_and_bounded(monkeypatch):
    # a bin of m = 64 has 2^32 full pair sets; the strategies steer such
    # bins, so the table holds only the ones looked up
    m = 64
    a = 0
    for p in range(28):  # 4 free pairs
        a |= 1 << (p if p % 3 else p + m // 2)
    assert ps._free_mask(m, a).bit_count() == 8
    assert key_params_hold(m, a, key_params(m, a))
    assert len(ps._full_maxima(m)) <= 4 + 2 * 2 ** 4  # max_of, then two completions
    monkeypatch.setattr(ps, "_CACHE_SIZE", 4)
    table = ps._FullMaxima(8)
    for choice in range(16):
        full = choice << 4 | 0b1111 & ~choice
        assert table[choice] == maximal_point(8, full)
        assert len(table) <= 4


def test_full_extensions_count():
    assert len(set(extension_masks(8, 0b0001))) == 2 ** 3
    # pair 0's pick varies slowest, its low point first
    assert list(extension_masks(4, 0)) == [0b0011, 0b1001, 0b0110, 0b1100]
    for ext in extension_masks(8, 0b0011):
        assert ext & 0b0011 == 0b0011 and ps._free_mask(8, ext) == 0


@pytest.mark.parametrize("m", [4, 8, 16])
def test_key_params_kernel_matches_the_pair_set_construction(m):
    for a in partial_masks(m):
        assert key_params(m, a) == brute_key_params(set_of(a), m), sorted(set_of(a))


# From the m = 32 census (tests/key_params_census.py): the exit at x_k
# fills the quarters at (k + 1)m/4 and (k + 2)m/4 past u*, the maximal
# point of the set with its free points added.
@pytest.mark.parametrize("mask,k", [(0x3264cc99, 1), (0x3298cc66, 1),
                                    (0x2ca4d25b, 2), (0x3264cc9b, 2)],
                         ids=lambda v: hex(v) if v > 2 else f"x{v}")
def test_key_params_exits_at_x2_and_x1_at_m_32(mask, k):
    m = 32
    u_star = maximal_point(m, mask | ps._free_mask(m, mask))
    kp = key_params(m, mask)
    assert ((kp.z1 - u_star) % m, (kp.z2 - u_star) % m) == ((k + 1) * m // 4,
                                                            (k + 2) * m // 4 % m)
    assert kp == brute_key_params(set_of(mask), m)
    assert key_params_hold(m, mask, kp)


def test_key_params_spec_case():
    kp = key_params(4, 0b0001)
    assert key_params_hold(4, 0b0001, kp)
    # the documented alternative parameters are also valid
    assert key_params_hold(4, 0b0001, KeyParams(0, 3, 3, 1))


def test_key_params_full_set_is_pinned():
    a = mask_of([1, 2, 4, 7])
    kp = key_params(8, a)
    assert kp.s == 0 and kp.t == maximal_point(8, a)
    assert key_params_hold(8, a, kp)


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_key_params_of_a_full_pair_set_is_pinned_at_its_maximal_point(m):
    # the bin mirror closes a bin it did not claim in with t = u on this ground
    half = m // 2
    choices = range(1 << half) if m <= 16 else random.Random(m).sample(range(1 << half), 300)
    for choice in choices:
        full = choice << half | ((1 << half) - 1) & ~choice
        u = maximal_point(m, full)
        assert key_params(m, full) == KeyParams(0, u, u, u), full


def test_verify_key_params_degenerate_s():
    # s = m makes the first window the whole circle: vacuously fine;
    # the second window has negative width and must fail
    assert not key_params_hold(8, 0b0011, KeyParams(8, 0, 0, 0))
    assert not key_params_hold(8, 0b0011, KeyParams(9, 0, 0, 0))  # first wider than m
    # s = m/2 leaves the second window [t, t) empty, though the first,
    # [t - m/2, t], holds the one maximum of a full pair set pinned at t
    a = mask_of([1, 2, 4, 7])
    u = maximal_point(8, a)
    assert key_params_hold(8, a, KeyParams(3, u, u, u))
    assert not key_params_hold(8, a, KeyParams(4, u, u, u))


@pytest.mark.parametrize("m", [4, 8])
def test_key_params_hold_matches_the_windows_point_by_point(m):
    # every s from 0 to m + 1 (a first window of width 1 to m + 2) and every
    # t, against the maxima of the completions tested one at a time
    mp = m // 4
    for a in partial_masks(m):
        kp = key_params(m, a)
        fills = [ps._fill_mask(m, a, ps._interval_mask(m, z, mp)) for z in (kp.z1, kp.z2)]
        maxima = [[maximal_point(m, e) for e in extension_masks(m, f)] for f in fills]
        for s in range(m + 2):
            for t in range(m):
                windows = (((t - s) % m, s + 1), (t, 2 * mp - s))
                want = all((x - lo) % m < width
                           for (lo, width), xs in zip(windows, maxima) for x in xs)
                assert key_params_hold(m, a, KeyParams(s, t, kp.z1, kp.z2)) == want, (a, s, t)


def test_verify_key_params_rejects_corrupted_t():
    found = False
    for a in partial_masks(8):
        if ps._free_mask(8, a).bit_count() < 4:   # fewer than 2 free pairs
            continue
        good = key_params(8, a)
        bad = KeyParams(good.s, (good.t + 1) % 8, good.z1, good.z2)
        if not key_params_hold(8, a, bad):
            found = True
            break
    assert found


def test_opposite_flip_full_sets():
    # x r-maximal iff x + m/2 r-minimal, for full pair sets; not-min reads
    # the least windows of any mask as the greatest of its complement
    m = 8
    ring = (1 << m) - 1
    for a in range(1 << m):
        for r in (1, 2, 3, 4, 8):
            words = ref_windows(m, a, r)
            least = mask_of(x for x in range(m) if words[x] == min(words))
            assert ps._max_starts(m, ring ^ a, r) == least
            if a.bit_count() == m // 2 and not ps._free_mask(m, a):
                assert _rotate(m, least, m // 2) == ps._max_starts(m, a, r)


SUITE_CHECKED = {
    4: {"earliest-latest": 48, "key-lemma": 8, "least-max": 2, "not-min": 2,
        "not-top": 8, "unique-max": 8},
    8: {"earliest-latest": 672, "key-lemma": 80, "least-max": 4, "not-min": 18,
        "not-top": 32, "unique-max": 80},
}


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("name", sorted(ps.SUITES))
def test_suites_small(m, name):
    report = run_suite(name, m)
    assert report.passed, report.failures[:3]
    assert report.checked == SUITE_CHECKED[m][name]


@pytest.mark.parametrize("m,checked", [(4, 48), (8, 672), (16, 49104)])
def test_earliest_latest_checks_what_the_double_loop_counts(m, checked):
    # the suite visits only the y some x admits; the oracle tries every y
    assert run_suite("earliest-latest", m).checked == ref_earliest_latest_count(m) == checked


def test_run_suite_rejects_unknown():
    with pytest.raises(ps.PairSetError):
        run_suite("no-such-suite", 8)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=8))
def test_lex_order_matches_string_order(a, x, y, r):
    # the greatest windows are those with the greatest indicator strings
    members = set_of(a)
    strings = [word_string(members, 8, z, r) for z in range(8)]
    top = ps._max_starts(8, a, r)
    for z in (x, y):
        assert top >> z & 1 == (strings[z] == max(strings))


# A check of the reference itself: the word route in tests/oracles.py.

def test_superset_word_compares_geq():
    # on a fixed interval, a superset's word never loses
    m = 8
    for a in partial_masks(m):
        bigger = a | ps._free_mask(m, a)
        small, big = ref_windows(m, a, 4), ref_windows(m, bigger, 4)
        for x in (0, 3):
            assert small[x] <= big[x]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=3).map(lambda a: 1 << (a + 1)),
       st.data())
def test_key_params_random_cases_verify(m, data):
    half = m // 2
    a = 0
    for p in range(half):
        side = data.draw(st.sampled_from((None, 0, 1)))
        if side is not None:
            a |= 1 << (p + side * half)
    a = a or 1
    assert key_params_hold(m, a, key_params(m, a))
