"""Cyclic pair sets in Z_m (m a power of two) and their rotation extrema.

A point set of Z_m is a mask, bit x for point x. A *pair set* holds at
most one of each opposite pair {x, x + m/2}; a *full* pair set holds
exactly one of each. A point is *free* when neither it nor its opposite
is in the set.

Windows: the word of a set on the cyclic interval [x, x+r) =
{x, x+1, ..., x+r-1} is its 0/1 indicator there, packed into an int with
point x as the most significant bit. Integer order is then lexicographic
order with "present beats absent": the word with a 1 at the earliest
differing position is the greater one. An ``r``-maximal point is an x
whose window [x, x+r) is greatest over all m rotations; ``maximal_point``
is the m-maximal point. No word is built: ``_max_starts`` finds the
r-maximal points by narrowing a mask of candidate starts, one offset at a time.

All interval arithmetic is mod m. [lo, hi) is half-open of length
(hi - lo) mod m; [lo, hi] additionally includes the endpoint.

Every full pair set has a unique maximal point (the rotation stabiliser of
a pair set inside a 2-power cycle is trivial); ``key_params`` exploits
this to produce, for any partial pair set, interval choices that pin the
eventual maximal point of any completion into a narrow window. The
construction is cross-checked exhaustively by ``verify_key_lemma``.

A full pair set F is named by its choice bits ``(F >> m/2) & (2^(m/2) - 1)``,
so Z_m has 2^(m/2) of them; ``_full_maxima(m)`` keeps their maximal points,
and a completion of a partial pair set (its fixed choice bits OR-ed with a
submask of its free-pair bits) costs one lookup. That table is the module's
one cache; ``verify-lemma all --m 16`` reads 256 entries of it. Sets of
maximal points are handed around as point masks, like every other point set.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .core import FrozenRecord, Record, _set, iter_bits


class PairSetError(ValueError):
    pass


class MaximalityTieError(PairSetError):
    """Two rotations compared equal where a unique maximum was required."""


# The full-pair-set table is emptied when it reaches this many entries:
# ``verify-lemma all --m 16`` reads 256, a bin of m = 64 has 2^32.
_CACHE_SIZE = 1 << 14


def _max_starts(m: int, mask: int, r: int) -> int:
    """Mask of the starts x whose window [x, x+r) is greatest, 1 <= r <= m.

    The candidates are narrowed one offset at a time: they start as the
    points of ``mask`` (every point when it is empty), and at offset d keep
    those that hold point x + d, if any does. This is the comparison that
    least-rotation algorithms make, done bit-parallel; it stops when one
    candidate is left. Bit x of ``doubled >> d`` is point x + d mod m.
    """
    doubled = mask | mask << m
    cand = mask or (1 << m) - 1
    for d in range(1, r):
        if not cand & (cand - 1):
            break
        hit = cand & doubled >> d
        if hit:
            cand = hit
    return cand


def maximal_point(m: int, mask: int) -> int:
    """The unique m-maximal point of ``mask``.

    Unique for every nonempty pair set (and for a pair set with its free
    points added); a tie on other inputs raises MaximalityTieError.
    """
    c = _max_starts(m, mask, m)
    if c & (c - 1):
        raise MaximalityTieError(
            f"maximal rotation of {sorted(iter_bits(mask))} in Z_{m} is not unique")
    return c.bit_length() - 1


class _FullMaxima(dict):
    """The maximal point of each full pair set of Z_m by its choice bits (bit
    p set: it holds p + m/2, not p), made on first lookup through
    ``maximal_point``, so a tie raises MaximalityTieError. On demand, as
    the strategies steer bins of m = 64 and more, whose 2^(m/2) full pair
    sets no table could hold; emptied when it reaches the cache bound."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m

    def __missing__(self, choice: int) -> int:
        half = self.m // 2
        x = maximal_point(self.m, choice << half | ((1 << half) - 1) & ~choice)
        if len(self) >= _CACHE_SIZE:
            self.clear()
        self[choice] = x
        return x


@lru_cache(maxsize=None)
def _full_maxima(m: int) -> _FullMaxima:
    """The one table of full-pair-set maxima of Z_m."""
    return _FullMaxima(m)


def _fresh_full_maxima(m: int) -> _FullMaxima:
    """The table of Z_m, emptied: a suite fills every entry it reads itself,
    so each maximum it relies on has passed the tie check in its own run."""
    table = _full_maxima(m)
    table.clear()
    return table


def _full_pair_sets(m: int) -> Iterator[tuple[int, int]]:
    """(F, maximal point of F) for each full pair set F of Z_m, by choice
    bits, from an emptied table (see ``_fresh_full_maxima``)."""
    table = _fresh_full_maxima(m)
    half = m // 2
    low = (1 << half) - 1
    for choice in range(1 << half):
        yield choice << half | low & ~choice, table[choice]


def _completion_maxima(m: int, mask: int) -> int:
    """The maximal points of the full pair sets containing the pair set
    ``mask``, as a mask. A completion's choice bits are the fixed choice
    bits of ``mask`` OR-ed with a submask of its free-pair bits."""
    table = _full_maxima(m)
    half = m // 2
    low = (1 << half) - 1
    fixed = (mask >> half) & low
    free = low & ~(mask | mask >> half)
    maxima, sub = 0, free
    while True:
        maxima |= 1 << table[fixed | sub]
        if not sub:
            return maxima
        sub = (sub - 1) & free


def _interval_mask(m: int, x: int, r: int) -> int:
    """Bits of the cyclic interval [x, x+r) of Z_m, 0 <= r <= m."""
    w = ((1 << r) - 1) << (x % m)
    return (w | (w >> m)) & ((1 << m) - 1)


def _free_mask(m: int, mask: int) -> int:
    """Points of Z_m that are neither in ``mask`` nor opposite a member."""
    half, full = m // 2, (1 << m) - 1
    return full & ~(mask | (mask << half) | (mask >> half))


def _fill_mask(m: int, mask: int, interval: int) -> int:
    """``mask`` plus its free points in ``interval``. An interval of at
    most m/2 points holds no opposite pair, so the result is a pair set."""
    return mask | (_free_mask(m, mask) & interval)


def extension_masks(m: int, mask: int) -> Iterator[int]:
    """Masks of the full pair sets containing ``mask`` (one pick per free
    pair, pair 0's pick varying slowest, its low point first)."""
    half = m // 2
    free = _free_mask(m, mask)
    choices = [(1 << p, 1 << (p + half)) for p in range(half) if (free >> p) & 1]
    for picks in itertools.product(*choices):
        yield mask | sum(picks)


def partial_masks(m: int) -> Iterator[int]:
    """Masks of the nonempty pair sets, pair 0's choice varying slowest."""
    half = m // 2
    choices = [(0, 1 << p, 1 << (p + half)) for p in range(half)]
    return filter(None, map(sum, itertools.product(*choices)))


class KeyParams(FrozenRecord):
    """Window parameters (s, t, z1, z2) for steering a completion's maximum.

    Filling the free points of [z1, z1+m/4) forces the maximal point of any
    full completion into [t-s, t]; filling [z2, z2+m/4) instead forces it
    into [t, t+m/2-s). Both windows are cyclic.
    """

    __slots__ = ("s", "t", "z1", "z2")

    def __init__(self, s: int, t: int, z1: int, z2: int):
        _set(self, "s", s)
        _set(self, "t", t)
        _set(self, "z1", z1)
        _set(self, "z2", z2)
        if s < 0:
            raise PairSetError("s must be nonnegative")


def _lift(residue: int, lo_exclusive: int, m: int) -> int:
    """The representative of ``residue`` mod m in (lo_exclusive, lo_exclusive+m]."""
    return lo_exclusive + 1 + ((residue - lo_exclusive - 1) % m)


def key_params(m: int, mask: int) -> KeyParams:
    """Steering parameters for the pair set ``mask`` by the constructive case chain.

    Rotate so 0 is the maximal point of the set-with-frees-added, examine
    the maxima x_k of the completions that fill two adjacent quarter
    intervals, and exit at the first window pair [x_k, x_{k+1}],
    [x_{k+1}, x_{k+2}] of combined length under m/2. The fallback cases
    (maximum already pinned, or a fully periodic free zone) return zero
    width. Output is exhaustively validated by ``verify_key_lemma``.
    """
    mp = m // 4
    u_star = maximal_point(m, mask | _free_mask(m, mask))
    base = ((mask >> u_star) | (mask << (m - u_star))) & ((1 << m) - 1)
    table, half, low = _full_maxima(m), m // 2, (1 << m // 2) - 1

    def max_of(k: int) -> int:
        # the two quarters span m/2 points, one of each opposite pair, so
        # the fill is a full pair set
        full = _fill_mask(m, base, _interval_mask(m, k * mp, 2 * mp))
        return table[(full >> half) & low]

    def out(s: int, t: int, z1: int, z2: int) -> KeyParams:
        return KeyParams(s, (t + u_star) % m, (z1 + u_star) % m, (z2 + u_star) % m)

    x = [0, 0, 0, _lift(max_of(3), 2 * mp, m), m]
    if x[3] == m:
        # the maximum of every completion of the first quarter fill is pinned
        return out(0, 0, 0, 0)
    for k in (2, 1, 0):
        x[k] = _lift(max_of(k), x[k + 1] - 2 * mp, m)
        if x[k + 2] - x[k] < 2 * mp:
            return out(x[k + 1] - x[k], x[k + 1] % m, (k + 1) * mp, (k + 2) * mp % m)
    # remaining case: the two quarters around the maximum are entirely free
    # and every completion of the first quarter fill keeps its maximum at 0
    return out(0, 0, 0, 0)


def key_params_hold(m: int, mask: int, p: KeyParams) -> bool:
    """Brute-force check of both window guarantees over all completions: a
    window [lo, lo + width) holds no point when width < 1 and all of them
    when width >= m."""
    mp = m // 4
    checks = (
        (p.z1, (p.t - p.s) % m, p.s + 1),
        (p.z2, p.t, 2 * mp - p.s),
    )
    for z, lo, width in checks:
        maxima = _completion_maxima(m, _fill_mask(m, mask, _interval_mask(m, z, mp)))
        if width < 1 or maxima & ~_interval_mask(m, lo, min(width, m)):
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive verification suites (driven by the CLI)

class SuiteReport(Record):
    __slots__ = ("name", "m", "checked", "failures", "notes")

    def __init__(self, name: str, m: int, checked: int, failures: list, notes: dict):
        self.name, self.m, self.checked = name, m, checked
        self.failures, self.notes = failures, notes

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "m": self.m,
            "checked": self.checked,
            "failures": [repr(f) for f in self.failures[:10]],
            "failure_count": len(self.failures),
            "passed": self.passed,
            **self.notes,
        }


def verify_unique_max(m: int) -> SuiteReport:
    """Every partial pair set has exactly one m-maximal point."""
    checked, failures = 0, []
    for mask in partial_masks(m):
        checked += 1
        c = _max_starts(m, mask, m)
        if c & (c - 1):
            failures.append(sorted(iter_bits(mask)))
    return SuiteReport("unique-max", m, checked, failures, {})


def verify_not_min(m: int) -> SuiteReport:
    """Full pair set with 0 maximal: no point of [0, r] is r-minimal, r < m/2."""
    checked, failures = 0, []
    ring = (1 << m) - 1
    for mask, mx in _full_pair_sets(m):
        if mx != 0:
            continue
        for r in range(1, m // 2):
            # the least windows of mask are the greatest of its complement
            least = _max_starts(m, ring ^ mask, r)
            checked += r + 1
            for x in iter_bits(least & _interval_mask(m, 0, r + 1)):
                failures.append((sorted(iter_bits(mask)), x, r))
    return SuiteReport("not-min", m, checked, failures, {})


def verify_not_top(m: int) -> SuiteReport:
    """Full pair set, x m/4-maximal: the maximal point lies in (x - m/2, x]."""
    checked, failures = 0, []
    for mask, mx in _full_pair_sets(m):
        for x in iter_bits(_max_starts(m, mask, m // 4)):
            checked += 1
            if (x - mx) % m >= m // 2:
                failures.append((sorted(iter_bits(mask)), x))
    return SuiteReport("not-top", m, checked, failures, {})


def verify_least_max(m: int) -> SuiteReport:
    """With 0 m/4-maximal, the maximum is the first m/4-maximal point in (m/2, m]."""
    checked, failures = 0, []
    for mask, mx in _full_pair_sets(m):
        top = _max_starts(m, mask, m // 4)
        if not top & 1:
            continue
        checked += 1
        first = next((x for x in iter_bits(top) if x > m // 2), 0)
        if mx != first:
            failures.append((sorted(iter_bits(mask)), first))
    return SuiteReport("least-max", m, checked, failures, {})


def verify_earliest_latest(m: int) -> SuiteReport:
    """Window behaviour of maxima after filling [y-m/4, y+m/4), parts (a)-(d).

    For every partial pair set A, every x that is m/4-maximal in A with its
    frees added, and every y with no free point in [x, y): let A' fill the
    quarter intervals on both sides of y and x' be its maximum. Checks
    (a) x' in (x - m/2, x]; (b) x' is m/4-maximal in the frees-added set;
    (c) if x' is outside (y - m/4, x] there is no free point in [x', y - m/4);
    (d) every completion of A plus the fill of [y, y+m/4) has its maximum
    in [x', x].
    """
    mp, half = m // 4, m // 2
    low = (1 << half) - 1
    interval = [[_interval_mask(m, x, r) for r in range(m + 1)] for x in range(m)]
    quarter = [row[mp] for row in interval]
    ring = (1 << m) - 1
    table = _fresh_full_maxima(m)
    ext_maxima: dict = {}  # upper fill mask -> maxima of its full completions, as a mask
    checked, failures = 0, []
    for mask in partial_masks(m):
        free = _free_mask(m, mask)
        top = _max_starts(m, mask | free, mp)  # the m/4-maximal points of A_max
        maximal_in_amax = list(iter_bits(top))
        # an x admits the y from x up to its first free point at or after
        # x, or every y when nothing is free; visit the union of these runs
        ys = 0
        for x in maximal_in_amax:
            ahead = (free >> x | free << (m - x)) & ring  # bit d: point x + d
            ys |= interval[x][(ahead & -ahead).bit_length() or m]
        for y in iter_bits(ys):
            # [y - m/4, y + m/4) spans m/2 points, one of each opposite
            # pair: its fill is a full pair set
            upper = mask | free & quarter[y]
            xp = table[((mask | free & interval[(y - mp) % m][half]) >> half) & low]
            for x in maximal_in_amax:
                if free & interval[x][(y - x) % m]:
                    continue  # a free point inside [x, y)
                checked += 1
                maxima = ext_maxima.get(upper)
                if maxima is None:
                    maxima = ext_maxima[upper] = _completion_maxima(m, upper)
                ok_a = (x - xp) % m < m // 2
                ok_b = bool(top >> xp & 1)
                dv = (xp - (y - mp)) % m
                in_yx = 0 < dv <= (x - (y - mp)) % m
                ok_c = in_yx or not free & interval[xp][(y - mp - xp) % m]
                ok_d = not maxima & ~interval[xp][(x - xp) % m + 1]  # all in [x', x]
                if not (ok_a and ok_b and ok_c and ok_d):
                    failures.append((sorted(iter_bits(mask)), x, y, xp,
                                     ok_a, ok_b, ok_c, ok_d))
    return SuiteReport("earliest-latest", m, checked, failures, {})


def verify_key_lemma(m: int) -> SuiteReport:
    """key_params output passes key_params_hold for every partial pair set."""
    checked, failures = 0, []
    max_s = 0
    _fresh_full_maxima(m)  # key_params and key_params_hold fill it
    for mask in partial_masks(m):
        checked += 1
        p = key_params(m, mask)
        max_s = max(max_s, p.s)
        if not key_params_hold(m, mask, p):
            failures.append((sorted(iter_bits(mask)), p))
    return SuiteReport("key-lemma", m, checked, failures, {"max_s_observed": max_s})


SUITES = {
    "unique-max": verify_unique_max,
    "not-min": verify_not_min,
    "not-top": verify_not_top,
    "least-max": verify_least_max,
    "earliest-latest": verify_earliest_latest,
    "key-lemma": verify_key_lemma,
}


def run_suite(name: str, m: int) -> SuiteReport:
    if name not in SUITES:
        raise PairSetError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if m not in (4, 8, 16):  # the enumerations grow as 3^(m/2)
        raise PairSetError(f"m must be a power of two from 4 up to the largest suite "
                           f"size 16, got {m}")
    return SUITES[name](m)
