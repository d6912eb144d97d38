"""Cyclic pair sets in Z_m (m a power of two) and their rotation extrema.

A *pair set* holds at most one of each opposite pair {x, x + m/2}; a *full*
pair set holds exactly one of each. A point is *free* when neither it nor
its opposite is in the set.

Interval words: ``restrict(A, x, r)`` is the 0/1 indicator of A on the
cyclic interval [x, x+r) = {x, x+1, ..., x+r-1}. Words of equal length are
ordered lexicographically with "present beats absent": the word with a 1 at
the earliest differing position is the greater one. An ``r``-maximal point
is an x whose interval word is greatest over all m rotations.

All interval arithmetic is mod m. [lo, hi) is half-open of length
(hi - lo) mod m; [lo, hi] additionally includes the endpoint.

Every full pair set has a unique maximal point (the rotation stabiliser of
a pair set inside a 2-power cycle is trivial); ``key_params`` exploits
this to produce, for any partial pair set, interval choices that pin the
eventual maximal point of any completion into a narrow window. The
construction is cross-checked exhaustively by ``verify_key_lemma``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator, Optional, Union

from .core import iter_bits


class PairSetError(ValueError):
    pass


class MaximalityTieError(PairSetError):
    """Two rotations compared equal where a unique maximum was required."""


def _is_power_of_two(v: int) -> bool:
    return v > 0 and v & (v - 1) == 0


@dataclass(frozen=True)
class PairSet:
    """A nonempty subset of Z_m with at most one point of each opposite pair."""

    m: int
    members: frozenset

    def __post_init__(self):
        if not _is_power_of_two(self.m) or self.m < 4:
            raise PairSetError(f"m must be a power of two >= 4, got {self.m}")
        if not self.members:
            raise PairSetError("pair sets are nonempty")
        if not all(isinstance(x, int) and 0 <= x < self.m for x in self.members):
            raise PairSetError("members must lie in [0, m)")
        half = self.m // 2
        for x in self.members:
            if (x + half) % self.m in self.members:
                raise PairSetError(
                    f"both {x} and {(x + half) % self.m} present (opposite pair)")

    @staticmethod
    def of(m: int, members: Iterable[int]) -> "PairSet":
        return PairSet(m, frozenset(members))

    @property
    def half(self) -> int:
        return self.m // 2

    @property
    def mask(self) -> int:
        v = 0
        for x in self.members:
            v |= 1 << x
        return v

    def opposite(self, x: int) -> int:
        return (x + self.m // 2) % self.m

    def is_free(self, x: int) -> bool:
        return x not in self.members and self.opposite(x) not in self.members

    def free_points(self) -> frozenset:
        return frozenset(x for x in range(self.m) if self.is_free(x))

    def free_pairs(self) -> list[int]:
        """Representatives (< m/2) of the untouched opposite pairs."""
        return [x for x in range(self.m // 2) if self.is_free(x)]

    def is_full(self) -> bool:
        return len(self.members) == self.m // 2

    def rotate(self, c: int) -> "PairSet":
        return PairSet(self.m, frozenset((x + c) % self.m for x in self.members))


@total_ordering
@dataclass(frozen=True)
class IntervalWord:
    """A fixed-length 0/1 word; earlier positions dominate the order."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not all(b in (0, 1) for b in self.bits):
            raise PairSetError("word bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def _packed(self) -> int:
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v

    def __lt__(self, other: "IntervalWord") -> bool:
        return lex_compare(self, other) < 0

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def lex_compare(u: IntervalWord, v: IntervalWord) -> int:
    """-1, 0 or 1; the word with a 1 at the first differing position wins."""
    if len(u) != len(v):
        raise PairSetError(f"word lengths differ: {len(u)} vs {len(v)}")
    pu, pv = u._packed(), v._packed()
    return (pu > pv) - (pu < pv)


def _coerce(a: Union[PairSet, Iterable[int]], m: Optional[int]) -> tuple[int, int]:
    """Accept a PairSet or a plain point set (with explicit m); return (m, mask)."""
    if isinstance(a, PairSet):
        return a.m, a.mask
    if m is None:
        raise PairSetError("plain point sets need an explicit m")
    mask = 0
    for x in a:
        if not 0 <= x < m:
            raise PairSetError(f"point {x} outside [0, {m})")
        mask |= 1 << x
    return m, mask


# Both caches hold one entry per distinct mask; ``verify-lemma all --m 16``
# fills 12864 of each, which the bound keeps.
_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=_CACHE_SIZE)
def _base_word(m: int, mask: int) -> int:
    """Pack the indicator of ``mask`` into an int, position 0 at the MSB."""
    w = 0
    for i in range(m):
        w = (w << 1) | ((mask >> i) & 1)
    return w


def _rotation_word(m: int, mask: int, x: int) -> int:
    """Packed word of the restriction to [x, x+m); integer order = lex order."""
    w = _base_word(m, mask)
    if x == 0:
        return w
    full = (1 << m) - 1
    return ((w << x) | (w >> (m - x))) & full


@lru_cache(maxsize=_CACHE_SIZE)
def _max_point_info(m: int, mask: int) -> tuple[int, bool]:
    """(first maximal rotation start, whether it is unique)."""
    best_x, best_w, unique = 0, _rotation_word(m, mask, 0), True
    for x in range(1, m):
        w = _rotation_word(m, mask, x)
        if w > best_w:
            best_x, best_w, unique = x, w, True
        elif w == best_w:
            unique = False
    return best_x, unique


def restrict(a: Union[PairSet, Iterable[int]], x: int, r: int,
             m: Optional[int] = None) -> IntervalWord:
    """Indicator word of ``a`` on the cyclic interval [x, x+r)."""
    m, mask = _coerce(a, m)
    if not 1 <= r <= m:
        raise PairSetError(f"interval length {r} outside [1, {m}]")
    return IntervalWord(tuple((mask >> ((x + i) % m)) & 1 for i in range(r)))


def is_r_maximal(a: Union[PairSet, Iterable[int]], x: int, r: int,
                 m: Optional[int] = None) -> bool:
    """Is [x, x+r) a lexicographically greatest length-r window of ``a``?"""
    m, mask = _coerce(a, m)
    if not 1 <= r <= m:
        raise PairSetError(f"interval length {r} outside [1, {m}]")
    shift = m - r
    wx = (_rotation_word(m, mask, x % m) >> shift)
    return all((_rotation_word(m, mask, y) >> shift) <= wx for y in range(m))


def is_r_minimal(a: Union[PairSet, Iterable[int]], x: int, r: int,
                 m: Optional[int] = None) -> bool:
    m, mask = _coerce(a, m)
    if not 1 <= r <= m:
        raise PairSetError(f"interval length {r} outside [1, {m}]")
    shift = m - r
    wx = (_rotation_word(m, mask, x % m) >> shift)
    return all((_rotation_word(m, mask, y) >> shift) >= wx for y in range(m))


def maximal_point(a: Union[PairSet, Iterable[int]], m: Optional[int] = None) -> int:
    """The unique m-maximal point of ``a``.

    Unique for every pair set (and for a pair set with its free points
    added); a tie on other inputs raises MaximalityTieError.
    """
    m, mask = _coerce(a, m)
    if mask == 0:
        raise PairSetError("empty set has no maximal point")
    return _unique_max_point(m, mask)


def _unique_max_point(m: int, mask: int) -> int:
    x, unique = _max_point_info(m, mask)
    if not unique:
        raise MaximalityTieError(
            f"maximal rotation of {sorted(iter_bits(mask))} in Z_{m} is not unique")
    return x


def _windows(m: int, mask: int, r: int) -> list[int]:
    """Packed words of the windows [x, x+r) of ``mask``, indexed by x."""
    return [_rotation_word(m, mask, x) >> (m - r) for x in range(m)]


def _r_maximal_points(m: int, mask: int, r: int) -> list[int]:
    """Every x whose window [x, x+r) is a greatest length-r window of ``mask``."""
    words = _windows(m, mask, r)
    top = max(words)
    return [x for x, w in enumerate(words) if w == top]


def _interval_mask(m: int, x: int, r: int) -> int:
    """Bits of the cyclic interval [x, x+r) of Z_m, 0 <= r <= m."""
    w = ((1 << r) - 1) << (x % m)
    return (w | (w >> m)) & ((1 << m) - 1)


def _free_mask(m: int, mask: int) -> int:
    """Points of Z_m that are neither in ``mask`` nor opposite a member."""
    half, full = m // 2, (1 << m) - 1
    return full & ~(mask | (mask << half) | (mask >> half))


def _fill_mask(m: int, mask: int, interval: int) -> int:
    """``fill_interval`` on masks: ``mask`` plus its free points in ``interval``."""
    return mask | (_free_mask(m, mask) & interval)


def a_max(a: PairSet) -> frozenset:
    """``a`` with all its free points added (generally not a pair set)."""
    return a.members | a.free_points()


def fill_interval(a: PairSet, x: int, r: int) -> PairSet:
    """Add every free point of [x, x+r) to ``a``.

    Points of the interval opposite to members are not free and are not
    added. r is capped at m/2 so the result is again a pair set.
    """
    if not 1 <= r <= a.m // 2:
        raise PairSetError(f"fill length {r} outside [1, m/2]")
    added = {(x + i) % a.m for i in range(r)}
    return PairSet(a.m, a.members | {p for p in added if a.is_free(p)})


def full_extensions(a: PairSet) -> Iterator[PairSet]:
    """All full pair sets containing ``a`` (one choice per free pair)."""
    free = a.free_pairs()
    half = a.m // 2
    for picks in itertools.product(*(((p, p + half) for p in free))):
        yield PairSet(a.m, a.members | frozenset(picks))


def _extension_masks(m: int, mask: int) -> Iterator[int]:
    """Masks of the full pair sets containing ``mask`` (one pick per free pair)."""
    half = m // 2
    free = _free_mask(m, mask)
    choices = [(1 << p, 1 << (p + half)) for p in range(half) if (free >> p) & 1]
    for picks in itertools.product(*choices):
        yield mask | sum(picks)


@dataclass(frozen=True)
class KeyParams:
    """Window parameters (s, t, z1, z2) for steering a completion's maximum.

    Filling the free points of [z1, z1+m/4) forces the maximal point of any
    full completion into [t-s, t]; filling [z2, z2+m/4) instead forces it
    into [t, t+m/2-s). Both windows are cyclic.
    """

    s: int
    t: int
    z1: int
    z2: int

    def __post_init__(self):
        if self.s < 0:
            raise PairSetError("s must be nonnegative")


def _lift(residue: int, lo_exclusive: int, m: int) -> int:
    """The representative of ``residue`` mod m in (lo_exclusive, lo_exclusive+m]."""
    return lo_exclusive + 1 + ((residue - lo_exclusive - 1) % m)


def key_params(a: PairSet) -> KeyParams:
    """Compute steering parameters for ``a`` by the constructive case chain.

    Rotate so 0 is the maximal point of the set-with-frees-added, examine
    the maxima x_k of the completions that fill two adjacent quarter
    intervals, and exit at the first window pair [x_k, x_{k+1}],
    [x_{k+1}, x_{k+2}] of combined length under m/2. The fallback cases
    (maximum already pinned, or a fully periodic free zone) return zero
    width. Output is exhaustively validated by ``verify_key_lemma``.
    """
    return _key_params(a.m, a.mask)


def _key_params(m: int, mask: int) -> KeyParams:
    """``key_params`` of the pair set with point mask ``mask``."""
    mp = m // 4
    u_star = _unique_max_point(m, mask | _free_mask(m, mask))
    base = ((mask >> u_star) | (mask << (m - u_star))) & ((1 << m) - 1)

    def max_of(k: int) -> int:
        # the two quarters span m/2 points, so no fill blocks the other
        return _unique_max_point(m, _fill_mask(m, base, _interval_mask(m, k * mp, 2 * mp)))

    def out(s: int, t: int, z1: int, z2: int) -> KeyParams:
        return KeyParams(s, (t + u_star) % m, (z1 + u_star) % m, (z2 + u_star) % m)

    x3 = _lift(max_of(3), 2 * mp, m)
    if x3 == m:
        # the maximum of every completion of the first quarter fill is pinned
        return out(0, 0, 0, 0)
    x2 = _lift(max_of(2), x3 - 2 * mp, m)
    if m - x2 < 2 * mp:
        return out(x3 - x2, x3 % m, 3 * mp, 0)
    x1 = _lift(max_of(1), x2 - 2 * mp, m)
    if x3 - x1 < 2 * mp:
        return out(x2 - x1, x2 % m, 2 * mp, 3 * mp)
    x0 = _lift(max_of(0), x1 - 2 * mp, m)
    if x2 - x0 < 2 * mp:
        return out(x1 - x0, x1 % m, mp, 2 * mp)
    # remaining case: the two quarters around the maximum are entirely free
    # and every completion of the first quarter fill keeps its maximum at 0
    return out(0, 0, 0, 0)


def verify_key_params(a: PairSet, p: KeyParams) -> bool:
    """Brute-force check of both window guarantees over all completions."""
    return _key_params_hold(a.m, a.mask, p)


def _key_params_hold(m: int, mask: int, p: KeyParams) -> bool:
    mp = m // 4
    checks = (
        (p.z1, (p.t - p.s) % m, p.s + 1),
        (p.z2, p.t, 2 * mp - p.s),
    )
    for z, lo, width in checks:
        for ext in _extension_masks(m, _fill_mask(m, mask, _interval_mask(m, z, mp))):
            mx, unique = _max_point_info(m, ext)
            if not unique:
                raise MaximalityTieError("full pair set with a non-unique maximum")
            if (mx - lo) % m >= width:
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration + exhaustive verification suites (driven by the CLI)

def all_partial_pair_sets(m: int) -> Iterator[PairSet]:
    return (PairSet.of(m, iter_bits(v)) for v in _partial_masks(m))


def all_full_pair_sets(m: int) -> Iterator[PairSet]:
    return (PairSet.of(m, iter_bits(v)) for v in _extension_masks(m, 0))


def _partial_masks(m: int) -> Iterator[int]:
    """Masks of the nonempty pair sets, pair 0's choice varying slowest."""
    half = m // 2
    choices = [(0, 1 << p, 1 << (p + half)) for p in range(half)]
    return filter(None, map(sum, itertools.product(*choices)))


@dataclass
class SuiteReport:
    name: str
    m: int
    checked: int
    failures: list
    notes: dict

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
    for mask in _partial_masks(m):
        checked += 1
        _, unique = _max_point_info(m, mask)
        if not unique:
            failures.append(PairSet.of(m, iter_bits(mask)))
    return SuiteReport("unique-max", m, checked, failures, {})


def verify_not_min(m: int) -> SuiteReport:
    """Full pair set with 0 maximal: no point of [0, r] is r-minimal, r < m/2."""
    checked, failures = 0, []
    for mask in _extension_masks(m, 0):
        if _unique_max_point(m, mask) != 0:
            continue
        for r in range(1, m // 2):
            words = _windows(m, mask, r)
            low = min(words)
            for x in range(r + 1):
                checked += 1
                if words[x] == low:
                    failures.append((PairSet.of(m, iter_bits(mask)), x, r))
    return SuiteReport("not-min", m, checked, failures, {})


def verify_not_top(m: int) -> SuiteReport:
    """Full pair set, x m/4-maximal: the maximal point lies in (x - m/2, x]."""
    checked, failures = 0, []
    for mask in _extension_masks(m, 0):
        mx = _unique_max_point(m, mask)
        for x in _r_maximal_points(m, mask, m // 4):
            checked += 1
            if (x - mx) % m >= m // 2:
                failures.append((PairSet.of(m, iter_bits(mask)), x))
    return SuiteReport("not-top", m, checked, failures, {})


def verify_least_max(m: int) -> SuiteReport:
    """With 0 m/4-maximal, the maximum is the first m/4-maximal point in (m/2, m]."""
    checked, failures = 0, []
    for mask in _extension_masks(m, 0):
        top = _r_maximal_points(m, mask, m // 4)
        if top[0] != 0:
            continue
        checked += 1
        first = next((x for x in top if x > m // 2), 0)
        if _unique_max_point(m, mask) != first:
            failures.append((PairSet.of(m, iter_bits(mask)), first))
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
    mp = m // 4
    interval = [[_interval_mask(m, x, r) for r in range(m)] for x in range(m)]
    quarter = [row[mp] for row in interval]
    ext_maxima: dict = {}  # upper fill mask -> maxima of its full completions
    checked, failures = 0, []
    for mask in _partial_masks(m):
        free = _free_mask(m, mask)
        maximal_in_amax = _r_maximal_points(m, mask | free, mp)
        for y in range(m):
            # [y - m/4, y + m/4) spans m/2 points: no fill there blocks another
            upper = mask | free & quarter[y]
            xp = _unique_max_point(m, mask | free & interval[(y - mp) % m][2 * mp])
            for x in maximal_in_amax:
                if free & interval[x][(y - x) % m]:
                    continue  # a free point inside [x, y)
                checked += 1
                maxima = ext_maxima.get(upper)
                if maxima is None:
                    maxima = ext_maxima[upper] = {
                        _max_point_info(m, ext)[0] for ext in _extension_masks(m, upper)}
                ok_a = (x - xp) % m < m // 2
                ok_b = xp in maximal_in_amax
                dv = (xp - (y - mp)) % m
                in_yx = 0 < dv <= (x - (y - mp)) % m
                width = (x - xp) % m + 1
                ok_c = in_yx or not free & interval[xp][(y - mp - xp) % m]
                ok_d = all((mx - xp) % m < width for mx in maxima)
                if not (ok_a and ok_b and ok_c and ok_d):
                    failures.append((PairSet.of(m, iter_bits(mask)), x, y, xp,
                                     ok_a, ok_b, ok_c, ok_d))
    return SuiteReport("earliest-latest", m, checked, failures, {})


def verify_key_lemma(m: int, max_free_pairs: Optional[int] = None) -> SuiteReport:
    """key_params output passes verify_key_params for every partial pair set."""
    checked, skipped, failures = 0, 0, []
    max_s = 0
    for mask in _partial_masks(m):
        if max_free_pairs is not None and _free_mask(m, mask).bit_count() // 2 > max_free_pairs:
            skipped += 1
            continue
        checked += 1
        p = _key_params(m, mask)
        max_s = max(max_s, p.s)
        if not _key_params_hold(m, mask, p):
            failures.append((PairSet.of(m, iter_bits(mask)), p))
    notes = {"max_s_observed": max_s}
    if max_free_pairs is not None:
        notes["restricted_to_free_pairs"] = max_free_pairs
        notes["skipped"] = skipped
    return SuiteReport("key-lemma", m, checked, failures, notes)


SUITES = {
    "unique-max": verify_unique_max,
    "not-min": verify_not_min,
    "not-top": verify_not_top,
    "least-max": verify_least_max,
    "earliest-latest": verify_earliest_latest,
    "key-lemma": verify_key_lemma,
}


def run_suite(name: str, m: int, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise PairSetError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if m > 16:  # the enumerations grow as 3^(m/2); 16 is the largest size tested
        raise PairSetError(f"m = {m} is above the largest suite size 16")
    return SUITES[name](m, **kwargs)
