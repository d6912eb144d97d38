"""Factories for every shipped game family.

Each factory returns a ``Game`` whose generators provably preserve the line
family and act transitively (both are rechecked by the test suite). Board
points are canonically indexed 0..n-1; structured boards document their
bijection in ``Game.meta``:

  bucket boards    point i lives in bucket i // p at offset i % p
  bin boards       (x, y) in Z_b x Z_m  <->  x * m + y
  torus boards     coordinates are base-q digits, most significant first
  copy boards      (i, v) with v a point of the base game  <->  i * n_base + v
  product boards   (t, h), t a torus index, h a point of the 6-point base
                   <->  t * 6 + h

The half-board-size families are described through their *allowed* sets
(the family the first player tries to complete); lines are the complements
of the allowed sets, or the non-members of the fixed size level, as noted
per construction.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .core import (ExplicitLines, Game, GameError, ImplicitLines, Permutation,
                   mask_of, set_of)
from . import pairset as _ps


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GameError(msg)


# ---------------------------------------------------------------------------
# odd composite boards: q buckets of p points

def odd_composite(p: int, q: int) -> Game:
    """Bucket game on p*q points, p and q odd and at least 3.

    Allowed sets: exactly (p+1)/2 points in each of exactly (q+1)/2
    buckets. Lines are all other sets of that size k; any strictly larger
    set always contains a line, so containment reduces to a size test plus
    one profile test at size k (cross-checked against subset enumeration).
    """
    _require(p >= 3 and p % 2 == 1, f"p must be odd >= 3, got {p}")
    _require(q >= 3 and q % 2 == 1, f"q must be odd >= 3, got {q}")
    n = p * q
    pp, qq = (p + 1) // 2, (q + 1) // 2
    k = pp * qq
    buckets = [((1 << p) - 1) << (j * p) for j in range(q)]

    def profile_ok(mask: int) -> bool:
        # at size k, pp points in each nonempty bucket force qq such buckets
        for bucket in buckets:
            if (mask & bucket).bit_count() not in (0, pp):
                return False
        return True

    def is_line(s: frozenset) -> bool:
        return len(s) == k and not profile_ok(mask_of(s))

    def contains(mask: int) -> bool:
        c = mask.bit_count()
        if c != k:
            return c > k
        return not profile_ok(mask)

    def w_iter() -> Iterator[frozenset]:
        for buckets in itertools.combinations(range(q), qq):
            choices = [itertools.combinations(range(b * p, b * p + p), pp)
                       for b in buckets]
            for parts in itertools.product(*choices):
                yield frozenset(itertools.chain.from_iterable(parts))

    def canonical(mine: int, theirs: int) -> tuple:
        # lines depend only on per-bucket counts, so every bucket-preserving
        # permutation (S_p wr S_q) is an automorphism: the sorted profile
        # of (mine, theirs) counts per bucket names the orbit
        return tuple(sorted([((mine & bk).bit_count(), (theirs & bk).bit_count())
                             for bk in buckets]))

    store = ImplicitLines(n, k, is_line, contains,
                          spec=("odd_composite", {"p": p, "q": q}),
                          w_iter=w_iter,
                          w_member=lambda s: len(s) == k and profile_ok(mask_of(s)))
    bucket_cycle = Permutation(tuple(((i // p + 1) % q) * p + i % p for i in range(n)))
    in_bucket = Permutation(tuple((i + 1) % p if i < p else i for i in range(n)))
    return Game(n, store, (bucket_cycle, in_bucket), f"odd_composite({p},{q})",
                meta={"construction": "odd_composite", "params": {"p": p, "q": q},
                      "indexing": "point i -> (bucket i//p, offset i%p)"},
                canonical=canonical)


# ---------------------------------------------------------------------------
# pair boards: b opposite pairs, n = 2b

def _pairs_w_sets(b: int) -> list[frozenset]:
    bp = (b - 1) // 2
    out = []
    for picks in itertools.product((0, 1), repeat=b):
        if sum(picks) % 2 == 1:
            out.append(frozenset(2 * i + y for i, y in enumerate(picks)))
    for full in range(b):
        for d in range(1, bp + 1):
            empty = (full + d) % b
            rest = [i for i in range(b) if i not in (full, empty)]
            for picks in itertools.product((0, 1), repeat=len(rest)):
                s = {2 * full, 2 * full + 1}
                s.update(2 * i + y for i, y in zip(rest, picks))
                out.append(frozenset(s))
    return out


def _pairs_w_member(b: int, s: frozenset) -> bool:
    if len(s) != b:
        return False
    bp = (b - 1) // 2
    count = [0] * b
    ones = 0
    for x in s:
        count[x // 2] += 1
        ones += x % 2
    fulls = [i for i, c in enumerate(count) if c == 2]
    empties = [i for i, c in enumerate(count) if c == 0]
    if not fulls:
        return ones % 2 == 1
    if len(fulls) == 1 and len(empties) == 1:
        return 1 <= (empties[0] - fulls[0]) % b <= bp
    return False


def pairs_game(b: int, store: str = "explicit") -> Game:
    """Game on b opposite pairs (n = 2b), b odd and at least 3.

    Point (x, y) of Z_b x Z_2 is index 2x + y. Allowed sets of size b:
    either one point of each pair with an odd number of second coordinates
    set, or both of one pair and none of a pair at distance 1..(b-1)/2
    after it. Lines are the complements of the allowed sets.
    """
    _require(b >= 3 and b % 2 == 1, f"b must be odd >= 3, got {b}")
    _require(store in ("explicit", "implicit"), f"unknown store {store!r}")
    n = 2 * b
    board = frozenset(range(n))

    if store == "explicit":
        lines = [board - w for w in _pairs_w_sets(b)]
        line_store: object = ExplicitLines(n, lines)
    else:
        def is_line(s: frozenset) -> bool:
            return len(s) == b and _pairs_w_member(b, board - s)

        def contains(mask: int) -> bool:
            c = mask.bit_count()
            if c < b:
                return False
            rest = set_of(((1 << n) - 1) ^ mask)
            return _pairs_w_member(b, rest) if c == b else _pairs_extendable(b, rest)

        line_store = ImplicitLines(
            n, b, is_line, contains, spec=("pairs", {"b": b}),
            w_iter=lambda: iter(_pairs_w_sets(b)),
            w_member=lambda s: _pairs_w_member(b, s))

    pair_cycle = Permutation(tuple((2 * ((i // 2 + 1) % b)) + i % 2 for i in range(n)))
    double_swap = Permutation(tuple(
        i ^ 1 if i < 4 else i for i in range(n)))  # swap inside pairs 0 and 1
    return Game(n, line_store, (pair_cycle, double_swap),
                f"pairs({b})",
                meta={"construction": "pairs", "params": {"b": b},
                      "indexing": "(x, y) in Z_b x Z_2 -> 2x + y"},
                canonical=_pairs_canonical(b))


def _pairs_canonical(b: int):
    """Key of a position's orbit under the shipped group of ``pairs_game(b)``.

    The group is the pair rotations times the flips of an even number of
    pairs. Flipping each pair that holds one claimed point on its high
    side, or mine on the high point and theirs on the low one, brings every
    pair to one orientation. The parity of those flips is kept, unless an
    empty pair or one held whole by a player (a pair the flip fixes) can
    absorb an odd flip. The key is the least of the b rotations of
    ``mine | theirs << n``, with the parity as bit 2n.
    """
    n = 2 * b
    lo = mask_of(range(0, n, 2))
    wrap = 3 | 3 << n      # pair 0 of each half, where a rotation wraps in
    keep = ((1 << 2 * n) - 1) & ~wrap

    def canonical(mine: int, theirs: int) -> int:
        claimed = mine | theirs
        c_lo, c_hi = claimed & lo, (claimed >> 1) & lo
        flip = (c_hi & ~c_lo) | ((mine >> 1) & theirs & lo)
        both = flip | flip << 1
        mine = (mine & ~both) | (mine & flip) << 1 | (mine >> 1) & flip
        theirs = (theirs & ~both) | (theirs & flip) << 1 | (theirs >> 1) & flip
        best = v = mine | theirs << n
        for _ in range(b - 1):
            v = (v << 2) & keep | (v >> (n - 2)) & wrap
            if v < best:
                best = v
        if lo & ~(c_lo | c_hi) or mine & (mine >> 1) & lo or theirs & (theirs >> 1) & lo:
            return best
        return best | (flip.bit_count() & 1) << 2 * n

    return canonical


def _pairs_extendable(b: int, t: frozenset) -> bool:
    """Is t a subset of some allowed set of the pair game?"""
    count = [0] * b
    ones = 0
    for x in t:
        count[x // 2] += 1
        ones += x % 2
    fulls = [i for i, c in enumerate(count) if c == 2]
    if len(fulls) > 1:
        return False
    free = [i for i, c in enumerate(count) if c == 0]
    bp = (b - 1) // 2
    if not fulls and free:
        return True  # parity fixable with a free pair's choice
    if not fulls:
        return ones % 2 == 1
    f = fulls[0]
    return any(1 <= (e - f) % b <= bp for e in free)


# ---------------------------------------------------------------------------
# general even boards: b bins of m = 2^a points

def _bin_sets(n: int, b: int, m: int, s: frozenset) -> list[set]:
    bins: list[set] = [set() for _ in range(b)]
    for x in s:
        bins[x // m].add(x % m)
    return bins


def _even_allowed(b: int, m: int, w: int) -> bool:
    """Is the point mask ``w`` an allowed set of the general even game?

    Over all bins at once, ``lo & hi`` marks doubled opposite pairs and the
    pairs in neither half are empty; with |w| = n/2 the two counts are equal.
    """
    half, mp, bp = m // 2, m // 4, (b - 1) // 2
    if w.bit_count() != b * half:
        return False
    binmask = (1 << m) - 1
    low = ((1 << half) - 1) * (((1 << (b * m)) - 1) // binmask)  # first half of each bin
    lo, hi = w & low, (w >> half) & low
    doubled, empty = lo & hi, low & ~(lo | hi)
    if not doubled:
        total = sum(_ps._max_point_info(m, (w >> (j * m)) & binmask)[0] for j in range(b))
        return total % m < half
    if doubled & (doubled - 1) or empty & (empty - 1):
        return False
    (j, f), (j2, e) = divmod(doubled.bit_length() - 1, m), divmod(empty.bit_length() - 1, m)
    if j2 != j:
        return 1 <= (j2 - j) % b <= bp
    return 1 <= (e - f) % half <= mp - 1


def _even_w_iter(b: int, m: int) -> Iterator[frozenset]:
    half, mp, bp = m // 2, m // 4, (b - 1) // 2
    transversals = [frozenset(ps.members) for ps in _ps.all_full_pair_sets(m)]
    maxima = {t: _ps.maximal_point(t, m=m) for t in transversals}
    for combo in itertools.product(transversals, repeat=b):
        if sum(maxima[t] for t in combo) % m < half:
            yield frozenset(j * m + y for j, t in enumerate(combo) for y in t)
    pair_choices = [(pid, pid + half) for pid in range(half)]
    for j in range(b):
        for fpid in range(half):
            placements = [(j, (fpid + d) % half) for d in range(1, mp)]
            placements += [((j + d) % b, pid)
                           for d in range(1, bp + 1) for pid in range(half)]
            for (je, epid) in placements:
                rest = [(jj, pid) for jj in range(b) for pid in range(half)
                        if (jj, pid) not in ((j, fpid), (je, epid))]
                for picks in itertools.product((0, 1), repeat=len(rest)):
                    s = {j * m + fpid, j * m + (fpid + half) % m}
                    s.update(jj * m + pair_choices[pid][side]
                             for (jj, pid), side in zip(rest, picks))
                    yield frozenset(s)


def _even_extendable(b: int, m: int, t: frozenset) -> bool:
    """Is t a subset of some allowed set of the general even game?"""
    half, mp, bp = m // 2, m // 4, (b - 1) // 2
    bins = _bin_sets(b * m, b, m, t)
    fulls = [(j, pid) for j, bs in enumerate(bins) for pid in range(half)
             if pid in bs and (pid + half) % m in bs]
    if len(fulls) > 1:
        return False
    if not fulls:
        # transversal completion: per-bin achievable maxima, then a sum test
        reachable = {0}
        for bs in bins:
            if bs:
                options = {_ps.maximal_point(e)
                           for e in _ps.full_extensions(_ps.PairSet.of(m, bs))}
            else:
                options = {_ps.maximal_point(e) for e in _ps.all_full_pair_sets(m)}
            reachable = {(r + o) % m for r in reachable for o in options}
        if any(v < half for v in reachable):
            return True
    # completion with one doubled pair: enumerate its position and the empty
    # pair; the only doubled pair of t, if any, is the candidate itself
    candidates = fulls or [(j, pid) for j in range(b) for pid in range(half)]
    for (j, fpid) in candidates:
        placements = [(j, (fpid + d) % half) for d in range(1, mp)]
        placements += [((j + d) % b, pid)
                       for d in range(1, bp + 1) for pid in range(half)]
        for (je, epid) in placements:
            if not {je * m + epid, je * m + (epid + half) % m} & t:
                return True
    return False


def even_general(a: int, b: int) -> Game:
    """Bin game on b * 2^a points, a >= 2 and b odd > 1.

    Point (x, y) of Z_b x Z_m is index x*m + y, m = 2^a. Allowed sets of
    size n/2: either one of each opposite pair per bin with the per-bin
    maximal points summing into [0, m/2) mod m, or both of exactly one
    pair and a single empty pair sitting in one of the next (b-1)/2 bins,
    or in the same bin displaced by 1..m/4-1 after the doubled pair.
    Lines are the complements of the allowed sets.
    """
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require(b > 1 and b % 2 == 1, f"b must be odd > 1, got {b}")
    m = 1 << a
    n = b * m
    k = n // 2
    full = (1 << n) - 1

    def is_line(s: frozenset) -> bool:
        return len(s) == k and _even_allowed(b, m, full & ~mask_of(s))

    def contains(mask: int) -> bool:
        c = mask.bit_count()
        if c < k:
            return False
        rest = full ^ mask
        return _even_allowed(b, m, rest) if c == k else _even_extendable(b, m, set_of(rest))

    store = ImplicitLines(n, k, is_line, contains,
                          spec=("even_general", {"a": a, "b": b}),
                          w_iter=lambda: _even_w_iter(b, m),
                          w_member=lambda s: _even_allowed(b, m, mask_of(s)))
    bin_cycle = Permutation(tuple(((i // m + 1) % b) * m + i % m for i in range(n)))
    # rotate bin 0 by +1 and bin 1 by -1: rotation amounts sum to zero
    img = list(range(n))
    for y in range(m):
        img[y] = (y + 1) % m
        img[m + y] = m + (y - 1) % m
    balanced_rot = Permutation(tuple(img))
    return Game(n, store, (bin_cycle, balanced_rot), f"even_general({a},{b})",
                meta={"construction": "even_general", "params": {"a": a, "b": b},
                      "indexing": "(x, y) in Z_b x Z_m -> x*m + y"})


# ---------------------------------------------------------------------------
# torus boards

def _torus_index(coords: Sequence[int], q: int) -> int:
    v = 0
    for c in coords:
        v = v * q + c
    return v


def _torus_coords(idx: int, q: int, d: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        out.append(idx % q)
        idx //= q
    return tuple(reversed(out))


def torus_lines(q: int, d: int) -> list[frozenset]:
    n = q ** d
    seen = set()
    for x in range(n):
        xc = _torus_coords(x, q, d)
        for y in range(1, n):
            yc = _torus_coords(y, q, d)
            line = frozenset(
                _torus_index(tuple((a + t * b) % q for a, b in zip(xc, yc)), q)
                for t in range(q))
            seen.add(line)
    return sorted(seen, key=lambda l: sorted(l))


# digit operations ``torus_lines`` may make, n^2 * q * d; torus(16,2) is at
# the budget (about 2 s)
TORUS_WORK_BUDGET = 1 << 21


def torus(q: int, d: int) -> Game:
    """Arithmetic-progression game on Z_q^d.

    Lines are the point sets {x, x+y, ..., x+(q-1)y} for y != 0,
    deduplicated. Generators: one translation per coordinate, plus a
    coordinate rotation and pointwise negation for the stronger symmetry
    checks.
    """
    _require(q >= 2, f"q must be >= 2, got {q}")
    _require(d >= 1, f"d must be >= 1, got {d}")
    # torus_lines makes n^2 * q = q^(2d+1) point images of d digits each;
    # d <= 20 keeps the power cheap, as q >= 2 puts any d >= 10 over budget
    _require(d <= 20 and q ** (2 * d + 1) * d <= TORUS_WORK_BUDGET,
             f"torus({q},{d}) is over the work budget: n^2 * q * d > {TORUS_WORK_BUDGET}")
    n = q ** d
    store = ExplicitLines(n, torus_lines(q, d))
    gens = []
    for axis in range(d):
        step = [0] * d
        step[axis] = 1
        gens.append(Permutation(tuple(
            _torus_index(tuple((c + s) % q for c, s in
                               zip(_torus_coords(i, q, d), step)), q)
            for i in range(n))))
    if d > 1:
        gens.append(Permutation(tuple(
            _torus_index(_torus_coords(i, q, d)[1:] + _torus_coords(i, q, d)[:1], q)
            for i in range(n))))
    gens.append(Permutation(tuple(
        _torus_index(tuple((-c) % q for c in _torus_coords(i, q, d)), q)
        for i in range(n))))
    return Game(n, store, tuple(gens), f"torus({q},{d})",
                meta={"construction": "torus", "params": {"q": q, "d": d},
                      "indexing": "coords are base-q digits, most significant first"})


# ---------------------------------------------------------------------------
# derived boards

def disjoint_copies(g: Game, c: int) -> Game:
    """c disjoint relabelled copies of ``g``; lines live inside copies."""
    _require(c >= 1 and c % 2 == 1, f"copy count must be odd >= 1, got {c}")
    _require(isinstance(g.lines, ExplicitLines),
             "disjoint copies need an explicit base line store")
    n = c * g.n
    lines = [frozenset(i * g.n + x for x in l)
             for i in range(c) for l in g.lines.lines]
    gens = []
    for base_gen in g.generators:
        gens.append(Permutation(tuple(
            (i // g.n) * g.n + base_gen(i % g.n) for i in range(n))))
    gens.append(Permutation(tuple(
        ((i // g.n + 1) % c) * g.n + i % g.n for i in range(n))))
    return Game(n, ExplicitLines(n, lines), tuple(gens),
                f"copies({g.name},{c})",
                meta={"construction": "copies", "params": {"base": g.name, "c": c},
                      "base": g, "indexing": "(copy i, base point v) -> i*n_base + v"})


def superset_lines(g: Game, r: int) -> Game:
    """Same board as ``g``; lines are the r-sets containing a line of ``g``."""
    max_line = getattr(g.lines, "min_line_size", None)
    if isinstance(g.lines, ExplicitLines):
        max_line = max(len(l) for l in g.lines.lines)
    else:
        max_line = g.lines.k  # uniform implicit families
    _require(r >= max_line, f"r={r} smaller than a line of the base game")
    n = g.n

    def is_line(s: frozenset) -> bool:
        return len(s) == r and g.contains_line(s)

    def contains(mask: int) -> bool:
        return mask.bit_count() >= r and g.lines.contains_mask(mask)

    from math import comb
    if isinstance(g.lines, ExplicitLines) and comb(n, r) <= 100_000:
        lines = {frozenset(c) for c in itertools.combinations(range(n), r)
                 if g.contains_line(c)}
        store: object = ExplicitLines(n, sorted(lines, key=sorted))
    else:
        store = ImplicitLines(n, r, is_line, contains,
                              spec=("superset", {"base": g.name, "r": r}))
        store.check_preserved = lambda perm: g.lines.check_preserved(perm)  # type: ignore
    return Game(n, store, g.generators, f"superset({g.name},{r})",
                meta={"construction": "superset", "params": {"base": g.name, "r": r},
                      "base": g})


def product_torus(d: int) -> Game:
    """Product of the d-dimensional base-3 torus with the 6-point pair game.

    Board (t, h) -> t*6 + h. Lines: each torus point carries a copy of the
    pair game's lines, and each of the 6 layers carries the torus lines.
    """
    _require(d >= 1, f"d must be >= 1, got {d}")
    h1 = pairs_game(3)
    t3 = torus(3, d)
    n = t3.n * 6
    lines = [frozenset(t * 6 + x for x in l)
             for t in range(t3.n) for l in h1.lines.lines]
    lines += [frozenset(t * 6 + y for t in l) for l in t3.lines.lines
              for y in range(6)]
    gens = []
    for tg in t3.generators[:d]:   # the translations
        gens.append(Permutation(tuple(tg(i // 6) * 6 + i % 6 for i in range(n))))
    for hg in h1.generators:
        gens.append(Permutation(tuple((i // 6) * 6 + hg(i % 6) for i in range(n))))
    return Game(n, ExplicitLines(n, lines), tuple(gens), f"product_torus({d})",
                meta={"construction": "product_torus", "params": {"d": d},
                      "base": h1, "torus": t3,
                      "indexing": "(torus index t, base point h) -> t*6 + h"})


# ---------------------------------------------------------------------------
# prime boards with affine allowed families

AFFINE_BASES = {
    11: [frozenset({0, 1, 2, 4, 5})],
    13: [frozenset({0, 1, 2, 4, 5, 6}),
         frozenset({0, 1, 2, 4, 5, 7}),
         frozenset({0, 1, 3, 4, 5, 7})],
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _primitive_root(n: int) -> int:
    order = n - 1
    factors = set()
    v, f = order, 2
    while f * f <= v:
        while v % f == 0:
            factors.add(f)
            v //= f
        f += 1
    if v > 1:
        factors.add(v)
    for g in range(2, n):
        if all(pow(g, order // p, n) != 1 for p in factors):
            return g
    raise GameError(f"no primitive root mod {n}")


def affine_game(n: int, bases: Optional[Iterable[Iterable[int]]] = None) -> Game:
    """Game on a prime board whose allowed family is affine-closed.

    Allowed sets: all images a*B + c of the base sets B under the affine
    group of Z_n. Lines are the remaining (n-1)/2-subsets, stored
    explicitly. Rejects base families whose affine closure is not
    intersecting (two disjoint allowed sets make the construction vacuous).
    """
    _require(_is_prime(n), f"n must be prime, got {n}")
    if bases is None:
        _require(n in AFFINE_BASES, f"no default base sets for n={n}")
        base_sets = AFFINE_BASES[n]
    else:
        base_sets = [frozenset(b) for b in bases]
    k = (n - 1) // 2
    for b in base_sets:
        _require(len(b) == k, f"base set {sorted(b)} is not of size {(n - 1) // 2}")
        _require(all(0 <= x < n for x in b), "base set point off the board")

    w: set = set()
    for b in base_sets:
        for a in range(1, n):
            for c in range(n):
                w.add(frozenset((a * x + c) % n for x in b))
    w_sorted = sorted(w, key=sorted)
    for i, w1 in enumerate(w_sorted):
        for w2 in w_sorted[i + 1:]:
            if not w1 & w2:
                raise GameError(
                    f"allowed family not intersecting: {sorted(w1)} and {sorted(w2)} "
                    f"are disjoint")
    lines = [frozenset(c) for c in itertools.combinations(range(n), k)
             if frozenset(c) not in w]
    g = _primitive_root(n)
    shift = Permutation(tuple((x + 1) % n for x in range(n)))
    scale = Permutation(tuple((g * x) % n for x in range(n)))
    return Game(n, ExplicitLines(n, lines), (shift, scale), f"affine({n})",
                meta={"construction": "affine", "params": {"n": n},
                      "allowed_count": len(w)})


# ---------------------------------------------------------------------------
# small graph-style games (size-2 lines and friends)

def cycle_game(k: int) -> Game:
    """Edges of the k-cycle as size-2 lines."""
    _require(k >= 3, f"cycle needs k >= 3, got {k}")
    lines = [frozenset({i, (i + 1) % k}) for i in range(k)]
    return Game(k, ExplicitLines(k, lines), (Permutation.cycle(k),),
                f"cycle({k})", meta={"construction": "cycle", "params": {"n": k}})


def complete_graph_game(k: int) -> Game:
    """All pairs as size-2 lines."""
    _require(k >= 3, f"complete graph needs k >= 3, got {k}")
    lines = [frozenset(e) for e in itertools.combinations(range(k), 2)]
    return Game(k, ExplicitLines(k, lines), (Permutation.cycle(k),),
                f"complete({k})", meta={"construction": "complete", "params": {"n": k}})


def matching_game(k: int) -> Game:
    """A perfect matching on 2k points: lines {i, i+k}."""
    _require(k >= 2, f"matching needs k >= 2, got {k}")
    lines = [frozenset({i, i + k}) for i in range(k)]
    return Game(2 * k, ExplicitLines(2 * k, lines), (Permutation.cycle(2 * k),),
                f"matching({k})", meta={"construction": "matching", "params": {"k": k}})


# ---------------------------------------------------------------------------
# registry, game-spec strings, JSON round trip

CATALOG = {
    "odd_composite": {"factory": odd_composite, "params": ["p", "q"],
                      "ranges": "p, q odd >= 3"},
    "pairs": {"factory": pairs_game, "params": ["b"], "ranges": "b odd >= 3"},
    "even_general": {"factory": even_general, "params": ["a", "b"],
                     "ranges": "a >= 2, b odd > 1"},
    "torus": {"factory": torus, "params": ["q", "d"],
              "ranges": "q >= 2, d >= 1, q^(2d+1) * d <= 2^21"},
    "product_torus": {"factory": product_torus, "params": ["d"], "ranges": "d >= 1"},
    "affine": {"factory": affine_game, "params": ["n"], "ranges": "n in {11, 13}"},
    "cycle": {"factory": cycle_game, "params": ["n"], "ranges": "n >= 3"},
    "complete": {"factory": complete_graph_game, "params": ["n"], "ranges": "n >= 3"},
    "matching": {"factory": matching_game, "params": ["k"], "ranges": "k >= 2"},
    "copies": {"factory": None, "params": ["base", "c"], "ranges": "c odd >= 1"},
    "superset": {"factory": None, "params": ["base", "r"],
                 "ranges": "r >= max base line size"},
}


MAX_SPEC_DEPTH = 16  # parentheses a game spec may nest


def parse_game_spec(spec: str) -> Game:
    """Build a game from a compact string like ``pairs(3)`` or ``copies(pairs(3),3)``."""
    spec = spec.strip()
    depth, head = 0, None
    for i, ch in enumerate(spec):
        if ch == "(":
            head = spec[:i]
            break
    if head is None or not spec.endswith(")"):
        raise GameError(f"malformed game spec {spec!r}")
    inner = spec[len(head) + 1:-1]
    args: list[str] = []
    start = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
            if depth >= MAX_SPEC_DEPTH:
                raise GameError(f"game spec nests deeper than {MAX_SPEC_DEPTH} parentheses")
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(inner[start:i])
            start = i + 1
    args.append(inner[start:])
    args = [a.strip() for a in args if a.strip()]

    def as_value(token: str):
        return parse_game_spec(token) if "(" in token else int(token)

    values = [as_value(a) for a in args]
    if head == "copies":
        return disjoint_copies(*values)
    if head == "superset":
        return superset_lines(*values)
    if head not in CATALOG or CATALOG[head]["factory"] is None:
        raise GameError(f"unknown construction {head!r}")
    return CATALOG[head]["factory"](*values)


def game_to_json(game: Game) -> dict:
    lines: dict
    if isinstance(game.lines, ExplicitLines):
        lines = {"explicit": [sorted(l) for l in game.lines.lines]}
    elif isinstance(game.lines, ImplicitLines):
        name, params = game.lines.spec
        lines = {"implicit": {"construction": name, "params": params}}
    else:
        raise GameError("unknown line store")
    return {
        "n": game.n,
        "name": game.name,
        "lines": lines,
        "generators": [list(g.image) for g in game.generators],
    }


def _family_key(doc: dict) -> tuple:
    lines = doc["lines"]
    if "explicit" in lines:
        lines = frozenset(frozenset(l) for l in lines["explicit"])
    return lines, frozenset(tuple(g) for g in doc["generators"])


def game_from_json(doc: dict) -> Game:
    """Load a game document, rebuilding named constructions.

    A game rebuilt from its name or implicit parameters must have the
    document's lines and generators; a mismatch is refused, never swapped.
    """
    n = doc["n"]
    name = doc.get("name", "game")
    lines = doc["lines"]
    if "explicit" in lines:
        try:
            game = parse_game_spec(name)
        except GameError:
            gens = tuple(Permutation(tuple(img)) for img in doc["generators"])
            return Game(n, ExplicitLines(n, lines["explicit"]), gens, name)
    else:
        impl = lines["implicit"]
        cname, params = impl["construction"], impl["params"]
        if cname == "odd_composite":
            game = odd_composite(params["p"], params["q"])
        elif cname == "pairs":
            game = pairs_game(params["b"], store="implicit")
        elif cname == "even_general":
            game = even_general(params["a"], params["b"])
        elif cname == "superset":
            game = superset_lines(parse_game_spec(params["base"]), params["r"])
        else:
            raise GameError(f"unknown implicit construction {cname!r}")
    if game.n != n:
        raise GameError(f"rebuilt board size {game.n} != serialized {n}")
    if _family_key(game_to_json(game)) != _family_key(doc):
        raise GameError(f"the lines or generators of the document differ from "
                        f"those of the rebuilt game {game.name}")
    return game
