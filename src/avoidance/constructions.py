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
per construction. ``pairs(b)`` is the bin board with m = 2 and odd
transversal parity, built from the same rule (``bin_rule``) as
``even_general``.
"""

from __future__ import annotations

import itertools
from math import comb
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from .core import (ExplicitLines, Game, GameError, ImplicitLines, Permutation,
                   iter_bits, mask_of)
from . import pairset as _ps
from .canonical import affine_canonical, odd_composite_canonical, pairs_canonical


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GameError(msg)


# Work a construction may do, checked on a size estimate before anything is
# built. A unit is about a microsecond or a machine word: a digit operation
# of ``torus_lines`` (torus(16,2) is at the budget, about 0.2 s), a word of a
# board and its line store (``_require_board``), or a candidate line.
CONSTRUCTION_WORK_BUDGET = 1 << 21

# estimates that grow with a parameter take it capped here: past the cap
# the estimate is over the budget anyway, and the power stays cheap
_PARAM_CAP = 64


def _require_work(work: int, what: str, estimate: str) -> None:
    _require(work <= CONSTRUCTION_WORK_BUDGET,
             f"{what} is over the work budget: {estimate} > {CONSTRUCTION_WORK_BUDGET}")


def _require_board(n: int, lines: Optional[int], generators: int, what: str) -> None:
    """Refuse a board of n points whose words are over the budget: an image
    per generator (4 words a point) and, for ``lines`` explicit lines,
    per-point line tables (16 words a point) and an n-bit mask per line.
    An implicit store (``lines`` None) builds neither."""
    work = 4 * generators * n
    if lines is not None:
        work += 16 * n + lines * (n // 64 + 1)
    _require_work(work, what, "the words of its board")


# ---------------------------------------------------------------------------
# odd composite boards: q buckets of p points

def _odd_composite_size(p: int, q: int) -> int:
    _require(p >= 3 and p % 2 == 1, f"p must be odd >= 3, got {p}")
    _require(q >= 3 and q % 2 == 1, f"q must be odd >= 3, got {q}")
    _require_board(p * q, None, 2, f"odd_composite({p},{q})")
    return p * q


def odd_composite(p: int, q: int) -> Game:
    """Bucket game on p*q points, p and q odd and at least 3.

    Allowed sets: exactly (p+1)/2 points in each of exactly (q+1)/2
    buckets. Lines are all other sets of that size k; any strictly larger
    set always contains a line, so containment reduces to a size test plus
    one profile test at size k (cross-checked against subset enumeration).
    """
    n = _odd_composite_size(p, q)
    pp, qq = (p + 1) // 2, (q + 1) // 2
    k = pp * qq
    buckets = [((1 << p) - 1) << (j * p) for j in range(q)]

    def profile_ok(mask: int) -> bool:
        # at size k, pp points in each nonempty bucket force qq such buckets
        for bucket in buckets:
            if (mask & bucket).bit_count() not in (0, pp):
                return False
        return True

    def contains(mask: int) -> bool:
        c = mask.bit_count()
        if c != k:
            return c > k
        return not profile_ok(mask)

    def w_iter() -> Iterator[int]:
        for buckets in itertools.combinations(range(q), qq):
            choices = [map(mask_of, itertools.combinations(range(b * p, b * p + p), pp))
                       for b in buckets]
            yield from map(sum, itertools.product(*choices))

    store = ImplicitLines(n, k, contains, w_iter=w_iter,
                          w_member=lambda w: w.bit_count() == k and profile_ok(w))
    bucket_cycle = Permutation.cycle(n, p)
    in_bucket = Permutation(tuple((i + 1) % p if i < p else i for i in range(n)))
    return Game(n, store, (bucket_cycle, in_bucket), f"odd_composite({p},{q})",
                meta={"construction": "odd_composite", "params": {"p": p, "q": q},
                      "indexing": "point i -> (bucket i//p, offset i%p)"},
                canonical=odd_composite_canonical(buckets))


# ---------------------------------------------------------------------------
# bin boards: b bins of m points, n = b * m; pairs(b) is m = 2

def bin_rule(b: int, m: int, offset: int) -> SimpleNamespace:
    """The bin board Z_b x Z_m (point x*m + y, opposite points y and
    y + m/2), which its lines and its mirror strategy share: ``b``, ``m``,
    ``offset``; ``low``, each bin's first half; ``window(x)``, both points
    of each pair in the window of x's pair (the next m/4 - 1 pairs of its
    bin, every pair of the next (b - 1)/2 bins); the allowed sets'
    enumeration ``w_iter()`` as point masks, and whether a mask is one
    (``allowed``) or lies inside one (``extendable``). They are
    ``even_general``'s, with the bins' maximal points summing, plus
    ``offset``, into [0, m/2) mod m.

    Over all bins at once, ``lo & hi`` marks doubled pairs and the pairs in
    neither half are empty, each pair named by its low point. A transversal
    holds one point of every pair, so each bin word is a full pair set,
    whose maximal point ``pairset``'s table gives by its choice bits. A
    point's window is found on first use and kept, so nothing sized by n
    is built up front.
    """
    n, half, mp, bp = b * m, m // 2, m // 4, (b - 1) // 2
    binmask, pair, choice_mask = (1 << m) - 1, 1 | 1 << half, (1 << half) - 1
    low = choice_mask * (((1 << n) - 1) // binmask)  # first half of each bin
    table = _ps._full_maxima(m)
    windows: dict = {}

    def transversal_ok(w: int) -> bool:
        total = offset
        for j in range(0, n, m):
            total += table[(w >> j + half) & choice_mask]
        return total % m < half

    def window(x: int) -> int:
        mask = windows.get(x)
        if mask is None:
            j, y = divmod(x, m)
            mask = sum(pair << (j * m + (y + d) % half) for d in range(1, mp))
            mask |= sum(binmask << ((j + d) % b * m) for d in range(1, bp + 1))
            windows[x] = mask
        return mask

    def extendable(t: int) -> bool:
        lo, hi = t & low, (t >> half) & low
        doubled, empty = lo & hi, low & ~(lo | hi)
        if not doubled:
            # an empty pair lies in the window of a pair in the bin before it
            return bool(empty) or transversal_ok(t)
        if doubled & (doubled - 1):
            return False
        return empty & window(doubled.bit_length() - 1) != 0

    def allowed(w: int) -> bool:
        return w.bit_count() == n // 2 and extendable(w)

    def w_iter() -> Iterator[int]:
        transversals = [(t, table[t >> half]) for t in _ps.extension_masks(m, 0)]
        for combo in itertools.product(transversals, repeat=b):
            if (offset + sum(mx for _, mx in combo)) % m < half:
                yield sum(t << j * m for j, (t, _) in enumerate(combo))
        for j in range(b):
            for fpid in range(half):
                placements = [(j, (fpid + d) % half) for d in range(1, mp)]
                placements += [((j + d) % b, pid)
                               for d in range(1, bp + 1) for pid in range(half)]
                for (je, epid) in placements:
                    # either point of every other opposite pair
                    choices = [(1 << jj * m + pid, 1 << jj * m + pid + half)
                               for jj in range(b) for pid in range(half)
                               if (jj, pid) not in ((j, fpid), (je, epid))]
                    doubled = 1 << j * m + fpid | 1 << j * m + fpid + half
                    yield from map(doubled.__or__, map(sum, itertools.product(*choices)))

    return SimpleNamespace(b=b, m=m, offset=offset, low=low, window=window,
                           w_iter=w_iter, allowed=allowed, extendable=extendable)


def pairs_rule(b: int) -> SimpleNamespace:
    """pairs(b)'s rule: m = 2, and odd transversal parity."""
    return bin_rule(b, 2, 1)


def even_general_rule(a: int, b: int) -> SimpleNamespace:
    """even_general(a, b)'s rule: m = 2^a and offset 0."""
    return bin_rule(b, 1 << a, 0)


def _bin_store(rule: SimpleNamespace) -> ImplicitLines:
    """The bin board's lines, the complements of the allowed sets: a mask
    of at least n/2 points holds one when its complement is extendable."""
    n, extendable = rule.b * rule.m, rule.extendable
    k, full = n // 2, (1 << n) - 1
    return ImplicitLines(n, k, lambda mask: mask.bit_count() >= k and extendable(full ^ mask),
                         w_iter=rule.w_iter, w_member=rule.allowed)


def _bin_generators(rule: SimpleNamespace) -> tuple[Permutation, Permutation]:
    """The bin cycle x -> x + 1, and bin 0 rotated by +1 with bin 1 by -1
    (rotation amounts summing to zero)."""
    m = rule.m
    n = rule.b * m
    bin_cycle = Permutation.cycle(n, m)
    balanced_rot = Permutation(tuple((i + 1) % m if i < m else m + (i - 1) % m
                                     if i < 2 * m else i for i in range(n)))
    return bin_cycle, balanced_rot


def _pairs_size(b: int, store: str = "explicit") -> int:
    _require(b >= 3 and b % 2 == 1, f"b must be odd >= 3, got {b}")
    _require(store in ("explicit", "implicit"), f"unknown store {store!r}")
    # explicit lines: 2^(b-1) odd transversals and b(b-1)/2 * 2^(b-2) sets
    # with a doubled pair
    c = min(b, _PARAM_CAP)
    line_count = (1 << (c - 1)) + c * (c - 1) // 2 * (1 << (c - 2))
    _require_board(2 * b, line_count if store == "explicit" else None, 2, f"pairs({b})")
    return 2 * b


def pairs_game(b: int, store: str = "explicit") -> Game:
    """Game on b opposite pairs (n = 2b), b odd and at least 3: the bin
    board with m = 2 and odd transversal parity.

    Point (x, y) of Z_b x Z_2 is index 2x + y. Allowed sets of size b:
    either one point of each pair with an odd number of second coordinates
    set, or both of one pair and none of a pair at distance 1..(b-1)/2
    after it. Lines are the complements of the allowed sets.
    """
    n = _pairs_size(b, store)
    rule = pairs_rule(b)
    if store == "explicit":
        full = (1 << n) - 1
        line_store: object = ExplicitLines(n, [full ^ w for w in rule.w_iter()])
    else:
        line_store = _bin_store(rule)
    return Game(n, line_store, _bin_generators(rule), f"pairs({b})",
                meta={"construction": "pairs", "params": {"b": b},
                      "indexing": "(x, y) in Z_b x Z_2 -> 2x + y"},
                canonical=pairs_canonical(b))


def _even_general_size(a: int, b: int) -> int:
    _require(a >= 2, f"a must be >= 2, got {a}")
    _require(b > 1 and b % 2 == 1, f"b must be odd > 1, got {b}")
    _require_board(b << min(a, _PARAM_CAP), None, 2, f"even_general({a},{b})")
    return b << a


def even_general(a: int, b: int) -> Game:
    """Bin game on b * 2^a points, a >= 2 and b odd > 1.

    Point (x, y) of Z_b x Z_m is index x*m + y, m = 2^a. Allowed sets of
    size n/2: either one of each opposite pair per bin with the per-bin
    maximal points summing into [0, m/2) mod m, or both of exactly one
    pair and a single empty pair sitting in one of the next (b-1)/2 bins,
    or in the same bin displaced by 1..m/4-1 after the doubled pair.
    Lines are the complements of the allowed sets.
    """
    n = _even_general_size(a, b)
    rule = even_general_rule(a, b)
    store = _bin_store(rule)
    return Game(n, store, _bin_generators(rule), f"even_general({a},{b})",
                meta={"construction": "even_general", "params": {"a": a, "b": b},
                      "indexing": "(x, y) in Z_b x Z_m -> x*m + y"})


# ---------------------------------------------------------------------------
# torus boards

def _torus_points(q: int, d: int) -> tuple[list, dict]:
    """The points of Z_q^d as coordinate tuples in index order, and each
    tuple's index."""
    coords = list(itertools.product(range(q), repeat=d))
    return coords, {c: i for i, c in enumerate(coords)}


def torus_lines(q: int, d: int) -> list[int]:
    """The line masks of ``torus(q, d)``, deduplicated, by point list."""
    coords, index = _torus_points(q, d)
    seen = set()
    for yc in coords[1:]:
        # step[i] is the index of point i + y
        step = [index[tuple((a + b) % q for a, b in zip(xc, yc))] for xc in coords]
        for x in range(len(coords)):
            line, p = 0, x
            for _ in range(q):
                line |= 1 << p
                p = step[p]
            seen.add(line)
    return sorted(seen, key=lambda m: list(iter_bits(m)))


def _torus_size(q: int, d: int) -> int:
    _require(q >= 2, f"q must be >= 2, got {q}")
    _require(d >= 1, f"d must be >= 1, got {d}")
    # torus_lines makes n^2 * q point steps and n^2 * d digit operations
    d_c = min(d, _PARAM_CAP)
    _require_work(q ** (2 * d_c + 1) * d_c, f"torus({q},{d})", "n^2 * q * d")
    return q ** d


def torus(q: int, d: int) -> Game:
    """Arithmetic-progression game on Z_q^d.

    Lines are the point sets {x, x+y, ..., x+(q-1)y} for y != 0,
    deduplicated. Generators: one translation per coordinate, plus a
    coordinate rotation and pointwise negation for the stronger symmetry
    checks.
    """
    n = _torus_size(q, d)
    store = ExplicitLines(n, torus_lines(q, d))
    coords, index = _torus_points(q, d)
    images = [[c[:a] + ((c[a] + 1) % q,) + c[a + 1:] for c in coords] for a in range(d)]
    if d > 1:
        images.append([c[1:] + c[:1] for c in coords])
    images.append([tuple(-x % q for x in c) for c in coords])
    gens = tuple(Permutation(tuple(map(index.__getitem__, im))) for im in images)
    return Game(n, store, gens, f"torus({q},{d})",
                meta={"construction": "torus", "params": {"q": q, "d": d},
                      "indexing": "coords are base-q digits, most significant first"})


# ---------------------------------------------------------------------------
# derived boards

def _copies_size(n: int, c: int) -> int:
    _require(c >= 1 and c % 2 == 1, f"copy count must be odd >= 1, got {c}")
    return c * n


def disjoint_copies(g: Game, c: int) -> Game:
    """c disjoint relabelled copies of ``g``; lines live inside copies."""
    n = _copies_size(g.n, c)
    _require(isinstance(g.lines, ExplicitLines),
             "disjoint copies need an explicit base line store")
    _require_board(n, c * len(g.lines.masks), len(g.generators) + 1,
                   f"copies({g.name},{c})")
    lines = [m << i * g.n for i in range(c) for m in g.lines.masks]
    gens = []
    for base_gen in g.generators:
        gens.append(Permutation(tuple(
            (i // g.n) * g.n + base_gen(i % g.n) for i in range(n))))
    gens.append(Permutation.cycle(n, g.n))
    return Game(n, ExplicitLines(n, lines), tuple(gens),
                f"copies({g.name},{c})",
                meta={"construction": "copies", "params": {"base": g.name, "c": c},
                      "base": g, "indexing": "(copy i, base point v) -> i*n_base + v"})


def _superset_size(n: int, r: int, max_line: int) -> int:
    _require(r <= n, f"r={r} is larger than the base board of {n} points")
    _require(r >= max_line, f"r={r} smaller than a line of the base game")
    return n


def superset_lines(g: Game, r: int) -> Game:
    """Same board as ``g``; lines are the r-sets containing a line of ``g``."""
    max_line = (max(m.bit_count() for m in g.lines.masks)
                if isinstance(g.lines, ExplicitLines) else g.lines.min_line_size)
    n = _superset_size(g.n, r, max_line)

    def contains(mask: int) -> bool:
        return mask.bit_count() >= r and g.lines.contains_mask(mask)

    if isinstance(g.lines, ExplicitLines) and comb(n, r) <= 100_000:
        masks = g.lines.masks
        # Fill each base line up to r points, about r - |l| + 1 a filled set,
        # or scan the r-sets, n - r + 1 words of |lines| bits an r-set (see
        # _superset_scan): the cheaper of the two, if it is in the budget.
        # Both sort alike.
        fill = sum(comb(n - k, r - k) * (r - k + 1) for k in map(int.bit_count, masks))
        scan = comb(n, r) * (n - r + 1) * (len(masks) // 64 + 1)
        _require_work(min(fill, scan), f"superset({g.name},{r})",
                      "the fill or scan of its r-sets")
        if fill <= scan:
            filled = set()
            for m in masks:
                rest = [1 << x for x in iter_bits(g.full_mask ^ m)]
                filled.update(m | sum(t) for t in itertools.combinations(rest, r - m.bit_count()))
            lines = sorted(filled, key=lambda m: list(iter_bits(m)))
        else:
            lines = _superset_scan(masks, n, r)
        store: object = ExplicitLines(n, lines)
    else:
        # a permutation preserving g's lines preserves the r-sets holding one
        store = ImplicitLines(n, r, contains, check=g.lines.check_preserved)
    return Game(n, store, g.generators, f"superset({g.name},{r})",
                meta={"construction": "superset", "params": {"base": g.name, "r": r},
                      "base": g})


def _superset_scan(masks: Sequence[int], n: int, r: int) -> list[int]:
    """The r-sets of n points that hold one of the lines ``masks``, in
    ``itertools.combinations`` order.

    An r-set holds a line unless each line meets the n - r points it
    leaves out, so it is one OR of their bitsets over the lines. The
    left-out sets run in ``combinations`` order, which is the reverse of
    the r-sets' order.
    """
    through = [bytearray(len(masks) // 8 + 1) for _ in range(n)]
    for i, m in enumerate(masks):
        for x in iter_bits(m):
            through[x][i >> 3] |= 1 << (i & 7)
    met = [int.from_bytes(t, "little") for t in through]
    every, full = (1 << len(masks)) - 1, (1 << n) - 1
    out = []
    for left in itertools.combinations(range(n), n - r):
        hit = 0
        for x in left:
            hit |= met[x]
        if hit != every:
            out.append(full ^ mask_of(left))
    out.reverse()
    return out


def _product_torus_size(d: int) -> int:
    return 6 * _torus_size(3, d)


def product_torus(d: int) -> Game:
    """Product of the d-dimensional base-3 torus with the 6-point pair game.

    Board (t, h) -> t*6 + h. Lines: each torus point carries a copy of the
    pair game's lines, and each of the 6 layers carries the torus lines.
    """
    n = _product_torus_size(d)
    h1 = pairs_game(3)
    t3 = torus(3, d)
    _require_board(n, t3.n * len(h1.lines.masks) + 6 * len(t3.lines.masks),
                   d + len(h1.generators), f"product_torus({d})")
    lines = [m << t * 6 for t in range(t3.n) for m in h1.lines.masks]
    lines += [mask_of(t * 6 for t in iter_bits(m)) << y for m in t3.lines.masks
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


def _affine_size(n: int) -> int:
    c = max(0, min(n, _PARAM_CAP))
    _require_work(comb(c, c // 2), f"affine({n})", "C(n, (n-1)/2) candidate lines")
    _require(_is_prime(n), f"n must be prime, got {n}")
    return n


def _affine_default_size(n: int) -> int:
    """``_affine_size`` for a spec, which builds the default base sets."""
    _affine_size(n)
    _require(n in AFFINE_BASES, f"no default base sets for n={n}")
    return n


def affine_game(n: int, bases: Optional[Iterable[Iterable[int]]] = None) -> Game:
    """Game on a prime board whose allowed family is affine-closed.

    Allowed sets: all images a*B + c of the base sets B under the affine
    group of Z_n. Lines are the remaining (n-1)/2-subsets, stored
    explicitly. Rejects base families whose affine closure is not
    intersecting (two disjoint allowed sets make the construction vacuous).
    The generators x + 1 and g*x, g a primitive root, make the whole affine
    group, which preserves the lines for any bases, so the ``canonical``
    form keys a position by its orbit under that group.
    """
    if bases is None:
        _affine_default_size(n)
        base_sets = AFFINE_BASES[n]
    else:
        _affine_size(n)
        base_sets = [frozenset(b) for b in bases]
    k = (n - 1) // 2
    for b in base_sets:
        _require(len(b) == k, f"base set {sorted(b)} is not of size {(n - 1) // 2}")
        _require(all(0 <= x < n for x in b), "base set point off the board")

    w = {mask_of((a * x + c) % n for x in b)
         for b in base_sets for a in range(1, n) for c in range(n)}
    # n = 2k + 1: the k-sets disjoint from an allowed set are its complement less a point
    full = (1 << n) - 1
    disjoint = [(list(iter_bits(w1)), list(iter_bits(w2))) for w1 in w
                for w2 in (full ^ w1 ^ 1 << x for x in iter_bits(full ^ w1)) if w2 in w]
    if disjoint:
        raise GameError("allowed family not intersecting: {} and {} are disjoint"
                        .format(*min(disjoint)))
    lines = [m for m in map(sum, itertools.combinations([1 << x for x in range(n)], k))
             if m not in w]
    g = _primitive_root(n)
    shift = Permutation.cycle(n)
    scale = Permutation(tuple((g * x) % n for x in range(n)))
    return Game(n, ExplicitLines(n, lines), (shift, scale), f"affine({n})",
                meta={"construction": "affine", "params": {"n": n},
                      "allowed_count": len(w)},
                canonical=affine_canonical(n))


# ---------------------------------------------------------------------------
# small graph-style games (size-2 lines and friends)

def _cycle_size(k: int) -> int:
    _require(k >= 3, f"cycle needs k >= 3, got {k}")
    _require_board(k, k, 1, f"cycle({k})")
    return k


def cycle_game(k: int) -> Game:
    """Edges of the k-cycle as size-2 lines."""
    _cycle_size(k)
    lines = [1 << i | 1 << (i + 1) % k for i in range(k)]
    return Game(k, ExplicitLines(k, lines), (Permutation.cycle(k),),
                f"cycle({k})", meta={"construction": "cycle", "params": {"n": k}})


def _complete_size(k: int) -> int:
    _require(k >= 3, f"complete graph needs k >= 3, got {k}")
    _require_board(k, k * (k - 1) // 2, 1, f"complete({k})")
    return k


def complete_graph_game(k: int) -> Game:
    """All pairs as size-2 lines."""
    _complete_size(k)
    lines = [1 << i | 1 << j for i, j in itertools.combinations(range(k), 2)]
    return Game(k, ExplicitLines(k, lines), (Permutation.cycle(k),),
                f"complete({k})", meta={"construction": "complete", "params": {"n": k}})


def _matching_size(k: int) -> int:
    _require(k >= 2, f"matching needs k >= 2, got {k}")
    _require_board(2 * k, k, 1, f"matching({k})")
    return 2 * k


def matching_game(k: int) -> Game:
    """A perfect matching on 2k points: lines {i, i+k}."""
    _matching_size(k)
    lines = [1 << i | 1 << i + k for i in range(k)]
    return Game(2 * k, ExplicitLines(2 * k, lines), (Permutation.cycle(2 * k),),
                f"matching({k})", meta={"construction": "matching", "params": {"k": k}})


# ---------------------------------------------------------------------------
# registry, game-spec strings, JSON round trip

# "size" checks a spec's parameters and work budget as the factory does
# first, and gives its board size without building it (a base taken as its
# size and longest line). "line" gives the longest line of a spec that
# "size" has passed (a base taken as its longest line). The copies and
# product_torus factories also budget the lines of the games they are
# built from, which only building can count.
CATALOG = {
    "odd_composite": {"factory": odd_composite, "params": ["p", "q"],
                      "ranges": "p, q odd >= 3", "size": _odd_composite_size,
                      "line": lambda p, q: (p + 1) * (q + 1) // 4},
    "pairs": {"factory": pairs_game, "params": ["b"], "ranges": "b odd >= 3",
              "size": _pairs_size, "line": lambda b: b},
    "even_general": {"factory": even_general, "params": ["a", "b"],
                     "ranges": "a >= 2, b odd > 1", "size": _even_general_size,
                     "line": lambda a, b: b << a - 1},
    "torus": {"factory": torus, "params": ["q", "d"],
              "ranges": "q >= 2, d >= 1, q^(2d+1) * d <= 2^21", "size": _torus_size,
              "line": lambda q, d: q},
    "product_torus": {"factory": product_torus, "params": ["d"], "ranges": "d >= 1",
                      "size": _product_torus_size, "line": lambda d: 3},
    "affine": {"factory": affine_game, "params": ["n"], "ranges": "n in {11, 13}",
               "size": _affine_default_size, "line": lambda n: (n - 1) // 2},
    "cycle": {"factory": cycle_game, "params": ["n"], "ranges": "n >= 3",
              "size": _cycle_size, "line": lambda n: 2},
    "complete": {"factory": complete_graph_game, "params": ["n"], "ranges": "n >= 3",
                 "size": _complete_size, "line": lambda n: 2},
    "matching": {"factory": matching_game, "params": ["k"], "ranges": "k >= 2",
                 "size": _matching_size, "line": lambda k: 2},
    "copies": {"factory": disjoint_copies, "params": ["base", "c"], "ranges": "c odd >= 1",
               "size": lambda base, c: _copies_size(base[0], c), "line": lambda line, c: line},
    "superset": {"factory": superset_lines, "params": ["base", "r"],
                 "ranges": "r >= max base line size",
                 "size": lambda base, r: _superset_size(base[0], r, base[1]),
                 "line": lambda line, r: r},
}


# the constructions a document may name as implicit lines, with the factory
# options that build those lines
IMPLICIT = {"odd_composite": {}, "pairs": {"store": "implicit"}, "even_general": {},
            "superset": {}}

MAX_SPEC_DEPTH = 16  # parentheses a game spec may nest


def parse_game_spec(spec: str) -> Game:
    """Build a game from a compact string like ``pairs(3)`` or ``copies(pairs(3),3)``."""
    return _from_spec(spec, "factory")


def spec_size(spec: str) -> int:
    """The board size of the game a spec names, without building it. Raises
    the errors ``parse_game_spec`` raises before it builds anything."""
    return _from_spec(spec, "size")


def _from_spec(spec: str, role: str):
    """``CATALOG[head][role]`` on the spec's arguments."""
    spec = spec.strip()
    head, paren, _ = spec.partition("(")
    if not paren or not spec.endswith(")"):
        raise GameError(f"malformed game spec {spec!r}")
    inner = spec[len(head) + 1:-1]
    args: list[str] = []
    depth = start = 0
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
    args = [a.strip() for a in args] if inner.strip() else []
    if "" in args:
        raise GameError(f"empty argument in game spec {spec!r}")
    return _catalog_game(head, [_int_token(a) for a in args], role)


def _int_token(token: str):
    """A spec argument as an int when it reads as one, else the string."""
    try:
        return int(token)
    except ValueError:
        return token


def _catalog_game(head: str, args: list, role: str = "factory", **options):
    """``CATALOG[head][role]`` (the factory, the size check or the longest
    line) on ``args``, after checking their count and kinds: a base is a
    game spec string, taken in the same role (for "size", with its longest
    line too), and every other argument an int. A game built on a base
    passes the size checks of the whole spec before anything is built."""
    entry = CATALOG.get(head)
    if entry is None:
        raise GameError(f"unknown construction {head!r}")
    params = entry["params"]
    if len(args) != len(params):
        raise GameError(f"{head} takes {len(params)} argument(s) ({', '.join(params)}), "
                        f"got {len(args)}")
    if role == "factory" and "base" in params:
        _catalog_game(head, args, "size", **options)
    values: list = []
    for name, arg in zip(params, args):
        if name == "base" and isinstance(arg, str) and "(" in arg:
            base = _from_spec(arg, role)
            values.append((base, _from_spec(arg, "line")) if role == "size" else base)
        elif name != "base" and type(arg) is int:
            values.append(arg)
        else:
            kind = "a game spec" if name == "base" else "an integer"
            raise GameError(f"{head} argument {name} must be {kind}, got {arg!r}")
    return entry[role](*values, **options)


def game_to_json(game: Game) -> dict:
    lines: dict
    if isinstance(game.lines, ExplicitLines):
        lines = {"explicit": [list(iter_bits(m)) for m in game.lines.masks]}
    elif isinstance(game.lines, ImplicitLines) and "construction" in game.meta:
        lines = {"implicit": {"construction": game.meta["construction"],
                              "params": game.meta["params"]}}
    else:
        raise GameError("unknown line store")
    return {
        "n": game.n,
        "name": game.name,
        "lines": lines,
        "generators": [list(g.image) for g in game.generators],
    }


def _line_masks(n: int, lines: list) -> list[int]:
    """A document's explicit point lists as masks; a line with a point off the
    board is not built but becomes -1, which no store or rebuilt family takes."""
    return [mask_of(l) if all(0 <= x < n for x in l) else -1 for l in lines]


def _family_key(doc: dict) -> tuple:
    lines = doc["lines"]
    if "explicit" in lines:
        lines = frozenset(_line_masks(doc["n"], lines["explicit"]))
    return lines, frozenset(tuple(g) for g in doc["generators"])


def _point_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, list) and all(type(x) is int for x in v) for v in value)


def game_from_json(doc: dict) -> Game:
    """Load a game document, rebuilding named constructions.

    A game rebuilt from its name or implicit parameters must have the
    document's lines and generators; a mismatch is refused, never swapped,
    and so is a document of any other shape.
    """
    if not (isinstance(doc, dict) and type(doc.get("n")) is int and doc["n"] >= 1
            and isinstance(doc.get("name", ""), str) and isinstance(doc.get("lines"), dict)
            and _point_lists(doc.get("generators"))):
        raise GameError("a game document is an object with a positive integer n, a "
                        "string name, a lines object and generators as lists of points")
    n, name, lines = doc["n"], doc.get("name", "game"), doc["lines"]
    if "explicit" in lines:
        if not _point_lists(lines["explicit"]):
            raise GameError("explicit lines must be lists of points")
        try:
            game = parse_game_spec(name)
        except GameError:
            if any(len(g) != n for g in doc["generators"]):
                raise GameError(f"a generator does not permute {n} points") from None
            _require_board(n, len(lines["explicit"]), len(doc["generators"]),
                           f"a document on {n} points")
            gens = tuple(Permutation(tuple(img)) for img in doc["generators"])
            return Game(n, ExplicitLines(n, _line_masks(n, lines["explicit"])), gens, name)
    else:
        impl = lines.get("implicit")
        if not (isinstance(impl, dict) and isinstance(impl.get("params"), dict)):
            raise GameError("implicit lines need a construction and a params object")
        cname, params = impl.get("construction"), impl["params"]
        options = IMPLICIT.get(cname) if isinstance(cname, str) else None
        if options is None:
            raise GameError(f"unknown implicit construction {cname!r}")
        game = _catalog_game(cname, [params.get(p) for p in CATALOG[cname]["params"]],
                             **options)
    if game.n != n:
        raise GameError(f"rebuilt board size {game.n} != serialized {n}")
    if _family_key(game_to_json(game)) != _family_key(doc):
        raise GameError(f"the lines or generators of the document differ from "
                        f"those of the rebuilt game {game.name}")
    return game
