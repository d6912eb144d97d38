"""Independent brute-force reference implementations.

These deliberately avoid the package's fast paths: containment is subset
enumeration, game values come from plain recursion with no pruning and
at most a memo of positions, and rotation orders are compared through
explicit bit strings. They exist so the package's answers are checked against a second route.
"""

from __future__ import annotations

import functools
import itertools

from avoidance.core import Game, ImplicitLines, Permutation, mask_of, set_of


@functools.lru_cache(maxsize=None)
def _line_sets(store) -> tuple:
    """The lines of an explicit store as frozensets, in store order."""
    return tuple(map(set_of, store.masks))


def _is_line(store, c) -> bool:
    """Whether the point tuple ``c`` is a line of an implicit store: it has
    the store's uniform line size and contains a line."""
    return len(c) == store.min_line_size and store.contains_mask(mask_of(c))


def brute_contains_line(store, members) -> bool:
    """Containment by enumerating k-subsets against the line test above."""
    members = frozenset(members)
    if isinstance(store, ImplicitLines):
        k = store.min_line_size
        if len(members) < k:
            return False
        return any(_is_line(store, c) for c in itertools.combinations(sorted(members), k))
    return any(l <= members for l in _line_sets(store))


def brute_loses_after(store, members, x) -> bool:
    """Is some line through ``x`` a subset of ``members``? By enumeration."""
    members = frozenset(members)
    if isinstance(store, ImplicitLines):
        rest = sorted(members - {x})
        return any(_is_line(store, c + (x,))
                   for c in itertools.combinations(rest, store.min_line_size - 1))
    return any(x in l and l <= members for l in _line_sets(store))


@functools.lru_cache(maxsize=None)
def _allowed_sets(store) -> tuple:
    """The allowed sets of an implicit store as frozensets, in enumeration order."""
    return tuple(map(set_of, store._w_iter()))


def ref_pairs_w_masks(b: int) -> list:
    """The allowed sets of ``pairs_game(b)`` as point masks, enumerated
    directly: every odd transversal (one point per pair, an odd number of
    second points), pair 0's pick varying slowest; then each doubled pair
    with each empty pair 1..(b-1)/2 after it and either point of the rest."""
    choices = [(1 << 2 * i, 2 << 2 * i) for i in range(b)]
    high = ((1 << 2 * b) - 1) // 3 << 1  # the second point of every pair
    out = [w for w in map(sum, itertools.product(*choices))
           if (w & high).bit_count() % 2 == 1]
    for full in range(b):
        for d in range(1, (b - 1) // 2 + 1):
            empty = (full + d) % b
            rest = [choices[i] for i in range(b) if i not in (full, empty)]
            out += [3 << 2 * full | sum(t) for t in itertools.product(*rest)]
    return out


def ref_bin_window(b: int, m: int, x: int) -> frozenset:
    """The window of point x's opposite pair on the bin board Z_b x Z_m
    (point j*m + y; pair i of a bin is its points i and i + m/2), as a
    set of points: both points of each of the next m/4 - 1 pairs of x's
    bin, and every point of each of the next (b - 1)/2 bins."""
    half = m // 2
    j, i = x // m, x % m % half
    pairs = [(j, (i + d) % half) for d in range(1, m // 4)]
    pairs += [((j + d) % b, e) for d in range(1, (b - 1) // 2 + 1) for e in range(half)]
    return frozenset(jj * m + e + h for jj, e in pairs for h in (0, half))


def ref_unpreserved_line(store, perm):
    """The first line of an explicit store, in store order, that ``perm``
    maps off the family, as a frozenset; None if there is none."""
    return _first_unpreserved(_line_sets(store), perm)


def ref_unpreserved_allowed(store, perm):
    """The first allowed set of an implicit store, in enumeration order,
    that ``perm`` maps off the allowed family, as a frozenset; None if
    there is none."""
    return _first_unpreserved(_allowed_sets(store), perm)


def _first_unpreserved(sets: tuple, perm):
    """The first of ``sets`` whose image is not among them; each set is
    mapped point by point through ``perm.image``."""
    family, img = set(sets), perm.image
    return next((s for s in sets if frozenset(img[x] for x in s) not in family), None)


def ref_affine_disjoint_pair(n: int, bases):
    """The first two disjoint sets, by sorted point list, of the affine
    closure {a*B + c} of ``bases`` in Z_n, by testing every pair; None when
    the closure is intersecting. Returns (closure, pair)."""
    closure = {frozenset((a * x + c) % n for x in b)
               for b in bases for a in range(1, n) for c in range(n)}
    ordered = sorted(closure, key=sorted)
    pair = next(((sorted(w1), sorted(w2)) for i, w1 in enumerate(ordered)
                 for w2 in ordered[i + 1:] if not w1 & w2), None)
    return closure, pair


def brute_downset(masks) -> set:
    """Every submask of every mask in ``masks``, by walking submasks."""
    out = set()
    for w in masks:
        sub = w
        while sub:
            out.add(sub)
            sub = (sub - 1) & w
        out.add(0)
    return out


def ref_solve(game, a=frozenset(), b=frozenset(), order=None, key=None) -> int:
    """Plain negamax, no pruning shortcuts: 1/0/-1 for the side to move
    when Player I holds ``a`` and Player II ``b``. Every move is tried, in
    ``order`` (ascending by default), and values are memoized under
    ``key(mover's mask, other's mask)`` (the two masks by default)."""
    order = range(game.n) if order is None else order
    key = key or (lambda mine, theirs: (mine, theirs))
    memo: dict = {}

    def value(mine: int, theirs: int) -> int:
        k = key(mine, theirs)
        if k not in memo:
            values = [-1 if game.lines.contains_mask(mine | 1 << x)
                      else -value(theirs, mine | 1 << x)
                      for x in order if not (mine | theirs) >> x & 1]
            memo[k] = max(values) if values else 0
        return memo[k]

    mover, other = (a, b) if len(a) == len(b) else (b, a)
    return value(mask_of(mover), mask_of(other))


def reversed_points(game) -> Game:
    """``game`` with point x relabelled n-1-x, so that the solver's
    ascending search of it is a descending search of ``game``; a canonical
    form is carried over. Its lines are a containment test only."""
    n = game.n

    def rev(mask: int) -> int:
        return int(format(mask, f"0{n}b")[::-1], 2)

    contains = game.lines.contains_mask
    lines = ImplicitLines(n, game.lines.min_line_size, lambda m: contains(rev(m)))
    canonical = game.canonical
    return Game(n, lines, (), f"reversed {game.name}", canonical=None if canonical is None
                else lambda mine, theirs: canonical(rev(mine), rev(theirs)))


def ref_pairs_key(b: int):
    """``pairs_game(b)``'s orbit key by a loop over the group: flip each
    pair into one orientation, then take the least of all b rotations of
    ``mine | theirs << n``, with the flip parity as bit 2n when no pair
    is fixed by a flip."""
    n = 2 * b
    lo = mask_of(range(0, n, 2))
    wrap = 3 | 3 << n      # pair 0 of each half, where a rotation wraps in
    keep = ((1 << 2 * n) - 1) & ~wrap

    def key(mine: int, theirs: int) -> int:
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

    return key


def ref_affine_key(p: int):
    """``affine_game(p)``'s orbit key by a loop over the group: the least
    ``mine | theirs << p`` over all p - 1 scalings, each followed by all p
    rotations."""
    wrap = 1 | 1 << p      # point 0 of each half, where a rotation wraps in
    keep = ((1 << 2 * p) - 1) & ~wrap
    scalings = [Permutation(tuple(a * x % p for x in range(p))).mask_map()
                for a in range(1, p)]

    def key(mine: int, theirs: int) -> int:
        best = 1 << 2 * p
        for scale in scalings:
            v = scale(mine) | scale(theirs) << p
            for _ in range(p):
                if v < best:
                    best = v
                v = (v << 1) & keep | (v >> (p - 1)) & wrap
        return best

    return key


def ref_solve_plus(game, cur=frozenset(), other=frozenset()) -> int:
    """Plain recursion over nonempty subset moves."""
    board = frozenset(range(game.n))
    unclaimed = sorted(board - cur - other)
    if not unclaimed:
        return 0
    best = -1
    for r in range(1, len(unclaimed) + 1):
        for combo in itertools.combinations(unclaimed, r):
            nc = cur | set(combo)
            lost = game.lines.contains_mask(mask_of(nc))
            val = -1 if lost else -ref_solve_plus(game, other, nc)
            best = max(best, val)
            if best == 1:
                return 1
    return best


def ref_earliest_loss(game) -> float:
    """Index of the move on which Player II first contains a line, Player I
    minimising and Player II maximising it; ``inf`` where Player II escapes
    (a full board with no line, or Player I containing a line first).

    Plain min/max recursion over frozensets, memoized on the two sets only.
    """
    inf = float("inf")
    memo: dict = {}
    contains = game.lines.contains_mask

    def value(a: frozenset, b: frozenset) -> float:
        if (a, b) not in memo:
            claimed = a | b
            first = len(a) == len(b)
            values = []
            for x in range(game.n):
                if x in claimed:
                    continue
                if first:
                    na = a | {x}
                    values.append(inf if contains(mask_of(na)) else value(na, b))
                else:
                    nb = b | {x}
                    values.append(len(claimed) + 1 if contains(mask_of(nb))
                                  else value(a, nb))
            memo[a, b] = inf if not values else min(values) if first else max(values)
        return memo[a, b]

    return value(frozenset(), frozenset())


def word_string(members, m: int, x: int, r: int) -> str:
    """Indicator string of a set on [x, x+r), built character by character."""
    return "".join("1" if (x + i) % m in members else "0" for i in range(r))


def ref_windows(m: int, mask: int, r: int) -> list:
    """Packed words of the windows [x, x+r) of ``mask``, indexed by x, point
    x at the most significant bit: the m bits of ``mask`` reversed through
    their binary string, doubled, and cut at each start."""
    w = int(format(mask, f"0{m}b")[::-1], 2)
    doubled = w << m | w
    return [(doubled >> (2 * m - r - x)) & ((1 << r) - 1) for x in range(m)]


def ref_max_starts(m: int, mask: int, r: int) -> int:
    """Mask of the starts of the greatest words in ``ref_windows``."""
    words = ref_windows(m, mask, r)
    top = max(words)
    return sum(1 << x for x, w in enumerate(words) if w == top)


def ref_maximal_points(members, m: int) -> list:
    """All starts whose full rotation string is maximal (string comparison)."""
    words = {x: word_string(members, m, x, m) for x in range(m)}
    best = max(words.values())
    return [x for x, w in words.items() if w == best]


def ref_is_r_maximal(members, m: int, x: int, r: int) -> bool:
    wx = word_string(members, m, x, r)
    return all(word_string(members, m, y, r) <= wx for y in range(m))


def ref_free_points(members, m: int) -> frozenset:
    """Points of Z_m neither in ``members`` nor opposite a member."""
    half = m // 2
    return frozenset(x for x in range(m)
                     if x not in members and (x + half) % m not in members)


def ref_earliest_latest_count(m: int) -> int:
    """The ``checked`` count of the ``earliest-latest`` suite, by the plain
    double loop: for every partial pair set A, every y and every x that is
    m/4-maximal in A with its frees added (by string comparison), count
    (x, y) when no free point lies in [x, y)."""
    half, quarter = m // 2, m // 4
    count = 0
    for picks in itertools.product(*[(None, p, p + half) for p in range(half)]):
        members = frozenset(x for x in picks if x is not None)
        if not members:
            continue
        free = ref_free_points(members, m)
        words = [word_string(members | free, m, x, quarter) for x in range(m)]
        maximal = [x for x in range(m) if words[x] == max(words)]
        for y in range(m):
            for x in maximal:
                if not any((x + i) % m in free for i in range((y - x) % m)):
                    count += 1
    return count


def ref_fill(members, m: int, x: int, r: int) -> frozenset:
    """``members`` plus the free points of the cyclic interval [x, x+r)."""
    free = ref_free_points(members, m)
    return frozenset(members) | {(x + i) % m for i in range(r) if (x + i) % m in free}


def brute_key_params(members, m: int):
    """``pairset.key_params`` on frozensets, one quarter fill at a time.

    Rotates the set, fills each quarter with ``ref_fill`` and takes every
    maximum from ``ref_maximal_points`` (which must be unique), so no
    package kernel but the ``KeyParams`` record is involved.
    """
    from avoidance.pairset import KeyParams

    members = frozenset(members)
    mp = m // 4

    def maximum(s) -> int:
        points = ref_maximal_points(s, m)
        assert len(points) == 1, (sorted(s), points)
        return points[0]

    u_star = maximum(members | ref_free_points(members, m))
    base = frozenset((x - u_star) % m for x in members)

    def max_of(k: int) -> int:
        filled = ref_fill(base, m, (k * mp) % m, mp)
        return maximum(ref_fill(filled, m, ((k + 1) * mp) % m, mp))

    def lift(residue: int, lo_exclusive: int) -> int:
        return lo_exclusive + 1 + ((residue - lo_exclusive - 1) % m)

    def out(s: int, t: int, z1: int, z2: int):
        return KeyParams(s, (t + u_star) % m, (z1 + u_star) % m, (z2 + u_star) % m)

    x3 = lift(max_of(3), 2 * mp)
    if x3 == m:
        return out(0, 0, 0, 0)
    x2 = lift(max_of(2), x3 - 2 * mp)
    if m - x2 < 2 * mp:
        return out(x3 - x2, x3 % m, 3 * mp, 0)
    x1 = lift(max_of(1), x2 - 2 * mp)
    if x3 - x1 < 2 * mp:
        return out(x2 - x1, x2 % m, 2 * mp, 3 * mp)
    x0 = lift(max_of(0), x1 - 2 * mp)
    if x2 - x0 < 2 * mp:
        return out(x1 - x0, x1 % m, mp, 2 * mp)
    return out(0, 0, 0, 0)


def ref_verify(game, strat, owner, goal) -> dict:
    """The exhaustive strategy check as a plain loop, as a report document.

    One ``step`` call per adversary reply, ascending, and a memo of the
    (owner's set, adversary's set, state) triples whose subtree passed; no
    pairing table and no sleep sets. The checks come in the verifier's
    order, so leaves and the first counterexample are comparable.
    """
    from avoidance.core import IllegalMoveError, Player

    n, full = game.n, game.full_mask
    minline = game.lines.min_line_size
    first = owner is Player.ONE
    win = goal.value == "win"
    memo = set()
    leaves = 0

    def loses_after(mask, x):  # no line fits in fewer points than the shortest
        return mask.bit_count() >= minline and game.lines.loses_after(mask, x)

    def answer(state, mine, theirs, q):
        try:
            return strat.step(state, mine, theirs, q)
        except IllegalMoveError:
            return -1, state

    def replies(mine, theirs, state):
        nonlocal leaves
        for q in range(n):
            if ((mine | theirs) >> q) & 1:
                continue
            nt = theirs | 1 << q
            if loses_after(nt, q):
                leaves += 1
                continue
            if mine | nt == full:
                leaves += 1
                if win:
                    return [q]
                continue
            x, after = answer(state, mine, nt, q)
            if not 0 <= x < n or ((mine | nt) >> x) & 1:
                return [q, x]
            nm = mine | 1 << x
            if (nm, nt, after) in memo:
                continue
            if loses_after(nm, x):
                return [q, x]
            if nm | nt == full:
                leaves += 1
                if win:
                    return [q, x]
                continue
            sub = replies(nm, nt, after)
            if sub is not None:
                return [q, x] + sub
            memo.add((nm, nt, after))
        return None

    state = strat.initial
    if not first:
        cx = replies(0, 0, state)
    else:
        x, state = answer(state, 0, 0, None)
        if not 0 <= x < n or loses_after(1 << x, x):
            cx = [x]
        elif 1 << x == full:
            leaves += 1
            cx = [x] if win else None
        else:
            cx = replies(1 << x, 0, state)
            if cx is not None:
                cx = [x] + cx
    doc = {"verdict": "pass" if cx is None else "counterexample", "leaves": leaves,
           "mode": "exhaustive"}
    if cx is not None:
        doc["counterexample"] = cx
    return doc


def ref_verify_sampled(game, strat, owner, goal, samples: int, seed: int) -> dict:
    """The sampled strategy check as a report document, drawing as the
    verifier once did: ``rng.choice`` over the ascending unclaimed points,
    then ``remove``, with the popcounts read off the masks."""
    import random

    from avoidance.core import IllegalMoveError, Player

    n = game.n
    minline = game.lines.min_line_size
    first = owner is Player.ONE
    win = goal.value == "win"
    rng = random.Random(seed)
    leaves = 0
    failed = None
    for _ in range(samples):
        state, q = strat.initial, None
        mine = theirs = 0
        free = list(range(n))
        history = []
        owner_moves = first
        while True:
            if owner_moves:
                try:
                    x, state = strat.step(state, mine, theirs, q)
                except IllegalMoveError:
                    x = -1
                history.append(x)
                if not 0 <= x < n or ((mine | theirs) >> x) & 1:
                    failed = history
                    break
                mine |= 1 << x
                if mine.bit_count() >= minline and game.lines.loses_after(mine, x):
                    failed = history
                    break
                free.remove(x)
            else:
                q = rng.choice(free)
                free.remove(q)
                theirs |= 1 << q
                history.append(q)
                if theirs.bit_count() >= minline and game.lines.loses_after(theirs, q):
                    break
            if not free:
                if win:
                    failed = history
                break
            owner_moves = not owner_moves
        leaves += 1
        if failed is not None:
            break
    doc = {"verdict": "pass" if failed is None else "counterexample", "leaves": leaves,
           "mode": "sampled", "seed": seed, "samples": samples}
    if failed is not None:
        doc["counterexample"] = failed
    return doc
