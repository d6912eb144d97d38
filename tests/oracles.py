"""Independent brute-force reference implementations.

These deliberately avoid the package's fast paths: containment is subset
enumeration, game values come from plain recursion with no table and no
pruning, and rotation orders are compared through explicit bit strings.
They exist so the package's answers are checked against a second route.
"""

from __future__ import annotations

import itertools


def brute_contains_line(store, members) -> bool:
    """Containment by enumerating k-subsets against the store's is_line."""
    members = frozenset(members)
    k = store.k if hasattr(store, "k") else None
    if k is not None:
        if len(members) < k:
            return False
        return any(store.is_line(frozenset(c))
                   for c in itertools.combinations(sorted(members), k))
    return any(l <= members for l in store.lines)


def brute_loses_after(store, members, x) -> bool:
    """Is some line through ``x`` a subset of ``members``? By enumeration."""
    members = frozenset(members)
    k = store.k if hasattr(store, "k") else None
    if k is not None:
        rest = sorted(members - {x})
        return any(store.is_line(frozenset(c) | {x})
                   for c in itertools.combinations(rest, k - 1))
    return any(x in l and l <= members for l in store.lines)


def ref_solve(game, a=frozenset(), b=frozenset()) -> int:
    """Plain negamax, no table, no pruning shortcuts. 1/0/-1 for the mover."""
    claimed = a | b
    if len(claimed) == game.n:
        return 0
    mine, theirs = (a, b) if len(a) == len(b) else (b, a)
    best = -1
    for x in range(game.n):
        if x in claimed:
            continue
        nm = mine | {x}
        if game.contains_line(nm):
            val = -1
        else:
            if len(a) == len(b):
                val = -ref_solve(game, nm, b)
            else:
                val = -ref_solve(game, a, nm)
        best = max(best, val)
    return best


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
            val = -1 if game.contains_line(nc) else -ref_solve_plus(game, other, nc)
            best = max(best, val)
            if best == 1:
                return 1
    return best


def word_string(members, m: int, x: int, r: int) -> str:
    """Indicator string of a set on [x, x+r), built character by character."""
    return "".join("1" if (x + i) % m in members else "0" for i in range(r))


def ref_maximal_points(members, m: int) -> list:
    """All starts whose full rotation string is maximal (string comparison)."""
    words = {x: word_string(members, m, x, m) for x in range(m)}
    best = max(words.values())
    return [x for x, w in words.items() if w == best]


def ref_is_r_maximal(members, m: int, x: int, r: int) -> bool:
    wx = word_string(members, m, x, r)
    return all(word_string(members, m, y, r) <= wx for y in range(m))


def brute_key_params(a):
    """``pairset.key_params`` on ``PairSet`` objects, one quarter fill at a time.

    The set-based form the mask kernel replaced: rotate with
    ``PairSet.rotate``, fill each quarter with ``fill_interval`` and take
    every maximum with ``maximal_point``.
    """
    from avoidance.pairset import KeyParams, a_max, fill_interval, maximal_point

    m = a.m
    mp = m // 4
    u_star = maximal_point(a_max(a), m=m)
    base = a.rotate(-u_star)

    def max_of(k: int) -> int:
        filled = fill_interval(base, (k * mp) % m, mp)
        return maximal_point(fill_interval(filled, ((k + 1) * mp) % m, mp))

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
